"""On-disk result cache for experiment runs.

Results live under ``.repro-cache/`` (overridable via the
``REPRO_CACHE_DIR`` environment variable or the constructor), one pickle
per run, named by the spec digest, which folds in the code fingerprint
(:func:`repro.runner.spec.code_fingerprint`): editing any module of the
package — the digest scheme's own included — invalidates every entry
without a cleanup pass.

Writes are atomic and durable (tempfile + ``fsync`` + ``os.replace`` +
directory fsync, via :mod:`repro.runner.atomicio`) so a crashed or
parallel writer can never leave a truncated entry behind — even across
``kill -9`` or power loss mid-write; concurrent writers of the same spec
produce identical payloads, so last-writer-wins is safe.

Integrity: each entry is a small envelope carrying the SHA-256 of the
pickled payload.  A corrupt or truncated entry (bit rot, a torn write
from a pre-atomic writer, a partially copied cache directory) fails the
checksum, is *quarantined* — renamed to ``<digest>.pkl.corrupt`` so it
can be inspected but never loaded again — and the lookup proceeds as a
plain miss with a logged warning.  Unpickling never runs on bytes that
fail the checksum.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from pathlib import Path
from typing import Any, Optional, Tuple

from repro.runner.atomicio import atomic_write_bytes
from repro.runner.spec import RunSpec
from repro.telemetry.logutil import get_logger

__all__ = ["ResultCache", "default_cache_dir"]

_ENV_DIR = "REPRO_CACHE_DIR"
_DEFAULT_DIR = ".repro-cache"

#: Suffix appended to quarantined (checksum-failed) entries.
_CORRUPT_SUFFIX = ".corrupt"

#: Envelope format version; bump when the on-disk structure changes.
_FORMAT = 2

log = get_logger("repro.cache")


def default_cache_dir() -> Path:
    """The cache root: ``$REPRO_CACHE_DIR`` or ``./.repro-cache``."""
    return Path(os.environ.get(_ENV_DIR) or _DEFAULT_DIR)


class ResultCache:
    """Pickle-per-run cache keyed by ``RunSpec.digest(code)``; ``code``
    defaults to this package's fingerprint."""

    def __init__(
        self,
        root: Optional[os.PathLike] = None,
        code: Optional[str] = None,
    ) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.code = code
        self.hits = 0
        self.misses = 0
        #: Entries quarantined after failing their checksum.
        self.quarantined = 0

    # ------------------------------------------------------------------
    def path_for(self, spec: RunSpec) -> Path:
        return self.root / f"{spec.digest(self.code)}.pkl"

    def get(self, spec: RunSpec) -> Tuple[bool, Any]:
        """Return ``(hit, payload)``; payload is the stored dict on a hit."""
        path = self.path_for(spec)
        try:
            raw = path.read_bytes()
        except OSError:
            # Missing entry (or unreadable file): a plain miss.
            self.misses += 1
            return False, None

        blob = self._verified_blob(raw)
        if blob is None:
            self._quarantine(path)
            self.misses += 1
            return False, None

        try:
            payload = pickle.loads(blob)
        except Exception:
            # The bytes are intact (checksum passed) but reference code
            # that no longer unpickles — e.g. a renamed class.  Not
            # corruption; just a stale entry that put() will rebuild.
            self.misses += 1
            return False, None
        if not isinstance(payload, dict):
            self.misses += 1
            return False, None
        self.hits += 1
        return True, payload

    def _verified_blob(self, raw: bytes) -> Optional[bytes]:
        """Unwrap the envelope, returning the payload blob or ``None``.

        Any structural problem — unparseable envelope, wrong format tag,
        checksum mismatch — means the file is not something this cache
        wrote and got back intact, and the caller quarantines it.
        """
        try:
            envelope = pickle.loads(raw)
        except Exception:
            return None
        if (
            not isinstance(envelope, dict)
            or envelope.get("format") != _FORMAT
            or not isinstance(envelope.get("payload"), bytes)
        ):
            return None
        blob = envelope["payload"]
        if hashlib.sha256(blob).hexdigest() != envelope.get("sha256"):
            return None
        return blob

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry aside so it is inspectable but never reused."""
        target = path.with_suffix(path.suffix + _CORRUPT_SUFFIX)
        try:
            os.replace(path, target)
        except OSError:
            return
        self.quarantined += 1
        log.warning(
            "cache entry %s failed its checksum; quarantined to %s "
            "and treated as a miss", path.name, target.name,
        )

    def put(self, spec: RunSpec, value: Any, metrics: Any = None) -> None:
        """Store a result atomically; IO errors are non-fatal (cache only)."""
        payload = {
            "fn": spec.fn,
            "label": spec.label,
            "value": value,
            "metrics": metrics,
        }
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        envelope = {
            "format": _FORMAT,
            "sha256": hashlib.sha256(blob).hexdigest(),
            "payload": blob,
        }
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            atomic_write_bytes(
                self.path_for(spec),
                pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL),
            )
        except OSError:
            pass

    def clear(self) -> int:
        """Delete every cache entry (quarantined ones included)."""
        removed = 0
        if self.root.is_dir():
            for pattern in ("*.pkl", f"*.pkl{_CORRUPT_SUFFIX}"):
                for path in self.root.glob(pattern):
                    try:
                        path.unlink()
                        removed += 1
                    except OSError:
                        pass
        return removed
