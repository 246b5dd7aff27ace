"""Declarative run specifications.

A :class:`RunSpec` names one independent simulation run — a target
function plus keyword arguments — without executing it.  Specs are the
unit of work the executor fans out to worker processes and the unit of
identity for the on-disk result cache, so they must be

* **picklable** (they cross the process boundary),
* **hashable to a stable digest** (the cache key survives interpreter
  restarts, so ``hash()`` and ``id()`` are useless — we canonicalise the
  arguments to JSON and SHA-256 them with :func:`code_fingerprint`), and
* **self-contained** (the target is a dotted ``module:function`` path,
  resolved inside the worker, never a closure).
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import importlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple

__all__ = ["RunSpec", "canonical", "code_fingerprint", "spec_digest"]

#: The ``repro`` package directory, whose sources the cache key covers.
PACKAGE_ROOT = Path(__file__).resolve().parents[1]


@functools.lru_cache(maxsize=None)
def code_fingerprint(root: Path = PACKAGE_ROOT) -> str:
    """SHA-256 over the sorted relative paths and bytes of ``root/**/*.py``:
    the code half of every cache key, read once per process (per root)
    on first use, never at import."""
    digest = hashlib.sha256()
    for rel in sorted(path.relative_to(root).as_posix()
                      for path in root.rglob("*.py")):
        data = (root / rel).read_bytes()
        digest.update(f"{rel}\0{len(data)}\0".encode("utf-8"))
        digest.update(data)
    return digest.hexdigest()


def canonical(obj: Any) -> Any:
    """Reduce ``obj`` to a JSON-serialisable canonical form.

    Enums collapse to ``[qualified-name, value]``, dataclasses to their
    field dict, mappings to sorted item lists.  Two argument sets that
    compare equal canonicalise identically, so the digest is stable
    across processes and interpreter runs.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        # repr round-trips floats exactly; json.dumps uses it anyway, but
        # being explicit keeps the contract obvious.
        return float(obj)
    if isinstance(obj, enum.Enum):
        return ["enum", f"{type(obj).__module__}.{type(obj).__qualname__}", obj.value]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {
            f.name: canonical(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
        return ["dataclass", f"{type(obj).__module__}.{type(obj).__qualname__}", fields]
    if isinstance(obj, dict):
        return ["dict", sorted((str(k), canonical(v)) for k, v in obj.items())]
    if isinstance(obj, (list, tuple)):
        return ["seq", [canonical(item) for item in obj]]
    if isinstance(obj, (set, frozenset)):
        return ["set", sorted(json.dumps(canonical(item)) for item in obj)]
    raise TypeError(
        f"cannot canonicalise {type(obj).__name__!r} for a RunSpec digest; "
        "pass enums, dataclasses, or plain JSON types"
    )


def spec_digest(fn: str, kwargs: Dict[str, Any], code: str) -> str:
    """SHA-256 digest of ``(fn, kwargs, code fingerprint)``."""
    blob = json.dumps(
        [fn, canonical(kwargs), code],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class RunSpec:
    """One independent simulation run, described declaratively.

    ``fn`` is a ``"package.module:function"`` path; ``kwargs`` is a
    sorted tuple of ``(name, value)`` pairs (tuples keep the dataclass
    hashable and picklable).  ``label`` is a human-readable tag for
    progress output and does not affect the digest.
    """

    fn: str
    kwargs: Tuple[Tuple[str, Any], ...] = ()
    label: str = field(default="", compare=False)

    @classmethod
    def make(cls, fn: str, *, label: str = "", **kwargs: Any) -> "RunSpec":
        """Build a spec from plain keyword arguments."""
        return cls(fn=fn, kwargs=tuple(sorted(kwargs.items())), label=label)

    @property
    def kwargs_dict(self) -> Dict[str, Any]:
        return dict(self.kwargs)

    def resolve(self) -> Callable[..., Any]:
        """Import and return the target function."""
        module_name, _, attr = self.fn.partition(":")
        if not attr:
            raise ValueError(
                f"RunSpec.fn must be 'module:function', got {self.fn!r}"
            )
        module = importlib.import_module(module_name)
        return getattr(module, attr)

    def call(self) -> Any:
        """Execute the run in the current process."""
        return self.resolve()(**self.kwargs_dict)

    def digest(self, code: Optional[str] = None) -> str:
        """Stable cache key: SHA-256 over (fn, kwargs, code fingerprint);
        ``code`` defaults to :func:`code_fingerprint` of this package."""
        return spec_digest(self.fn, self.kwargs_dict,
                           code if code is not None else code_fingerprint())
