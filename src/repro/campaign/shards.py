"""Shard-level result checkpoints: one durable JSON file per cell.

A shard is the unit of campaign recovery: once a cell's result is in a
shard (atomic rename + fsync, payload checksummed), the cell never runs
again — not after ``kill -9``, not after a corrupted journal, not after
the cache is wiped.  Conversely a shard that fails its checksum is
quarantined (renamed to ``*.corrupt``) and the cell transparently
re-executes, exactly like the result cache's envelope handling.

Shard payloads are *canonical*: the value JSON is serialised with sorted
keys and fixed separators, and nothing wall-clock-dependent is stored
(cost accounting lives in the journal).  That is what makes the merged
campaign output byte-identical whether the sweep ran straight through
or was killed and resumed five times.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple, Union

from repro.runner.atomicio import atomic_write_text
from repro.telemetry.logutil import get_logger

__all__ = [
    "ShardCorrupt",
    "shard_path",
    "write_shard",
    "read_shard",
    "quarantine_shard",
    "scan_shards",
]

log = get_logger("repro.campaign")

#: On-disk shard format version.
_FORMAT = 1

#: Suffix for quarantined (checksum-failed) shards.
_CORRUPT_SUFFIX = ".corrupt"


class ShardCorrupt(ValueError):
    """A shard file exists but cannot be trusted (torn/corrupt/foreign)."""


def _value_sha(value: Any) -> str:
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def shard_path(shard_dir: Union[str, os.PathLike], cell_index: int) -> Path:
    return Path(shard_dir) / f"cell-{cell_index:06d}.json"


def write_shard(
    shard_dir: Union[str, os.PathLike],
    cell_index: int,
    key: Dict[str, Any],
    rep: int,
    seed: int,
    value: Any,
) -> Tuple[Path, str]:
    """Durably checkpoint one cell's result; returns (path, value sha).

    The value must be JSON-serialisable (campaign cell functions return
    plain dicts).  Raises ``OSError`` on IO failure — the engine treats
    that as a retryable ``io`` failure class, *not* as a committed cell.
    """
    path = shard_path(shard_dir, cell_index)
    sha = _value_sha(value)
    payload = {
        "format": _FORMAT,
        "cell": cell_index,
        "key": key,
        "rep": rep,
        "seed": seed,
        "sha256": sha,
        "value": value,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_text(
        path, json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    )
    return path, sha


def read_shard(path: Union[str, os.PathLike]) -> Dict[str, Any]:
    """Load and verify one shard; raises :class:`ShardCorrupt` on damage."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ShardCorrupt(f"{path}: unreadable ({exc})") from exc
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise ShardCorrupt(f"{path}: not valid JSON ({exc})") from exc
    if (
        not isinstance(payload, dict)
        or payload.get("format") != _FORMAT
        or "value" not in payload
        or not isinstance(payload.get("cell"), int)
    ):
        raise ShardCorrupt(f"{path}: not a campaign shard")
    if _value_sha(payload["value"]) != payload.get("sha256"):
        raise ShardCorrupt(f"{path}: value checksum mismatch")
    return payload


def quarantine_shard(path: Union[str, os.PathLike]) -> Optional[Path]:
    """Move a corrupt shard aside; returns the quarantine path."""
    path = Path(path)
    target = path.with_suffix(path.suffix + _CORRUPT_SUFFIX)
    try:
        os.replace(path, target)
    except OSError:
        return None
    log.warning(
        "shard %s failed verification; quarantined to %s and the cell "
        "will re-execute", path.name, target.name,
    )
    return target


def scan_shards(
    shard_dir: Union[str, os.PathLike],
) -> Iterator[Tuple[int, Path, Dict[str, Any]]]:
    """Yield ``(cell_index, path, payload)`` for every *valid* shard.

    Corrupt or truncated shards are quarantined as they are found, so a
    single scan both inventories the recoverable state and clears the
    way for those cells to re-execute.  Yields in cell-index order.
    """
    root = Path(shard_dir)
    try:
        names = sorted(os.listdir(root))
    except OSError:
        return
    for name in names:
        if not name.endswith(".json") or not name.startswith("cell-"):
            continue
        path = root / name
        try:
            payload = read_shard(path)
        except ShardCorrupt as exc:
            log.warning("%s", exc)
            quarantine_shard(path)
            continue
        yield payload["cell"], path, payload
