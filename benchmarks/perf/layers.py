"""Turn one cProfile run into the per-layer ledger.

Two views of the same ``pstats`` table:

* **self time by layer** — every function is bucketed by its defining
  module (``spec.LAYER_MODULES``); the rest of ``repro`` lands in
  ``other`` and everything else in ``stdlib``.  A builtin or stdlib
  leaf called directly from a ``repro`` function (``heappush``,
  ``list.append``, ``random``) is charged to that caller's layer, using
  the caller edges, so moving work between Python and C inside a layer
  does not move it between buckets.  The buckets sum to the profiled
  total by construction.
* **inclusive time at boundaries** — cumulative time of the named
  public functions, with the caller edges as the "who caused it" link.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from benchmarks.perf.spec import BOUNDARIES, CATCH_ALL, LAYER_MODULES, LAYERS

_MARKER = "/src/repro/"
_LAYER_OF_MODULE = {
    module: layer
    for layer, modules in LAYER_MODULES.items()
    for module in modules
}

FuncKey = Tuple[str, int, str]


def _module(filename: str) -> Optional[str]:
    """Path below ``src/repro/``, or None for a frame outside repro."""
    _head, marker, tail = filename.replace("\\", "/").rpartition(_MARKER)
    return tail if marker else None


def layer_of(filename: str) -> str:
    module = _module(filename)
    if module is None:
        return "stdlib"
    return _LAYER_OF_MODULE.get(module, "other")


def bucket(stats: Dict[FuncKey, tuple]) -> Dict[str, Dict[str, float]]:
    """``pstats.Stats.stats`` -> {layer: {"self_s", "calls"}}."""
    out = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS + CATCH_ALL}
    for func, (_cc, ncalls, tottime, _ct, callers) in stats.items():
        layer = layer_of(func[0])
        out[layer]["calls"] += ncalls
        if layer != "stdlib":
            out[layer]["self_s"] += tottime
            continue
        charged = 0.0
        for caller, (_ccc, _cnc, edge_tottime, _cct) in callers.items():
            caller_layer = layer_of(caller[0])
            if caller_layer != "stdlib":
                out[caller_layer]["self_s"] += edge_tottime
                charged += edge_tottime
        out["stdlib"]["self_s"] += tottime - charged
    return out


def _matches(func: FuncKey, targets: Tuple[Tuple[str, str], ...]) -> bool:
    return (_module(func[0]), func[2]) in targets


def boundaries(stats: Dict[FuncKey, tuple]) -> Dict[str, Dict[str, Any]]:
    """Inclusive seconds, calls and callers of each boundary function."""
    out: Dict[str, Dict[str, Any]] = {}
    for name, targets in BOUNDARIES.items():
        entry: Dict[str, Any] = {"cum_s": 0.0, "calls": 0, "callers": {}}
        for func, (_cc, ncalls, _tt, cumtime, callers) in stats.items():
            if not _matches(func, targets):
                continue
            entry["cum_s"] += cumtime
            entry["calls"] += ncalls
            for caller, (_ccc, _cnc, _ctt, edge_cumtime) in callers.items():
                module = _module(caller[0]) or caller[0]
                label = f"{module}:{caller[2]}"
                entry["callers"][label] = (
                    entry["callers"].get(label, 0.0) + edge_cumtime
                )
        out[name] = entry
    return out


def calls_to(stats: Dict[FuncKey, tuple], module: str, function: str) -> int:
    """Total calls of ``function`` defined in ``module``."""
    return sum(
        ncalls for func, (_cc, ncalls, *_rest) in stats.items()
        if _matches(func, ((module, function),))
    )
