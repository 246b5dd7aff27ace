"""Judge two result files by each end-to-end metric's direction and bound.

One row per workload × metric, verdict ``same`` / ``better`` / ``worse``
/ ``unresolved``.  A pairing whose run-to-run spread (the wider of the
two sets' inter-quartile ranges, as a share of A's median) exceeds the
bound is ``unresolved``, not ``same`` — unless every rep of one side
reads better than every rep of the other.  This is also how two sets of
runs of the same code are shown to agree.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from benchmarks.perf import spec

EXIT_REGRESSION = 4
_BLOCKING = ("worse", "unresolved")


def verdict(metric: spec.Metric, a: Dict[str, Any],
            b: Dict[str, Any]) -> Tuple[str, float]:
    """(verdict, worsening) of B against A; worsening > 0 is worse."""
    sign = 1.0 if metric.better == "lower" else -1.0
    worsening = sign * (b["value"] - a["value"]) / abs(a["value"])
    spread = max(a["q3"] - a["q1"], b["q3"] - b["q1"]) / abs(a["median"])
    if spread > metric.bound:
        a_runs = [sign * v for v in a["samples"]]
        b_runs = [sign * v for v in b["samples"]]
        if max(b_runs) < min(a_runs):
            return "better", worsening
        if min(b_runs) > max(a_runs) and worsening > metric.bound:
            return "worse", worsening
        return "unresolved", worsening
    if worsening > metric.bound:
        return "worse", worsening
    if worsening < -metric.bound:
        return "better", worsening
    return "same", worsening


def compare(doc_a: Dict[str, Any], doc_b: Dict[str, Any]) -> List[Dict]:
    rows: List[Dict[str, Any]] = []
    for name, a in doc_a["workloads"].items():
        b = doc_b["workloads"].get(name)
        if b is None:
            continue
        for metric in spec.END_TO_END:
            if metric.name not in a["metrics"] or metric.name not in b["metrics"]:
                rows.append({"workload": name, "metric": metric.name,
                             "verdict": "unresolved", "a": None, "b": None,
                             "worsening": 0.0})
                continue
            ma, mb = a["metrics"][metric.name], b["metrics"][metric.name]
            kind, worsening = verdict(metric, ma, mb)
            rows.append({"workload": name, "metric": metric.name,
                         "a": ma["value"], "b": mb["value"],
                         "worsening": worsening, "verdict": kind})
        # Absolute bound of 0: any more failures is worse.
        fa, fb = a["fail_share"], b["fail_share"]
        rows.append({
            "workload": name, "metric": spec.FAIL_SHARE.name, "a": fa, "b": fb,
            "worsening": fb - fa,
            "verdict": "worse" if fb > fa else "better" if fb < fa else "same",
        })
    return rows


def format_rows(rows: List[Dict[str, Any]]) -> str:
    lines = [f"{'workload':22} {'metric':16} {'A':>12} {'B':>12} "
             f"{'worse by':>9}  verdict"]
    for row in rows:
        a = "-" if row["a"] is None else f"{row['a']:.6g}"
        b = "-" if row["b"] is None else f"{row['b']:.6g}"
        lines.append(
            f"{row['workload']:22} {row['metric']:16} {a:>12} {b:>12} "
            f"{row['worsening']:>+9.2%}  {row['verdict']}")
    blocking = sum(row["verdict"] in _BLOCKING for row in rows)
    lines.append(f"{len(rows)} rows, {blocking} worse or unresolved")
    return "\n".join(lines)


def exit_code(rows: List[Dict[str, Any]]) -> int:
    blocking = any(row["verdict"] in _BLOCKING for row in rows)
    return EXIT_REGRESSION if blocking else 0
