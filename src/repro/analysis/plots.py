"""Dependency-free text bar charts (the latency waterfall uses them).

The offline environment has no plotting stack, so shapes are rendered as
unicode text.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["text_bars"]

_BLOCKS = " ▏▎▍▌▋▊▉█"


def _bar(fraction: float, width: int) -> str:
    """A horizontal bar of ``fraction * width`` character cells."""
    fraction = max(0.0, min(1.0, fraction))
    cells = fraction * width
    full = int(cells)
    remainder = cells - full
    partial = _BLOCKS[int(remainder * (len(_BLOCKS) - 1))] if full < width else ""
    return "█" * full + partial


def text_bars(
    values: Dict[str, float],
    width: int = 50,
    unit: str = "",
    max_value: float | None = None,
) -> str:
    """Render a labelled bar chart (one row per key)."""
    if not values:
        return "(no data)"
    top = max_value if max_value is not None else max(values.values())
    if top <= 0:
        top = 1.0
    label_width = max(len(k) for k in values)
    lines = []
    for key, value in values.items():
        lines.append(
            f"  {key:>{label_width}} {value:10.2f}{unit} "
            f"|{_bar(value / top, width)}"
        )
    return "\n".join(lines)
