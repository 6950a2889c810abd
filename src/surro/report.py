"""Deterministic report emission: CSV, JSON and a hand-drawn SVG error plot.

All floating-point output goes through a fixed 17-significant-digit format and
all files use bare newlines, so identical runs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np


def fmt(x) -> str:
    """17-significant-digit decimal form of a finite float."""
    v = float(x)
    if not math.isfinite(v):
        raise ValueError(f"non-finite value {v!r} cannot be serialized")
    return format(v, ".17g")


def _json_value(obj, indent: int) -> str:
    pad = " " * indent
    inner = " " * (indent + 2)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt(obj)
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, np.ndarray):
        return _json_value(obj.tolist(), indent)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [inner + _json_value(v, indent + 2) for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{inner}{_json_value(str(k), 0)}: {_json_value(v, indent + 2)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    """JSON text with fixed float formatting and '\\n' line endings."""
    return _json_value(obj, 0) + "\n"


def write_text(path, text: str) -> Path:
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with open(p, "w", newline="\n") as fh:
        fh.write(text)
    return p


def write_csv(path, header: list[str], rows: list[list[str]]) -> Path:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return write_text(path, "\n".join(lines) + "\n")


def svg_log_error_plot(errors, rho_sup: float | None, title: str = "") -> str:
    """Log10-error polyline with a reference line at the theoretical slope.

    Pure string assembly; axis ticks sit at integer decades on the error axis.
    """
    e = np.asarray(errors, dtype=float)
    mask = e > 0
    xs = np.nonzero(mask)[0]
    ys = np.log10(e[mask])
    width, height, ml, mr, mt, mb = 640, 420, 60, 20, 30, 40
    if xs.size == 0:
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">'
            "<text x='20' y='30'>no positive errors to plot</text></svg>"
        )

    x_lo, x_hi = 0.0, float(max(xs.max(), 1))
    y_lo = math.floor(float(ys.min()))
    y_hi = math.ceil(float(ys.max()) + 1e-9)  # > y_lo, also for a flat series on a decade

    def sx(x):
        return ml + (x - x_lo) / (x_hi - x_lo) * (width - ml - mr)

    def sy(y):
        return mt + (y_hi - y) / (y_hi - y_lo) * (height - mt - mb)

    # XML-escaped by hand: xml.sax.saxutils would load urllib (~3 MB) into every run
    title = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{ml}" y="18" font-family="monospace" font-size="13">{title}</text>',
        f'<line x1="{ml}" y1="{sy(y_lo):.2f}" x2="{width - mr}" y2="{sy(y_lo):.2f}" '
        'stroke="black"/>',
        f'<line x1="{ml}" y1="{sy(y_lo):.2f}" x2="{ml}" y2="{sy(y_hi):.2f}" stroke="black"/>',
    ]
    for decade in range(y_lo, y_hi + 1):
        yy = sy(decade)
        parts.append(
            f'<line x1="{ml - 4}" y1="{yy:.2f}" x2="{ml}" y2="{yy:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{ml - 8}" y="{yy + 4:.2f}" text-anchor="end" font-family="monospace" '
            f'font-size="11">1e{decade}</text>'
        )
    n_ticks = min(6, int(x_hi) + 1)
    step = max(1, int(round(x_hi / max(n_ticks - 1, 1))))
    for x in range(0, int(x_hi) + 1, step):
        xx = sx(x)
        parts.append(
            f'<line x1="{xx:.2f}" y1="{sy(y_lo):.2f}" x2="{xx:.2f}" y2="{sy(y_lo) + 4:.2f}" '
            'stroke="black"/>'
        )
        parts.append(
            f'<text x="{xx:.2f}" y="{sy(y_lo) + 16:.2f}" text-anchor="middle" '
            f'font-family="monospace" font-size="11">{x}</text>'
        )

    pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
    parts.append(f'<polyline points="{pts}" fill="none" stroke="#1f77b4" stroke-width="1.5"/>')

    if rho_sup is not None and rho_sup > 0:
        slope = math.log10(rho_sup)
        x0, y0 = float(xs[0]), float(ys[0])
        x1 = x_hi
        y1 = y0 + slope * (x1 - x0)
        y1 = max(y1, y_lo)
        x1 = x0 + (y1 - y0) / slope if slope != 0 else x1
        parts.append(
            f'<line x1="{sx(x0):.2f}" y1="{sy(y0):.2f}" x2="{sx(x1):.2f}" y2="{sy(y1):.2f}" '
            'stroke="#d62728" stroke-dasharray="6,4"/>'
        )
        parts.append(
            f'<text x="{width - mr}" y="{mt + 14}" text-anchor="end" font-family="monospace" '
            f'font-size="11" fill="#d62728">reference rate {rho_sup:.6g}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
