"""Standalone SVG rendering of circle images.

Output is a self-contained SVG 1.1 document with one path per circle image,
an auto-fitted viewBox with 5% margin and a radius label per curve.  The
emitter is a pure function of its input, so repeated runs produce
byte-identical files.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from typing import IO

import numpy as np

from .errors import DomainError
from .geometry import CirclePolyline

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def render_svg(polylines: Sequence[CirclePolyline]) -> str:
    """Render circle images to SVG text (deterministic for fixed input)."""
    if len(polylines) == 0:
        raise DomainError("need at least one polyline to render")

    xs = np.concatenate([p.points.real for p in polylines])
    ys = np.concatenate([-p.points.imag for p in polylines])  # SVG y grows downward
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    span = max(x1 - x0, y1 - y0, 1e-9)
    pad = 0.05 * span
    vb = (x0 - pad, y0 - pad, (x1 - x0) + 2 * pad, (y1 - y0) + 2 * pad)

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="480" height="480" '
        f'viewBox="{_fmt(vb[0])} {_fmt(vb[1])} {_fmt(vb[2])} {_fmt(vb[3])}">',
    ]
    stroke_width = _fmt(0.006 * span)
    font_size = _fmt(0.04 * span)
    for i, poly in enumerate(polylines):
        color = _PALETTE[i % len(_PALETTE)]
        # formatting Python floats from tolist makes no numpy scalar per point
        coords = map("{:.6g},{:.6g}".format, poly.points.real.tolist(), (-poly.points.imag).tolist())
        d = "M " + " L ".join(coords) + " Z"
        lines.append(
            f'<path d="{d}" fill="none" stroke="{color}" stroke-width="{stroke_width}"/>'
        )
        lx, ly = poly.points[0].real, -poly.points[0].imag
        lines.append(
            f'<text x="{_fmt(float(lx))}" y="{_fmt(float(ly))}" font-size="{font_size}" '
            f'fill="{color}">r={poly.radius:g}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def emit_svg(polylines: Sequence[CirclePolyline], path: str | os.PathLike | IO[str]) -> None:
    """Write the rendered SVG to a path or stream, with path context on I/O errors."""
    text = render_svg(polylines)
    if hasattr(path, "write"):
        path.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise OSError(f"cannot write SVG to {path}: {e}") from e
