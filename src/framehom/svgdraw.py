"""Deterministic SVG 1.1 diagrams of frameworks and their stress/mechanism data.

Layout is a pure function of the vertex coordinates: positions are scaled
into a fixed canvas, arrows are normalized so the largest resultant has a
fixed pixel length, and numeric annotations are printed to four
significant digits.
"""

from __future__ import annotations

import math
from decimal import Decimal

from .framework import Framework

CANVAS = 640.0
MARGIN = 80.0
ARROW_PX = 60.0      # pixel length of the largest vertex resultant
VERTEX_R = 5.0


def _project(p) -> tuple[float, float]:
    if len(p) == 2:
        return float(p[0]), float(p[1])
    # fixed axonometric projection for spatial frameworks
    x, y, z = (float(c) for c in p)
    return x - 0.45 * z, y - 0.25 * z


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def scaled_floats(vectors) -> tuple[list[list[float]], int]:
    """(the re-iterable ``vectors`` times 2**-s as float lists, s): s = 0 when
    every entry is a float's, else it brings the largest exact entry near 2**1000."""
    try:
        return [[float(x) for x in v] for v in vectors], 0
    except OverflowError:
        s = max(abs(x).numerator.bit_length() - x.denominator.bit_length()
                for v in vectors for x in v) - 1000
        return [[float(x / (1 << s)) for x in v] for v in vectors], s


def value_text(x: float, shift: int) -> str:
    """x * 2**shift to four significant digits, printed as a float would be."""
    try:
        return f"{math.ldexp(x, shift):.4g}"
    except OverflowError:
        return f"{Decimal(f'{Decimal(x) * 2 ** shift:.4g}').normalize():e}"


def _layout(f: Framework) -> list[tuple[float, float]]:
    """Canvas point of each vertex.  The layout is the same at any common
    scale of the coordinates, so it reads them through ``scaled_floats``:
    as floats, unless one is past float range."""
    pts = [_project(p) for p in scaled_floats(f.positions)[0]]
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    w = max(xs) - min(xs)
    h = max(ys) - min(ys)
    scale = (CANVAS - 2 * MARGIN) / max(w, h, 1e-9)
    x0, y0 = min(xs), min(ys)
    return [(MARGIN + (x - x0) * scale, CANVAS - MARGIN - (y - y0) * scale) for x, y in pts]


def render_svg(f: Framework, *, title: str = "",
               edge_texts: dict | None = None,
               vertex_arrows: dict | None = None,
               show_values: bool = True) -> str:
    """Draw the framework with optional per-edge labels and vertex arrows.

    ``edge_texts`` maps edge index -> annotation string; ``vertex_arrows``
    maps vertex id -> force vector (any dimension matching the framework).
    """
    xy = _layout(f)
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(CANVAS)}" height="{_fmt(CANVAS)}" '
        f'viewBox="0 0 {_fmt(CANVAS)} {_fmt(CANVAS)}">',
        '<defs><marker id="arrow" viewBox="0 0 10 10" refX="9" refY="5" '
        'markerWidth="7" markerHeight="7" orient="auto-start-reverse">'
        '<path d="M 0 0 L 10 5 L 0 10 z" fill="green"/></marker></defs>',
        f'<rect width="{_fmt(CANVAS)}" height="{_fmt(CANVAS)}" fill="white"/>',
    ]
    if title:
        out.append(f'<text x="{_fmt(CANVAS / 2)}" y="28" font-size="16" '
                   f'text-anchor="middle" font-family="monospace">{title}</text>')
    for k, (t, h) in enumerate(f.edges):
        x1, y1 = xy[t]
        x2, y2 = xy[h]
        out.append(f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
                   'stroke="black" stroke-width="2"/>')
        if show_values and edge_texts and k in edge_texts:
            mx, my = (x1 + x2) / 2, (y1 + y2) / 2
            out.append(f'<text x="{_fmt(mx)}" y="{_fmt(my - 6)}" font-size="12" '
                       f'text-anchor="middle" font-family="monospace" fill="darkblue">'
                       f'{edge_texts[k]}</text>')
    arrow_scale = 0.0
    if vertex_arrows:
        vecs, shift = scaled_floats(vertex_arrows.values())
        longest = max(math.hypot(*vec) for vec in vecs)
        if longest > 0:
            arrow_scale = ARROW_PX / longest
    if vertex_arrows and arrow_scale:
        for v, vec in sorted(zip(vertex_arrows, vecs)):
            norm = math.hypot(*vec)
            if norm * arrow_scale < 1e-6:
                continue
            ux, uy = _project(vec)
            plen = math.hypot(ux, uy)
            if plen == 0:
                continue
            x, y = xy[v]
            dx = ux / plen * norm * arrow_scale
            dy = uy / plen * norm * arrow_scale
            out.append(f'<line x1="{_fmt(x)}" y1="{_fmt(y)}" '
                       f'x2="{_fmt(x + dx)}" y2="{_fmt(y - dy)}" stroke="green" '
                       'stroke-width="2.5" marker-end="url(#arrow)"/>')
            if show_values:
                out.append(f'<text x="{_fmt(x + dx + 4)}" y="{_fmt(y - dy - 4)}" '
                           f'font-size="11" font-family="monospace" fill="green">'
                           f'{value_text(norm, shift)}</text>')
    for v, (x, y) in enumerate(xy):
        out.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(VERTEX_R)}" '
                   'fill="white" stroke="black" stroke-width="1.5"/>')
        out.append(f'<text x="{_fmt(x + 8)}" y="{_fmt(y + 12)}" font-size="12" '
                   f'font-family="monospace">{v}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
