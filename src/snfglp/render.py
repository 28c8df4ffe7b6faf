"""SVG drawings of configurations.

Pure text generation: identical inputs yield identical bytes.  Numbers
are printed with six fixed decimals and the y axis is flipped so that
counter-clockwise in the plane is counter-clockwise on screen.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import repeat

from .cyclotomic import _embed, _unit_circle, to_cartesian
from .glp import Labeling, Verdict, _labels_by_key
from .model import FractalSpec, _vertex_keys

_FILL = "#d3d3d3"
_FILL_ALT = "#a9a9a9"
_DOT = '<circle cx="%.6f" cy="%.6f" r="2.5" fill="black"/>'
_GLYPH = (
    '<text x="%.6f" y="%.6f" font-family="sans-serif" '
    'font-size="12" text-anchor="middle" dominant-baseline="middle">%s</text>'
)
_CLASS = _GLYPH.replace('font-size="12"', 'font-size="14"')
_RAY = (
    '<line x1="%.6f" y1="%.6f" x2="%.6f" y2="%.6f" '
    'stroke="black" stroke-width="0.7" stroke-dasharray="6,4"/>'
)


@dataclass(frozen=True)
class RenderOptions:
    show_labels: bool = False
    show_classes: bool = False
    show_slices: bool = False
    highlight_cycle: tuple[int, ...] | None = None
    scale: float = 60.0
    margin: float = 0.5

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError("scale must be positive")


def _label_text(lab: int, k: int) -> str:
    return chr(ord("A") + lab) if k <= 26 else str(lab)


def _polygon(k: int, barycenter: tuple[int, ...]) -> list[tuple[float, float]]:
    """The float vertices barycenter + zeta^j, j = 0..k-1, bit-identical to `_embed`
    with one added at index j: it adds nonzero terms in index order, so the terms
    below j are summed once and each vertex adds its own and the nonzero ones above."""
    circle = _unit_circle(k)
    terms = [(c * cos, c * sin) for c, (cos, sin) in zip(barycenter, circle) if c]
    poly = []
    x = y = 0.0  # the nonzero terms below index j, popped from terms
    for c, (cos, sin) in zip(barycenter, circle):
        vx, vy = x, y
        if c + 1:
            vx += (c + 1) * cos
            vy += (c + 1) * sin
        if c:
            tx, ty = terms.pop(0)
            x += tx
            y += ty
        for tx, ty in terms:
            vx += tx
            vy += ty
        poly.append((vx, vy))
    return poly


def _label_glyphs(
    spec: FractalSpec, polys: list[list[tuple[float, float]]], labeling: Labeling
) -> Iterator[list[tuple[float, float, str]]]:
    """Per cell, one glyph per labeled point first seen on that cell, nudged
    outward from the cell's center.

    Points are told apart by vertex key (`_vertex_keys`), so no vertex value
    is built; the seen set dies with the iterator.
    """
    k = spec.k
    labels = _labels_by_key(labeling, k)
    seen: set[tuple[int, ...]] = set()
    for cell, poly, keys in zip(spec.cells, polys, _vertex_keys(spec)):
        cx, cy = to_cartesian(cell.barycenter)
        glyphs = []
        for key, (x, y) in zip(keys, poly):
            if key in seen:
                continue
            seen.add(key)
            lab = labels.get(key)
            if lab is not None:
                dx, dy = x - cx, y - cy
                norm = math.hypot(dx, dy) or 1.0
                glyphs.append((x + 0.22 * dx / norm, y + 0.22 * dy / norm, _label_text(lab, k)))
        yield glyphs


def _printed(block: str) -> str:
    """A block of %.6f numbers with every minus zero printed as 0.000000: a
    negative number that rounds to zero prints as -0.000000, and no other
    number contains that text."""
    return block.replace("-0.000000", "0.000000")


def render_svg(
    spec: FractalSpec,
    verdict: Verdict | None = None,
    options: RenderOptions | None = None,
) -> str:
    """One polygon per cell, vertex dots, optional labels/classes/slices/witness.

    Each cell's vertices are mapped to the screen once and printed by one
    template for its polygon, one for its dots and one for its glyphs.
    """
    opt = options or RenderOptions()
    k = spec.k
    labeling = (
        verdict.labeling if (opt.show_labels and verdict is not None and verdict.glp) else None
    )
    polys = [_polygon(k, cell.barycenter.coeffs) for cell in spec.cells]
    xs = [x for poly in polys for x, _ in poly]
    ys = [y for poly in polys for _, y in poly]
    xmin, xmax = min(xs) - opt.margin, max(xs) + opt.margin
    ymin, ymax = min(ys) - opt.margin, max(ys) + opt.margin
    scale = opt.scale
    width = (xmax - xmin) * scale
    height = (ymax - ymin) * scale

    out: list[str] = []
    out.append('<?xml version="1.0" encoding="UTF-8" standalone="no"?>')
    out.append(_printed(
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'width="%.6f" height="%.6f" viewBox="0 0 %.6f %.6f">' % (width, height, width, height)
    ))

    highlight = set(opt.highlight_cycle or ())
    if not highlight and verdict is not None and not verdict.glp and verdict.witness:
        highlight = set(verdict.witness)

    classes = verdict.classes if (opt.show_classes and verdict is not None) else None

    polygon = (
        f'<polygon points="{" ".join(["%.6f,%.6f"] * k)}" '
        f'fill="%s" stroke="%s" stroke-width="%s"/>'
    )
    dot_block = "\n".join([_DOT] * k)
    glyph_blocks = ["\n".join([_GLYPH] * count) for count in range(k + 1)]
    dots: list[str] = []
    texts: list[str] = []
    glyph_rows = repeat(()) if labeling is None else _label_glyphs(spec, polys, labeling)
    for cell, poly, glyphs in zip(spec.cells, polys, glyph_rows):
        screen = [0.0] * (2 * k)  # x0, y0, x1, y1, ... mapped like every point
        screen[0::2] = [(x - xmin) * scale for x, _ in poly]
        screen[1::2] = [(ymax - y) * scale for _, y in poly]
        fill = _FILL
        if classes is not None and classes.get(cell.index) == 2:
            fill = _FILL_ALT
        stroke = "red" if cell.index in highlight else "black"
        stroke_w = "2.5" if cell.index in highlight else "1"
        out.append(_printed(polygon % (*screen, fill, stroke, stroke_w)))
        dots.append(_printed(dot_block % tuple(screen)))
        if glyphs:
            row = [v for x, y, text in glyphs for v in ((x - xmin) * scale, (ymax - y) * scale, text)]
            texts.append(_printed(glyph_blocks[len(glyphs)] % tuple(row)))

    if opt.show_slices:
        # the column sums of the barycenters' coefficients, as Python ints
        total = tuple(sum(col) for col in zip(*(cell.barycenter.coeffs for cell in spec.cells)))
        bx, by = _embed(k, total)
        bx, by = bx / spec.n, by / spec.n
        reach = max(math.hypot(x - bx, y - by) for poly in polys for x, y in poly) + opt.margin
        x1, y1 = (bx - xmin) * scale, (ymax - by) * scale
        for j in range(k):
            ang = 2.0 * math.pi * j / k
            ex, ey = bx + reach * math.cos(ang), by + reach * math.sin(ang)
            out.append(_printed(_RAY % (x1, y1, (ex - xmin) * scale, (ymax - ey) * scale)))

    cycle = opt.highlight_cycle or (
        verdict.witness if verdict is not None and not verdict.glp else None
    )
    if cycle:
        row = []
        for i in (*cycle, cycle[0]):
            x, y = to_cartesian(spec.cells[i].barycenter)
            row += ((x - xmin) * scale, (ymax - y) * scale)
        pts = " ".join(["%.6f,%.6f"] * (len(cycle) + 1))
        out.append(_printed(
            f'<polyline points="{pts}" fill="none" stroke="red" stroke-width="2"/>' % tuple(row)
        ))

    # one dot per cell vertex (shared points coincide), then the labels
    out += dots
    out += texts

    if classes is not None:
        for cell in spec.cells:
            x, y = to_cartesian(cell.barycenter)
            label = classes.get(cell.index, "?")
            out.append(_printed(_CLASS % ((x - xmin) * scale, (ymax - y) * scale, label)))

    out.append("</svg>")
    return "\n".join(out) + "\n"
