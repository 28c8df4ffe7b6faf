"""SVG drawings of configurations.

Pure text generation: identical inputs yield identical bytes.  Numbers
are printed with six fixed decimals and the y axis is flipped so that
counter-clockwise in the plane is counter-clockwise on screen.
"""
from __future__ import annotations

import math
from array import array
from collections.abc import Iterator
from dataclasses import dataclass

from .cyclotomic import _embed, _unit_circle, to_cartesian
from .glp import Labeling, Verdict, _labels_by_id
from .model import FractalSpec, _vertex_ids

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
    """What `render_svg` draws, and how: `scale` screen units per plane unit,
    finite and positive, and a finite `margin`, in plane units, around the
    vertices on each side.  A negative margin crops the drawing; one that
    leaves it no width or height is refused by `render_svg`."""

    show_labels: bool = False
    show_classes: bool = False
    show_slices: bool = False
    highlight_cycle: tuple[int, ...] | None = None
    scale: float = 60.0
    margin: float = 0.5

    def __post_init__(self) -> None:
        if not 0 < self.scale < math.inf:
            raise ValueError("scale must be finite and positive")
        if not math.isfinite(self.margin):
            raise ValueError("margin must be finite")


def _polygon(k: int, barycenter: tuple[int, ...]) -> tuple[list[float], list[float]]:
    """The x and y of the float vertices barycenter + zeta^j, j = 0..k-1,
    bit-identical to `_embed` with one added at index j: it adds nonzero terms in
    index order, so the terms below j are summed once and each vertex adds its own
    and the nonzero ones above."""
    circle = _unit_circle(k)
    terms = [(c * cos, c * sin) for c, (cos, sin) in zip(barycenter, circle) if c]
    xs = []
    ys = []
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
        xs.append(vx)
        ys.append(vy)
    return xs, ys


def _vertex_points(spec: FractalSpec) -> tuple[array, array]:
    """The x and y of vertex j of cell i at [i * k + j], summed by `_polygon`,
    in two flat float arrays."""
    xs, ys = array("d"), array("d")
    for cell in spec.cells:
        px, py = _polygon(spec.k, cell.barycenter.coeffs)
        xs.extend(px)
        ys.extend(py)
    return xs, ys


def _label_glyphs(
    spec: FractalSpec, xs: array, ys: array, labeling: Labeling, xmin: float, ymax: float, scale: float
) -> Iterator[list[float | str]]:
    """Per cell, the screen row x, y, text of each glyph: one per labeled
    point first seen on that cell, nudged 0.22 outward from the cell's
    center and mapped to the screen where it is placed, as every point is;
    `xs` and `ys` are `_vertex_points`.

    Points are told apart by vertex id (`_vertex_ids`), so no vertex value
    is built; ids are numbered as first seen in cell order, so a point is
    new exactly where its id is the count of ids seen before.  Labels are
    residues mod k, and each one's text is built once per render: a letter
    for k <= 26, else the number.  A vertex is within 2^-8.4 of distance 1
    from its cell's center (see `_NEAR`), so the nudge never divides by 0.
    """
    k = spec.k
    texts = [chr(ord("A") + lab) if k <= 26 else str(lab) for lab in range(k)]
    labels = _labels_by_id(spec, labeling)
    ids, _ = _vertex_ids(spec)
    seen = 0
    for i, cell in enumerate(spec.cells):
        cx, cy = to_cartesian(cell.barycenter)
        row: list[float | str] = []
        for s in range(i * k, (i + 1) * k):
            v = ids[s]
            if v != seen:
                continue
            seen += 1
            lab = labels[v]
            if lab is not None:
                x, y = xs[s], ys[s]
                dx, dy = x - cx, y - cy
                norm = math.hypot(dx, dy)
                row += ((x + 0.22 * dx / norm - xmin) * scale,
                        (ymax - (y + 0.22 * dy / norm)) * scale, texts[lab])
        yield row


def _put(out: bytearray, block: str) -> None:
    """Append a block of lines of %.6f numbers, and a newline, with every
    minus zero printed as 0.000000: a negative number that rounds to zero
    prints as -0.000000, and no other number contains that text."""
    out += block.replace("-0.000000", "0.000000").encode()
    out += b"\n"


def render_svg(
    spec: FractalSpec,
    verdict: Verdict | None = None,
    options: RenderOptions | None = None,
) -> str:
    """One polygon per cell, vertex dots, optional labels/classes/slices/witness.

    The vertices are embedded once into two flat float arrays and mapped to
    the screen once; each cell's polygon, dots and glyphs are printed by one
    template each, straight into one byte buffer that is decoded at the end,
    so no list of element strings is kept beside the text.
    """
    opt = options or RenderOptions()
    k = spec.k
    labeling = (
        verdict.labeling if (opt.show_labels and verdict is not None and verdict.glp) else None
    )
    xs, ys = _vertex_points(spec)
    xmin, xmax = min(xs) - opt.margin, max(xs) + opt.margin
    ymin, ymax = min(ys) - opt.margin, max(ys) + opt.margin
    scale = opt.scale
    width = (xmax - xmin) * scale
    height = (ymax - ymin) * scale
    if not (0 < width < math.inf and 0 < height < math.inf):
        raise ValueError(f"margin {opt.margin} and scale {scale} leave a {width} x {height} drawing")

    out = bytearray()
    _put(out, '<?xml version="1.0" encoding="UTF-8" standalone="no"?>')
    _put(out, (
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'width="%.6f" height="%.6f" viewBox="0 0 %.6f %.6f">' % (width, height, width, height)
    ))

    cycle = opt.highlight_cycle or (
        verdict.witness if verdict is not None and not verdict.glp else None
    )
    highlight = set(cycle or ())

    classes = verdict.classes if (opt.show_classes and verdict is not None) else None

    polygon = (
        f'<polygon points="{" ".join(["%.6f,%.6f"] * k)}" '
        f'fill="%s" stroke="%s" stroke-width="%s"/>'
    )
    screen = array("d")  # x0, y0, x1, y1, ... of every vertex, mapped like every point
    for cell in spec.cells:
        lo, hi = cell.index * k, (cell.index + 1) * k
        row = [0.0] * (2 * k)
        row[0::2] = [(x - xmin) * scale for x in xs[lo:hi]]
        row[1::2] = [(ymax - y) * scale for y in ys[lo:hi]]
        screen.extend(row)
        fill = _FILL
        if classes is not None and classes.get(cell.index) == 2:
            fill = _FILL_ALT
        stroke = "red" if cell.index in highlight else "black"
        stroke_w = "2.5" if cell.index in highlight else "1"
        _put(out, polygon % (*row, fill, stroke, stroke_w))

    if opt.show_slices:
        # the column sums of the barycenters' coefficients, as Python ints
        total = tuple(sum(col) for col in zip(*(cell.barycenter.coeffs for cell in spec.cells)))
        bx, by = _embed(k, total)
        bx, by = bx / spec.n, by / spec.n
        reach = max(math.hypot(x - bx, y - by) for x, y in zip(xs, ys)) + opt.margin
        x1, y1 = (bx - xmin) * scale, (ymax - by) * scale
        for cos, sin in _unit_circle(k):
            ex, ey = bx + reach * cos, by + reach * sin
            _put(out, _RAY % (x1, y1, (ex - xmin) * scale, (ymax - ey) * scale))

    if cycle:
        row = []
        for i in (*cycle, cycle[0]):
            x, y = to_cartesian(spec.cells[i].barycenter)
            row += ((x - xmin) * scale, (ymax - y) * scale)
        pts = " ".join(["%.6f,%.6f"] * (len(cycle) + 1))
        _put(out, f'<polyline points="{pts}" fill="none" stroke="red" stroke-width="2"/>' % tuple(row))

    # one dot per cell vertex (shared points coincide), then the labels
    dot_block = "\n".join([_DOT] * k)
    for start in range(0, len(screen), 2 * k):
        _put(out, dot_block % tuple(screen[start:start + 2 * k]))
    if labeling is not None:
        glyph_blocks = ["\n".join([_GLYPH] * count) for count in range(k + 1)]
        for row in _label_glyphs(spec, xs, ys, labeling, xmin, ymax, scale):
            if row:
                _put(out, glyph_blocks[len(row) // 3] % tuple(row))

    if classes is not None:
        for cell in spec.cells:
            x, y = to_cartesian(cell.barycenter)
            label = classes.get(cell.index, "?")
            _put(out, _CLASS % ((x - xmin) * scale, (ymax - y) * scale, label))

    _put(out, "</svg>")
    return out.decode()
