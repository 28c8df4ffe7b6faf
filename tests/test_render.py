"""SVG output: structure, counts, determinism."""
from __future__ import annotations

import hashlib
import math
import tracemalloc
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snfglp.construct import expand, generate_counterexample, generate_glp_example
from snfglp.cyclotomic import COEFF_LIMIT, CycInt, _embed, to_cartesian, zeta
from snfglp.glp import Labeling, Verdict, decide_glp, decide_glp_even
from snfglp.model import CATALOG_NAMES, catalog, parse, vertices
from snfglp.render import RenderOptions, _label_glyphs, _polygon, _vertex_points, render_svg

NS = "{http://www.w3.org/2000/svg}"


def parsed(svg: str):
    return ET.fromstring(svg)


class TestStructure:
    def test_gasket_labeled_figure(self):
        spec = catalog("sierpinski-gasket")
        verdict = decide_glp(spec)
        svg = render_svg(spec, verdict, RenderOptions(show_labels=True))
        root = parsed(svg)
        polys = root.findall(f"{NS}polygon")
        dots = root.findall(f"{NS}circle")
        texts = [t.text for t in root.findall(f"{NS}text")]
        assert len(polys) == 3
        assert len(dots) == 9  # one dot per cell vertex; shared points coincide
        assert len(texts) == 6  # one letter per distinct vertex
        assert sorted(set(texts)) == ["A", "B", "C"]
        # each cell's vertex letters are a rotation of A,B,C
        for i in range(3):
            r = verdict.labeling.offsets[i]
            assert sorted((j + r) % 3 for j in range(3)) == [0, 1, 2]

    def test_polygon_count_matches_cells(self):
        for name in ("vicsek-cross", "pentagon-ring"):
            spec = catalog(name)
            svg = render_svg(spec)
            assert len(parsed(svg).findall(f"{NS}polygon")) == spec.n

    def test_witness_cycle_highlighted(self):
        spec = catalog("lindstrom-snowflake")
        verdict = decide_glp(spec)
        svg = render_svg(spec, verdict)
        root = parsed(svg)
        polys = root.findall(f"{NS}polygon")
        assert len(polys) == spec.n  # cell polygons only; the loop is a polyline
        reds = [p for p in polys if p.get("stroke") == "red"]
        assert len(reds) == 3
        loop = root.findall(f"{NS}polyline")
        assert len(loop) == 1 and loop[0].get("stroke") == "red"

    def test_classes_two_tone(self):
        spec = catalog("sierpinski-hexagon")
        verdict = decide_glp_even(spec)
        svg = render_svg(spec, verdict, RenderOptions(show_classes=True))
        root = parsed(svg)
        fills = {p.get("fill") for p in root.findall(f"{NS}polygon")}
        assert "#d3d3d3" in fills and "#a9a9a9" in fills
        texts = [t.text for t in root.findall(f"{NS}text")]
        assert texts == ["1", "2", "1", "2", "1", "2"]

    def test_slice_rays(self):
        spec = catalog("sierpinski-hexagon")
        svg = render_svg(spec, None, RenderOptions(show_slices=True))
        root = parsed(svg)
        lines = root.findall(f"{NS}line")
        assert len(lines) == 6
        assert all(l.get("stroke-dasharray") for l in lines)


class TestDiscipline:
    def test_byte_identical_reruns(self):
        spec = catalog("lindstrom-snowflake")
        verdict = decide_glp(spec)
        opts = RenderOptions(show_labels=True, show_slices=True)
        assert render_svg(spec, verdict, opts) == render_svg(spec, verdict, opts)

    def test_fixed_decimals(self):
        svg = render_svg(catalog("sierpinski-gasket"))
        for token in svg.split('"'):
            pass
        # every coordinate has exactly six decimals
        import re

        for m in re.finditer(r'points="([^"]+)"', svg):
            for pair in m.group(1).split():
                for num in pair.split(","):
                    assert re.fullmatch(r"-?\d+\.\d{6}", num), num

    def test_well_formed_for_all_catalog(self):
        for name in ("sierpinski-gasket", "vicsek-cross", "sierpinski-hexagon",
                     "lindstrom-snowflake", "pentagon-ring"):
            spec = catalog(name)
            parsed(render_svg(spec, decide_glp(spec), RenderOptions(
                show_labels=True, show_classes=True, show_slices=True)))

    def test_scale_validation(self):
        for options in ({"scale": 0}, {"scale": -1.0}, {"scale": math.nan}, {"scale": math.inf},
                        {"margin": math.nan}, {"margin": -math.inf}):
            with pytest.raises(ValueError):
                RenderOptions(**options)
        spec = catalog("sierpinski-gasket")
        # the gasket's vertices span 3 by 2 sqrt(3): a margin of -1.6 leaves
        # no width, one of -10 neither width nor height
        for margin in (-1.6, -10.0):
            options = RenderOptions(show_labels=True, margin=margin)
            with pytest.raises(ValueError):
                render_svg(spec, decide_glp(spec), options)


ALL_LAYERS = RenderOptions(show_labels=True, show_classes=True, show_slices=True)


def _verdict(spec):
    """The even decider where it applies, for its two-class division."""
    return decide_glp_even(spec) if spec.k % 2 == 0 else decide_glp(spec)


def _with_labels(verdict, labels):
    labeling = Labeling(verdict.labeling.k, verdict.labeling.offsets, labels)
    return Verdict(glp=True, labeling=labeling, classes=verdict.classes)


def _other_order_entry():
    """The hexagon's labels plus, last, an order-3 point whose canonical key
    equals that of an order-6 vertex, with a label the vertex does not carry."""
    spec = catalog("sierpinski-hexagon")
    verdict = _verdict(spec)
    labels = dict(verdict.labeling.labels)
    vertex = vertices(spec.cells[0])[0]
    key = vertex.canonical_key()
    alias = CycInt(3, key + (0,))
    assert alias.canonical_key() == key
    labels[alias] = (labels[vertex] + 1) % 6
    return spec, _with_labels(verdict, labels)


def _missing_label():
    spec = catalog("vicsek-cross")
    verdict = _verdict(spec)
    labels = dict(verdict.labeling.labels)
    del labels[vertices(spec.cells[2])[1]]
    return spec, _with_labels(verdict, labels)


def _pinned_cases():
    for name in CATALOG_NAMES:
        spec = catalog(name)
        yield name, spec, _verdict(spec)
    for k in (5, 9, 12, 32, 36):
        spec = generate_glp_example(k)
        yield f"glp-example-{k}", spec, _verdict(spec)
    for k in (9, 12, 36):  # 5 is prime and 32 a power of two: no counterexample
        spec = generate_counterexample(k)
        yield f"counterexample-{k}", spec, _verdict(spec)
    yield ("other-order-entry", *_other_order_entry())
    yield ("missing-label", *_missing_label())


# SHA-256 of render_svg(spec, verdict, ALL_LAYERS), computed with the renderer
# that built every cell vertex as a CycInt and looked labels up by value.
PINNED_SHA256 = {
    "sierpinski-gasket": "1f96b5b588da2733d70895c0a6546be620bff5c814ddce81565c8e87e6c8b583",
    "vicsek-cross": "b54221a140cb15fed2eea162a12e1bcc2898eb39f320cb29af091e8f048cd0c3",
    "sierpinski-hexagon": "90872c9431e980b3a674c618bbb26944f36b6a40a94951d76ce0d97d4f8093c6",
    "lindstrom-snowflake": "2bf4f3c333192cf0ce6e2da92af39052a0b0d03eb71ce68004891a199c454180",
    "pentagon-ring": "6ab63bf4676dd5964e599ab22bcdb07a1b6737be839b7f9c26117ec4cb6206ac",
    "glp-example-5": "6ab63bf4676dd5964e599ab22bcdb07a1b6737be839b7f9c26117ec4cb6206ac",
    "glp-example-9": "d9c78bf687bfb1c5fef8981037b40b7b5963b22d1ecfa79d6ed7c3a76c3738f5",
    "glp-example-12": "fce391e4575b6e35ef6ab127bfb0cb665d7e09a979c4539551f00cb78ecb3b73",
    "glp-example-32": "d8fd61306ac5a3ef79eca11c59c37950af3aa0545eb268b67f24bdaf707b02a2",
    "glp-example-36": "c2d6856ed5c1406ae7d67d391dc21b0a0efefb7204a6f1e120907558184fd589",
    "counterexample-9": "c2e3b327598874ff085e5c048ae7d768cfcb75d47cfb727bcfa65382edb31e99",
    "counterexample-12": "413592cf09af4d69c55e8096c9caf56b3f71bbc8045375b97ecb2698a9fe48fc",
    "counterexample-36": "ff4b75a4607022926d26586ab19f2e72ba6039e1d53c53846d9be327f3362be4",
    "other-order-entry": "90872c9431e980b3a674c618bbb26944f36b6a40a94951d76ce0d97d4f8093c6",
    "missing-label": "fd86784bb4dd34de282c1c9b17b71efaa5c20b9f3a4fe166f91a347c31051975",
}


class TestPinnedOutput:
    @pytest.mark.parametrize("case", list(_pinned_cases()), ids=lambda case: case[0])
    def test_sha256_unchanged(self, case):
        name, spec, verdict = case
        svg = render_svg(spec, verdict, ALL_LAYERS)
        assert hashlib.sha256(svg.encode("utf-8")).hexdigest() == PINNED_SHA256[name]

    def test_other_order_entry_is_ignored(self):
        spec, verdict = _other_order_entry()
        assert render_svg(spec, verdict, ALL_LAYERS) == render_svg(spec, _verdict(spec), ALL_LAYERS)

    def test_missing_label_drops_one_glyph(self):
        spec, verdict = _missing_label()
        full = parsed(render_svg(spec, _verdict(spec), RenderOptions(show_labels=True)))
        missing = parsed(render_svg(spec, verdict, RenderOptions(show_labels=True)))
        assert len(missing.findall(f"{NS}text")) == len(full.findall(f"{NS}text")) - 1


class TestMemory:
    def test_peak_stays_near_the_text(self):
        # the text is written into one buffer and decoded once, so what is
        # traced at the peak is about the buffer and the text, with no list
        # of element strings beside them
        spec = expand(generate_glp_example(12), 2)
        verdict = decide_glp(spec)
        options = RenderOptions(show_labels=True)
        render_svg(spec, verdict, options)  # vertex ids, labels and per-k tables are built once
        tracemalloc.start()
        try:
            svg = render_svg(spec, verdict, options)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.3 * len(svg)


class TestCoefficientLimit:
    def test_cell_at_the_limit_renders(self):
        # every vertex b + zeta^j has a coefficient 2^31 + 1, outside COEFF_LIMIT;
        # 1 + zeta + zeta^2 = 0, so b = 0 and vertex j equals zeta^j
        spec = parse("snf k=3 partial\ncell 2147483648 2147483648 2147483648\n")
        labeling = Labeling(3, {0: 0}, {zeta(3, j): j for j in range(3)})
        svg = render_svg(spec, Verdict(glp=True, labeling=labeling), ALL_LAYERS)
        root = parsed(svg)
        assert len(root.findall(f"{NS}polygon")) == 1
        assert len(root.findall(f"{NS}circle")) == 3
        assert sorted(t.text for t in root.findall(f"{NS}text")) == ["A", "B", "C"]

    def test_shifted_gasket_slice_rays(self):
        # every coefficient shifted by 2^30 (1 + zeta + zeta^2 = 0, so the
        # cells are the gasket's): the sum of the barycenters has coefficients
        # past COEFF_LIMIT, and the slice rays are still centred on its mean
        shifted = parse(
            "snf k=3\n"
            "cell 1073741825 1073741824 1073741824\n"
            "cell 1073741824 1073741825 1073741824\n"
            "cell 1073741824 1073741824 1073741825\n"
        )
        plain = catalog("sierpinski-gasket")
        got = parsed(render_svg(shifted, decide_glp(shifted), ALL_LAYERS))
        want = parsed(render_svg(plain, decide_glp(plain), ALL_LAYERS))
        assert [e.tag for e in got] == [e.tag for e in want]
        assert len(got.findall(f"{NS}line")) == 3
        for a, b in zip(got.findall(f"{NS}line"), want.findall(f"{NS}line")):
            for attr in ("x1", "y1", "x2", "y2"):
                assert float(a.get(attr)) == pytest.approx(float(b.get(attr)), abs=1e-3)


@st.composite
def barycenters(draw):
    """k in 3..36 and a coefficient vector with |c| <= 2^31, dense or mostly zero."""
    k = draw(st.integers(3, 36))
    big = st.integers(-COEFF_LIMIT, COEFF_LIMIT)
    small = st.sampled_from((-2, -1, 0, 1, 2))
    if draw(st.booleans()):
        coeffs = st.one_of(big, small)
    else:
        coeffs = st.one_of(st.just(0), st.just(0), st.just(0), st.just(-1), big)
    return k, tuple(draw(st.lists(coeffs, min_size=k, max_size=k)))


class TestPolygon:
    @given(barycenters())
    @settings(max_examples=400, deadline=None)
    def test_matches_embedding_of_each_vertex(self, case):
        k, b = case
        want = [_embed(k, tuple(c + (i == j) for i, c in enumerate(b))) for j in range(k)]
        got = list(zip(*_polygon(k, b)))
        # bit-identical floats, so the SVG text does not move
        assert [tuple(map(float.hex, p)) for p in got] == [tuple(map(float.hex, p)) for p in want]


def _each(v: float) -> str:
    """One number as the renderer printed it one at a time."""
    out = f"{v:.6f}"
    return "0.000000" if out == "-0.000000" else out


class TestBlockFormatting:
    # with a margin in (-5e-7 / scale, 0) the extreme vertices map to screen
    # coordinates in (-5e-7, 0), which %.6f prints as -0.000000
    @pytest.mark.parametrize(
        "name, margin, scale",
        [
            ("sierpinski-gasket", -1e-7, 1.0),
            ("sierpinski-gasket", -4.9e-7, 1.0),
            ("sierpinski-hexagon", -1e-9, 60.0),
            ("pentagon-ring", -2e-7, 1.0),
            ("vicsek-cross", 0.0, 60.0),
        ],
    )
    def test_numbers_print_one_at_a_time(self, name, margin, scale):
        spec = catalog(name)
        verdict = decide_glp(spec)
        svg = render_svg(spec, verdict, RenderOptions(show_labels=True, margin=margin, scale=scale))
        xs, ys = _vertex_points(spec)
        xmin = min(xs) - margin
        ymax = max(ys) + margin
        screen = [((x - xmin) * scale, (ymax - y) * scale) for x, y in zip(xs, ys)]
        assert any(-5e-7 < v < 0 for xy in screen for v in xy) == (margin < 0)
        want = [[_each(x), _each(y)] for x, y in screen]
        root = parsed(svg)
        points = [
            pair.split(",") for p in root.findall(f"{NS}polygon") for pair in p.get("points").split()
        ]
        dots = [[c.get("cx"), c.get("cy")] for c in root.findall(f"{NS}circle")]
        assert points == want and dots == want
        rows = _label_glyphs(spec, xs, ys, verdict.labeling, xmin, ymax, scale)
        glyphs = [v for row in rows for v in row]  # screen x, y, text of each glyph
        texts = [[t.get("x"), t.get("y"), t.text] for t in root.findall(f"{NS}text")]
        assert texts == [
            [_each(x), _each(y), text] for x, y, text in zip(glyphs[0::3], glyphs[1::3], glyphs[2::3])
        ]
        assert "-0.000000" not in svg

    def test_header_rays_witness_and_classes_print_one_at_a_time(self):
        # the margin puts xmin just right of the leftmost barycenter, -2, so its
        # witness point and class label map to x in (-5e-7, 0)
        spec = catalog("vicsek-cross")
        margin, scale, cycle = -(1 + 1e-9), 1.0, (0, 3, 2)
        options = RenderOptions(
            show_classes=True, show_slices=True, highlight_cycle=cycle, margin=margin, scale=scale
        )
        svg = render_svg(spec, decide_glp_even(spec), options)
        xs, ys = _vertex_points(spec)
        xmin, xmax = min(xs) - margin, max(xs) + margin
        ymin, ymax = min(ys) - margin, max(ys) + margin

        def screen(x, y):
            return [_each((x - xmin) * scale), _each((ymax - y) * scale)]

        root = parsed(svg)
        width, height = _each((xmax - xmin) * scale), _each((ymax - ymin) * scale)
        assert [root.get("width"), root.get("height")] == [width, height]
        assert root.get("viewBox") == f"0 0 {width} {height}"
        total = [sum(col) for col in zip(*(c.barycenter.coeffs for c in spec.cells))]
        bx, by = (v / spec.n for v in _embed(spec.k, total))
        reach = max(math.hypot(x - bx, y - by) for x, y in zip(xs, ys)) + margin
        rays = [
            screen(bx, by) + screen(bx + reach * math.cos(ang), by + reach * math.sin(ang))
            for ang in (2.0 * math.pi * j / spec.k for j in range(spec.k))
        ]
        lines = root.findall(f"{NS}line")
        assert [[line.get(a) for a in ("x1", "y1", "x2", "y2")] for line in lines] == rays
        centers = [to_cartesian(c.barycenter) for c in spec.cells]
        assert any(-5e-7 < (x - xmin) * scale < 0 for x, _ in centers)
        points = root.find(f"{NS}polyline").get("points").split()
        assert [p.split(",") for p in points] == [screen(*centers[i]) for i in (*cycle, cycle[0])]
        labels = [[t.get("x"), t.get("y")] for t in root.findall(f"{NS}text")]
        assert labels == [screen(*c) for c in centers]
        assert "-0.000000" not in svg
