"""Command-line interface: subcommands, exit codes, stream formats."""
from __future__ import annotations

import io
import os
import random
import subprocess
import sys
import threading
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import snfglp
from conftest import PARSE_ERRORS, recording
from snfglp import cli
from snfglp.cli import SPEC_CACHE_CELLS, _build_parser, _load, _SpecCache, run
from snfglp.construct import generate_counterexample, generate_glp_example, random_valid_spec
from snfglp.cyclotomic import cyclotomic_polynomial, zeta
from snfglp.glp import classify_k
from snfglp.model import CATALOG_NAMES, catalog, make_spec, parse, serialize


@pytest.fixture
def hexagon_file(tmp_path):
    path = tmp_path / "hexagon.snf"
    path.write_text(serialize(catalog("sierpinski-hexagon")))
    return str(path)


@pytest.fixture
def shifted_gasket_file(tmp_path):
    # the gasket moved by 2^30 * (1 + zeta + zeta^2), which is 0; n * b - sum(b)
    # passes through coefficients beyond 2^31 before it cancels
    path = tmp_path / "gasket-shift.snf"
    path.write_text(
        "snf k=3\n"
        "cell 1073741825 1073741824 1073741824\n"
        "cell 1073741824 1073741825 1073741824\n"
        "cell 1073741824 1073741824 1073741825\n"
    )
    return str(path)


@pytest.fixture
def folded_snowflake_file(tmp_path):
    # the Lindstrom snowflake, each cell plus a multiple of a fold of Phi_6 (0)
    path = tmp_path / "snowflake-folded.snf"
    path.write_text(
        "snf k=6 partial\n"
        "cell -19411101 19411103 -19411103 0 0 0\n"
        "cell -105632175 105632177 -105632175 0 0 0\n"
        "cell 150255908 -150255908 150255910 0 0 0\n"
        "cell -252171772 252171772 -252171772 2 0 0\n"
        "cell -199682220 199682220 -199682220 0 2 0\n"
        "cell -97281079 97281079 -97281079 0 0 2\n"
        "cell -222491084 222491084 -222491084 0 0 0\n"
    )
    return str(path)


@pytest.fixture
def snowflake_file(tmp_path):
    path = tmp_path / "snowflake.snf"
    path.write_text(serialize(catalog("lindstrom-snowflake")))
    return str(path)


class TestDecide:
    def test_glp_exit_zero(self, hexagon_file, capsys):
        assert run(["decide", hexagon_file]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "GLP"
        assert "offset 0 0" in out

    def test_noglp_exit_one(self, snowflake_file, capsys):
        assert run(["decide", snowflake_file]) == 1
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "NOGLP"
        assert out.splitlines()[1].startswith("cycle ")

    def test_methods_agree_on_exit(self, hexagon_file):
        assert run(["decide", hexagon_file, "--method", "general"]) == 0
        assert run(["decide", hexagon_file, "--method", "even"]) == 0
        assert run(["decide", hexagon_file, "--method", "slices"]) == 0

    def test_inapplicable_method(self, hexagon_file, capsys):
        assert run(["decide", hexagon_file, "--method", "odd"]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert run(["decide", "/no/such/file.snf"]) == 2

    def test_undecodable_file(self, tmp_path, capsys):
        path = tmp_path / "utf16.snf"
        path.write_bytes(b"\xff\xfes\x00n\x00f\x00")
        assert run(["decide", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xff")
        assert captured.err.count("\n") == 1

    def test_slices_k6_lone_central_cell(self, tmp_path, capsys):
        path = tmp_path / "center.snf"
        path.write_text("snf k=6\ncell 0 0 0 0 0 0\n")
        assert run(["decide", str(path), "--method", "slices"]) == 0
        assert capsys.readouterr().out == "GLP\noffset 0 0\n"

    def test_slices_checks_nesting_of_whole_spec(self, tmp_path, capsys):
        # cells 0 and 1 share an edge; the slice holding neither hides it
        path = tmp_path / "nested.snf"
        path.write_text("snf k=6\ncell 0 0 0 0 0 0\ncell 0 0 0 0 -1 1\ncell 0 0 -1 0 0 1\n")
        for method in ("general", "slices"):
            assert run(["decide", str(path), "--method", method]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "cells (0, 1) violate nesting" in captured.err

    def test_extreme_coefficient(self, tmp_path, capsys):
        # the vertices b + zeta^j leave the coefficient range; labels are keyed, not built
        path = tmp_path / "big.snf"
        path.write_text("snf k=3 partial\ncell 2147483648 2147483648 2147483648\n")
        assert run(["decide", str(path)]) == 0
        assert capsys.readouterr().out == "GLP\noffset 0 0\n"

    def test_slices_on_shifted_gasket(self, shifted_gasket_file, capsys):
        assert run(["decide", shifted_gasket_file, "--method", "general"]) == 0
        general = capsys.readouterr()
        assert run(["decide", shifted_gasket_file, "--method", "slices"]) == 0
        assert capsys.readouterr() == general
        assert general.out == "GLP\noffset 0 0\noffset 1 1\noffset 2 2\n"

    def test_bad_flag(self, hexagon_file):
        assert run(["decide", hexagon_file, "--method", "psychic"]) == 3

    def test_folded_snowflake(self, folded_snowflake_file, capsys):
        assert run(["decide", folded_snowflake_file]) == 1
        assert capsys.readouterr().out == "NOGLP\ncycle 1 0 6\n"
        assert run(["decide", folded_snowflake_file, "--method", "even"]) == 1

    def test_no_command(self):
        assert run([]) == 3


# Specs that fail symmetry, where a slice says nothing about the whole: the
# hexagon of radius 2 plus a cell at 2 + 2 zeta, and the k = 9 and k = 12
# example rings plus one cell at a legal step from ring cell 0
ASYMMETRIC = {
    "k6": ("snf k=6\n" + "".join(
        "cell " + " ".join("2" if i == j else "0" for i in range(6)) + "\n" for j in range(6)
    ) + "cell 2 2 0 0 0 0\n", "cycle 1 0 6"),
    "k9": (serialize(generate_glp_example(9)) + "cell 1 1 0 0 -1 -1 -1 0 0\n", "cycle 1 0 9"),
    "k12": (serialize(generate_glp_example(12)) + "cell 4 5 0 -2 0 0 0 -1 0 0 0 0\n",
            "cycle 1 0 24"),
}


class TestAsymmetricSpec:
    @pytest.mark.parametrize("name", sorted(ASYMMETRIC))
    def test_slices_refuse_what_general_decides(self, name, tmp_path, capsys):
        text, cycle = ASYMMETRIC[name]
        path = tmp_path / f"{name}.snf"
        path.write_text(text)
        assert run(["validate", str(path)]) == 1
        assert "symmetry: FAIL ('rotation', 1)" in capsys.readouterr().out
        assert run(["decide", str(path), "--method", "general"]) == 1
        assert capsys.readouterr().out == f"NOGLP\n{cycle}\n"
        assert run(["decide", str(path), "--method", "slices"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: spec fails symmetry ('rotation', 1)" in captured.err


class TestOneParserPerProcess:
    def test_parser_is_built_once(self):
        assert _build_parser() is _build_parser()

    def test_calls_after_a_usage_error_are_unchanged(self, hexagon_file, capsys):
        assert run(["decide", hexagon_file]) == 0
        good = capsys.readouterr()
        assert good.out.splitlines()[0] == "GLP" and "offset 0 0" in good.out
        assert good.err == ""
        assert run(["decide", hexagon_file, "--method", "psychic"]) == 3
        usage = capsys.readouterr()
        assert usage.out == "" and usage.err.startswith("usage error: ")
        assert run(["decide", hexagon_file]) == 0
        assert capsys.readouterr() == good
        assert run(["decide", "/no/such/file.snf"]) == 2
        missing = capsys.readouterr()
        assert missing.out == "" and missing.err.startswith("error: cannot read /no/such/file.snf")


def _cells_text(n: int, tag: str = "") -> str:
    """A partial k = 3 spec of n cells on the real axis; the comment makes texts differ."""
    return f"# {tag}\nsnf k=3 partial\n" + "".join(f"cell {i} 0 0\n" for i in range(n))


class TestSpecCache:
    """`_load` parses each text once per process; what it hands out must be
    what a fresh parse gives, whatever ran before."""

    FILES = {
        "hexagon": serialize(catalog("sierpinski-hexagon")),
        "snowflake": serialize(catalog("lindstrom-snowflake")),
        "gasket-shift": (
            "snf k=3\n"
            "cell 1073741825 1073741824 1073741824\n"
            "cell 1073741824 1073741825 1073741824\n"
            "cell 1073741824 1073741824 1073741825\n"
        ),
        "asymmetric-k6": ASYMMETRIC["k6"][0],
        "pentagons": "snf k=5 partial\ncell 0 0 0 0 0\ncell -214978335 -214146295 -215492563 -214146295 -214978336\n",
    }

    @staticmethod
    def _commands(path, svg):
        commands = [["decide", path, "--method", m] for m in ("general", "even", "odd", "slices")]
        return commands + [
            ["validate", path],
            ["label", path, "--svg", svg],
            ["slices", path],
            ["slices", path, "--closed"],
            ["slices", path, "--index", "1", "--closed"],
            ["expand", path, "--level", "2"],
        ]

    def test_cache_changes_no_output(self, tmp_path):
        svg = tmp_path / "out.svg"
        requests = []
        for name, text in self.FILES.items():
            path = tmp_path / f"{name}.snf"
            path.write_text(text)
            requests += self._commands(str(path), str(svg))

        def result(argv):
            if svg.exists():
                svg.unlink()
            return (*run_captured(argv), svg.read_bytes() if svg.exists() else None)

        fresh = []
        for argv in requests:
            cli._SPECS.clear()
            fresh.append(result(argv))
        assert {code for code, *_ in fresh} == {0, 1, 2}
        assert ["decide", str(tmp_path / "asymmetric-k6.snf"), "--method", "slices"] in [
            argv for argv, (code, *_) in zip(requests, fresh) if code == 2
        ]
        cli._SPECS.clear()
        assert [result(argv) for argv in requests] == fresh
        assert [result(argv) for argv in reversed(requests)] == fresh[::-1]

    def test_rewritten_file_is_parsed_again(self, tmp_path, capsys):
        path = tmp_path / "ring.snf"
        path.write_text(self.FILES["hexagon"])
        assert run(["validate", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "valid: yes"
        path.write_text("\n".join(self.FILES["hexagon"].splitlines()[:-1]) + "\n")
        assert run(["validate", str(path)]) == 1
        assert capsys.readouterr().out.splitlines()[-1] == "valid: no"
        path.write_text(self.FILES["snowflake"])
        assert run(["decide", str(path)]) == 1
        assert capsys.readouterr().out.splitlines()[0] == "NOGLP"

    def test_one_parse_per_text(self, tmp_path):
        cli._SPECS.clear()
        first, second = tmp_path / "a.snf", tmp_path / "b.snf"
        first.write_text(self.FILES["snowflake"])
        second.write_text(self.FILES["snowflake"])
        # wrapped at the module attribute, as the benchmark's tracer wraps it
        with recording(snfglp.model, "parse") as calls:
            spec = _load(str(first))
            assert _load(str(second)) is spec and _load(str(first)) is spec
            assert calls == [(self.FILES["snowflake"],)]
            assert run(["decide", str(second)]) == 1
        assert len(calls) == 1

    def test_direct_parse_is_fresh(self):
        text = self.FILES["hexagon"]
        assert parse(text) is not parse(text)

    def test_parse_errors_are_not_held(self, tmp_path):
        cli._SPECS.clear()
        path = tmp_path / "garbage.snf"
        path.write_text("snf k=2\ncell 1 0\n")
        with pytest.raises(snfglp.model.ParseError):
            _load(str(path))
        assert cli._SPECS.cells == 0 and not cli._SPECS._specs

    def test_cells_within_budget(self):
        cache = _SpecCache(20)
        rng = random.Random(7)
        for t in range(200):
            spec = cache.load(_cells_text(rng.randint(1, 12), str(t)))
            held = list(cache._specs.values())
            assert cache.cells == sum(s.n for s in held) <= cache.budget
            assert held[-1] is spec

    def test_least_recently_used_is_evicted(self):
        cache = _SpecCache(10)
        a, b, c = (_cells_text(4, tag) for tag in "abc")
        spec_a = cache.load(a)
        cache.load(b)
        assert cache.load(a) is spec_a  # now b is the least recently used
        cache.load(c)
        assert list(cache._specs) == [a, c] and cache.cells == 8
        assert cache.load(a) is spec_a

    def test_spec_of_exactly_the_budget_is_held(self):
        cache = _SpecCache(3)
        gasket = serialize(catalog("sierpinski-gasket"))
        spec = cache.load(gasket)
        assert spec.n == 3 and cache.cells == 3 and cache.load(gasket) is spec
        larger = _cells_text(4)
        assert cache.load(larger) is not cache.load(larger)
        assert list(cache._specs) == [gasket] and cache.cells == 3

    def test_spec_over_budget_is_not_held(self, tmp_path):
        cli._SPECS.clear()
        held = tmp_path / "small.snf"
        held.write_text(_cells_text(3, "small"))
        small = _load(str(held))
        path = tmp_path / "large.snf"
        path.write_text(_cells_text(SPEC_CACHE_CELLS + 1))
        large = _load(str(path))
        assert large.n == SPEC_CACHE_CELLS + 1
        assert _load(str(path)) is not large
        assert cli._SPECS.cells == 3 and _load(str(held)) is small

    def test_threads_share_one_spec(self, tmp_path):
        # more threads than cores and a short switch interval, so misses race
        cli._SPECS.clear()
        path = tmp_path / "ring.snf"
        path.write_text(serialize(generate_glp_example(36)))
        n_threads = (os.cpu_count() or 1) + 3
        barrier = threading.Barrier(n_threads)
        seen: list = [None] * n_threads

        def work(slot: int) -> None:
            barrier.wait(timeout=30)
            seen[slot] = _load(str(path))

        threads = [threading.Thread(target=work, args=(slot,)) for slot in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(s is seen[0] for s in seen)
        assert {serialize(s) for s in seen} == {path.read_text()}
        assert cli._SPECS.cells == seen[0].n <= SPEC_CACHE_CELLS


class TestValidate:
    def test_valid_spec(self, hexagon_file, capsys):
        assert run(["validate", hexagon_file]) == 0
        out = capsys.readouterr().out
        assert "valid: yes" in out

    def test_invalid_spec(self, tmp_path, capsys):
        path = tmp_path / "broken.snf"
        ring = catalog("sierpinski-hexagon")
        lines = serialize(ring).splitlines()[:-1]  # drop one ring cell
        path.write_text("\n".join(lines) + "\n")
        assert run(["validate", str(path)]) == 1
        assert "valid: no" in capsys.readouterr().out

    def test_shifted_gasket(self, shifted_gasket_file, capsys):
        assert run(["validate", shifted_gasket_file]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "valid: yes"

    def test_folded_snowflake(self, folded_snowflake_file, capsys):
        assert run(["validate", folded_snowflake_file]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "connectivity: ok (1 component)" and out[-1] == "valid: yes"

    def test_near_tangent_pentagons_overlap(self, tmp_path, capsys):
        # the second cell is base_step(5) - phi^-30 * zeta^2, phi^-1 = zeta + zeta^4:
        # the hulls overlap, by about 5e-7 along the edge normal of least overlap
        path = tmp_path / "pentagons.snf"
        path.write_text(
            "snf k=5 partial\n"
            "cell 0 0 0 0 0\n"
            "cell -214978335 -214146295 -215492563 -214146295 -214978336\n"
        )
        assert run(["validate", str(path)]) == 1
        assert "nesting: FAIL cells (0, 1)" in capsys.readouterr().out.splitlines()

    def test_unparseable(self, tmp_path):
        path = tmp_path / "garbage.snf"
        path.write_text("snf k=2\ncell 1 0\n")
        assert run(["validate", str(path)]) == 2

    @pytest.mark.parametrize("text, error", PARSE_ERRORS)
    def test_parse_error_text(self, tmp_path, text, error):
        path = tmp_path / "rejected.snf"
        path.write_text(text)
        assert run_captured(["validate", str(path)]) == (2, "", f"error: {error}\n")

    @pytest.mark.parametrize("k", [6, 8])
    def test_vertex_at_barycenter(self, tmp_path, k):
        path = tmp_path / "star.snf"
        path.write_text(serialize(make_spec(k, [zeta(k, j) for j in range(k)])))
        code, out, _ = run_captured(["validate", str(path)])
        assert code == 1
        assert "central-cell: FAIL vertex of cell 0 at barycenter" in out.splitlines()


class TestLabel:
    def test_writes_svg(self, hexagon_file, tmp_path, capsys):
        out_svg = str(tmp_path / "hexagon.svg")
        assert run(["label", hexagon_file, "--svg", out_svg]) == 0
        root = ET.parse(out_svg).getroot()
        assert root.tag.endswith("svg")
        assert capsys.readouterr().out.splitlines()[0] == "GLP"

    def test_extreme_coefficient(self, tmp_path, capsys):
        path = tmp_path / "big.snf"
        path.write_text("snf k=3 partial\ncell 2147483648 2147483648 2147483648\n")
        svg = tmp_path / "big.svg"
        assert run(["label", str(path), "--svg", str(svg)]) == 0
        assert capsys.readouterr().out == "GLP\noffset 0 0\n"
        assert len(ET.parse(svg).getroot().findall(".//{*}polygon")) == 1

    def test_noglp_still_renders(self, snowflake_file, tmp_path):
        out_svg = str(tmp_path / "snow.svg")
        assert run(["label", snowflake_file, "--svg", out_svg]) == 1
        assert ET.parse(out_svg).getroot().tag.endswith("svg")


class TestUnwritableOutput:
    @pytest.mark.parametrize("target", ["missing-dir/out", "a-directory"])
    @pytest.mark.parametrize("command", ["label", "generate"])
    def test_exit_two(self, hexagon_file, tmp_path, capsys, command, target):
        (tmp_path / "a-directory").mkdir()
        out = str(tmp_path / target)
        if command == "label":
            argv = ["label", hexagon_file, "--svg", out]
        else:
            argv = ["generate", "--k", "6", "--kind", "glp", "--out", out]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out}: ")
        assert captured.err.count("\n") == 1


class TestSlices:
    def test_assignment_listing(self, snowflake_file, capsys):
        assert run(["slices", snowflake_file]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "cell 0 6"
        assert out[6] == "cell 6 central"

    def test_closed_listing(self, hexagon_file, capsys):
        assert run(["slices", hexagon_file, "--closed"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "cell 0 1,6"  # on-axis cell sits in two closed slices

    def test_closed_listing_tags_central_cell(self, snowflake_file, capsys):
        assert run(["slices", snowflake_file, "--closed"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 7
        assert out[0] == "cell 0 1,6"
        assert out[6] == "cell 6 central"

    def test_subspec_extraction(self, hexagon_file, capsys):
        assert run(["slices", hexagon_file, "--index", "1", "--closed"]) == 0
        sub = parse(capsys.readouterr().out)
        assert sub.partial and sub.n == 2


class TestGenerators:
    def test_catalog_roundtrip(self, capsys):
        assert run(["catalog", "--name", "sierpinski-gasket"]) == 0
        spec = parse(capsys.readouterr().out)
        assert spec.k == 3 and spec.n == 3

    def test_generate_noglp_with_comment(self, capsys):
        assert run(["generate", "--k", "9", "--kind", "noglp"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# generated kind=noglp k=9")
        assert parse(out).n == 3

    def test_generate_glp_to_file(self, tmp_path, capsys):
        target = str(tmp_path / "ring.snf")
        assert run(["generate", "--k", "12", "--kind", "glp", "--out", target]) == 0
        with open(target, encoding="utf-8") as fh:
            assert parse(fh.read()).n == 24

    def test_generate_power_of_two_noglp_fails(self, capsys):
        assert run(["generate", "--k", "8", "--kind", "noglp"]) == 2

    def test_random_requires_seed(self):
        assert run(["random", "--k", "6", "--cells", "10"]) == 3

    def test_random_deterministic(self, capsys):
        assert run(["random", "--k", "6", "--cells", "10", "--seed", "3"]) == 0
        first = capsys.readouterr().out
        assert run(["random", "--k", "6", "--cells", "10", "--seed", "3"]) == 0
        assert capsys.readouterr().out == first

    def test_expand(self, tmp_path, capsys):
        path = tmp_path / "gasket.snf"
        path.write_text(serialize(catalog("sierpinski-gasket")))
        assert run(["expand", str(path), "--level", "2"]) == 0
        assert parse(capsys.readouterr().out).n == 9

    def test_expand_corner_not_integral(self, tmp_path, capsys):
        # two cells 3 apart on the real axis: the corner's scaled key 3 is odd, n = 2
        path = tmp_path / "odd-corner.snf"
        path.write_text("snf k=6\ncell 0 0 0 0 0 0\ncell 3 0 0 0 0 0\n")
        assert run(["expand", str(path), "--level", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: corner barycenter is not integral after recentring\n"

    def test_expand_past_coefficient_range(self, tmp_path):
        # level 2 of cells 0 and 2^31 on the real axis leaves the range a cell is held to
        path = tmp_path / "far.snf"
        path.write_text("snf k=6\ncell 0 0 0 0 0 0\ncell 2147483648 0 0 0 0 0\n")
        assert run_captured(["expand", str(path), "--level", "2"]) == (
            2, "", "error: coefficient -1152921506754330624 exceeds +/-2147483648\n")

    def test_expand_past_size_cap(self, tmp_path):
        path = tmp_path / "ring-36.snf"
        path.write_text(serialize(generate_glp_example(36)))
        assert run_captured(["expand", str(path), "--level", "3"]) == (
            2, "", "error: 72^3 cells exceed the size cap\n")

    def test_classify(self, capsys):
        assert run(["classify", "--k", "8"]) == 0
        assert capsys.readouterr().out.strip() == "AlwaysGLP(power_of_two)"
        assert run(["classify", "--k", "7"]) == 0
        assert capsys.readouterr().out.strip() == "AlwaysGLP(prime)"
        assert run(["classify", "--k", "9"]) == 0
        assert capsys.readouterr().out.strip() == "Conditional"


class TestModuleEntry:
    def test_python_dash_m(self):
        src = str(Path(snfglp.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        ))
        proc = subprocess.run(
            [sys.executable, "-m", "snfglp", "classify", "--k", "8"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "AlwaysGLP(power_of_two)"

    def test_main_in_process(self, monkeypatch, capsys):
        # the console script's entry: main() exits with run()'s status
        monkeypatch.setattr(sys, "argv", ["snfglp", "classify", "--k", "8"])
        with pytest.raises(SystemExit) as exc:
            cli.main()
        assert exc.value.code == 0
        assert capsys.readouterr().out == "AlwaysGLP(power_of_two)\n"


@st.composite
def accepted_inputs(draw):
    """The text of a catalog, example, counterexample or grown spec, as it
    is, with a multiple of a fold of Phi_k (zero) of up to 2^30 added to
    each cell, or without its last cell, so that it may fail `validate`;
    `parse` accepts each."""
    kind = draw(st.sampled_from(["catalog", "example", "counterexample", "plain", "symmetrized"]))
    if kind == "catalog":
        spec = catalog(draw(st.sampled_from(CATALOG_NAMES)))
    elif kind in ("example", "counterexample"):
        k = draw(st.integers(3, 36))
        composite = not classify_k(k).always_glp
        spec = generate_counterexample(k) if kind == "counterexample" and composite else generate_glp_example(k)
    else:
        seed = draw(st.integers(0, 10_000))
        spec = random_valid_spec(
            draw(st.integers(3, 12)), draw(st.integers(2, 30)), seed, symmetrize=kind == "symmetrized"
        )
    variant = draw(st.sampled_from(["plain", "shift", "drop"]))
    if variant == "drop" and spec.n > 1:
        spec = make_spec(spec.k, [c.barycenter for c in spec.cells[:-1]], spec.partial)
    elif variant == "shift":
        k = spec.k
        phi = cyclotomic_polynomial(k).coeffs
        bound = 2**30 - max(abs(c) for cell in spec.cells for c in cell.barycenter.coeffs)
        rows = []
        for cell in spec.cells:
            m, j = draw(st.integers(-bound, bound)), draw(st.integers(0, k - 1))
            row = list(cell.barycenter.coeffs)
            for d, c in enumerate(phi):
                row[(d + j) % k] += m * c
            rows.append(row)
        spec = make_spec(k, rows, spec.partial)
    return serialize(spec)


@st.composite
def decided_inputs(draw):
    """The text of a catalog spec, an example ring (k = 3..36) or a
    symmetrized growth (k = 6..12), which every decide method may read."""
    kind = draw(st.sampled_from(["catalog", "example", "symmetrized"]))
    if kind == "catalog":
        spec = catalog(draw(st.sampled_from(CATALOG_NAMES)))
    elif kind == "example":
        spec = generate_glp_example(draw(st.integers(3, 36)))
    else:
        k, target = draw(st.integers(6, 12)), draw(st.integers(2, 60))
        spec = random_valid_spec(k, target, draw(st.integers(0, 2**31 - 1)), symmetrize=True)
    return serialize(spec)


def run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


class TestRunContract:
    """Every accepted input gets an exit code of the contract from every
    subcommand that reads it, never an exception, and the same result when
    run again; exit 2 prints only an error line; and the decide methods
    that answer (exit 0 or 1) print the same verdict line, and on the
    decided inputs general's bytes (`test_decide_methods_agree`)."""

    @given(text=accepted_inputs())
    @settings(max_examples=200, deadline=None)
    def test_exit_codes(self, text, tmp_path_factory):
        folder = tmp_path_factory.mktemp("contract")
        path = folder / "input.snf"
        path.write_text(text)
        commands = [["decide", str(path), "--method", m] for m in ("general", "even", "odd", "slices")]
        commands += [
            ["validate", str(path)],
            ["slices", str(path), "--closed"],
            ["label", str(path), "--svg", str(folder / "out.svg")],
        ]
        verdicts = set()
        for argv in commands:
            code, out, err = run_captured(argv)
            assert run_captured(argv) == (code, out, err), argv  # the second run reads the held spec
            assert code in (0, 1, 2), argv
            if code == 2:
                assert err.startswith("error:"), argv
                assert out == "", argv
            elif argv[0] == "decide":
                verdicts.add(out.split("\n", 1)[0])
        assert len(verdicts) <= 1, verdicts

    @given(text=decided_inputs())
    @example(text=serialize(random_valid_spec(12, 40, 403123852, symmetrize=True)))
    @settings(max_examples=60, deadline=None)
    def test_decide_methods_agree(self, text, tmp_path_factory):
        path = tmp_path_factory.mktemp("agree") / "input.snf"
        path.write_text(text)
        answers = {}
        for method in ("general", "even", "odd", "slices"):
            code, out, _ = run_captured(["decide", str(path), "--method", method])
            if code in (0, 1):
                answers[method] = (code, out)
        assert "general" in answers, answers
        code, out = answers["general"]
        for method, (other_code, other_out) in answers.items():
            assert other_code == code, answers
            # a NOGLP witness of the slice route is a cycle of its region
            if code == 0 or method != "slices":
                assert other_out == out, method


class TestClassifyLargeK:
    def test_large_prime(self, capsys):
        assert run(["classify", "--k", "10000000000000061"]) == 0
        assert capsys.readouterr().out.strip() == "AlwaysGLP(prime)"

    def test_at_psi_13_exits_invalid(self, capsys):
        assert run(["classify", "--k", "3317044064679887385961981"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "3317044064679887385961981" in err
