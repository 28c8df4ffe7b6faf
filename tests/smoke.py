"""Standard-library-only smoke run of the library and the CLI.

Run from the repository root:

    PYTHONPATH=src python tests/smoke.py

It needs no test dependency, so CI runs it on every Python before
installing them.  Each library call runs on one fresh spec from several
threads at once and then again, so the records a spec shares between
callers (near pairs, vertex ids, dihedral record, constraint graph with
its lazily built weights, sectors, slice region) are filled concurrently;
every output must equal that of a separate spec, and the slice route
must print the general decider's verdict.  Every CLI command runs twice on
one held file and must give the same exit code, output and SVG, and
`decide --method slices` must print what `decide` prints.
"""
from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
import threading

from snfglp import (
    RenderOptions,
    check_labeling,
    classify_k,
    cli,
    closed_slices,
    decide_glp,
    decide_glp_even,
    decide_glp_odd,
    generate_glp_example,
    glp_via_slices,
    parse,
    render_svg,
    serialize,
    slices,
    validate,
)

THREADS = 4


def library(spec):
    """Every library output of one spec, as comparable values."""
    parity = decide_glp_even if spec.k % 2 == 0 else decide_glp_odd
    verdict = decide_glp(spec)
    return (
        validate(spec).lines(),
        verdict.serialize(),
        parity(spec).serialize(),
        glp_via_slices(spec).serialize(),
        check_labeling(spec, verdict.labeling),
        slices(spec),
        closed_slices(spec),
        render_svg(spec, verdict, RenderOptions(show_labels=True, show_slices=True)),
        str(classify_k(spec.k)),
    )


def check_library(text: str) -> None:
    want = library(parse(text))
    assert want[3] == want[1], "the slice route's verdict is not the general one"
    spec = parse(text)
    barrier = threading.Barrier(THREADS)
    seen = [None] * THREADS

    def work(slot: int) -> None:
        barrier.wait(timeout=30)
        seen[slot] = library(spec)

    threads = [threading.Thread(target=work, args=(slot,)) for slot in range(THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert all(out == want for out in seen), "threads disagree"
    assert library(spec) == want, "a repeated call disagrees"


def cli_call(argv: list[str], svg: str) -> tuple[int, str, str, str | None]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    drawing = None
    if os.path.exists(svg):
        with open(svg, encoding="utf-8") as fh:
            drawing = fh.read()
        os.remove(svg)
    return code, out.getvalue(), err.getvalue(), drawing


def check_cli(text: str, k: int, folder: str) -> None:
    path, svg = os.path.join(folder, "spec.snf"), os.path.join(folder, "out.svg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    commands = [
        ["validate", path],
        ["decide", path],
        ["decide", path, "--method", "even" if k % 2 == 0 else "odd"],
        ["decide", path, "--method", "slices"],
        ["label", path, "--svg", svg],
        ["slices", path],
        ["slices", path, "--closed"],
        ["slices", path, "--index", "1"],
        ["expand", path, "--level", "2"],
        ["generate", "--k", str(k), "--kind", "glp"],
        ["catalog", "--name", "pentagon-ring"],
        ["random", "--k", str(k), "--cells", "12", "--seed", "1"],
        ["classify", "--k", str(k)],
    ]
    for argv in commands:
        first = cli_call(argv, svg)
        assert first[0] == cli.EXIT_OK and not first[2], (argv, first[0], first[2])
        assert cli_call(argv, svg) == first, f"second call differs: {argv}"
    sliced = cli_call(["decide", path, "--method", "slices"], svg)
    assert sliced == cli_call(["decide", path], svg), "decide --method slices differs from decide"


def main() -> None:
    with tempfile.TemporaryDirectory() as folder:
        for k in (9, 12):
            text = serialize(generate_glp_example(k))
            check_library(text)
            check_cli(text, k, folder)
    print(f"smoke ok on Python {sys.version.split()[0]}")


if __name__ == "__main__":
    main()
