"""Command-line frontend.

Exit codes: 0 for success (valid spec, GLP); 1 for an expected negative
mathematical result (no GLP, axiom failure); 2 for unreadable or
invalid input and for an output file that cannot be written; 3 for
usage errors.

A process parses each input text once: `_load` keeps the specs it parsed
in an LRU keyed by the file's text (not its path), bounded by the cells
it holds (`SPEC_CACHE_CELLS`), so later `run` calls on the same text
reuse the spec and the memos the library filled on it.  Tests, embedders
and other callers that make several `run` calls in one process gain; a
one-shot `snfglp` process parses its file once either way.
"""
from __future__ import annotations

import argparse
import functools
import sys
import threading
from collections import OrderedDict

from . import construct, glp, model, render

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INVALID = 2
EXIT_USAGE = 3

# The most cells, summed over the specs it holds, that the spec cache keeps.
SPEC_CACHE_CELLS = 1 << 12


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: A003 - argparse API
        raise _UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of this process, built on first use (not at import).

    `parse_args` only reads it and `_Parser.error` raises instead of
    exiting, so every `run` call can share it.
    """
    parser = _Parser(prog="snfglp", description="Nested-fractal good-labeling toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the configuration axioms")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("decide", help="decide the good labeling property")
    p.add_argument("file")
    p.add_argument("--method", choices=["general", "even", "odd", "slices"], default="general")
    p.set_defaults(handler=_cmd_decide)

    p = sub.add_parser("label", help="decide and render a labeled figure")
    p.add_argument("file")
    p.add_argument("--svg", required=True, metavar="OUT")
    p.set_defaults(handler=_cmd_label)

    p = sub.add_parser("slices", help="print slice assignment or extract a subspec")
    p.add_argument("file")
    p.add_argument("--closed", action="store_true")
    p.add_argument("--index", type=int, default=None, metavar="I")
    p.set_defaults(handler=_cmd_slices)

    p = sub.add_parser("expand", help="substitute the configuration into itself")
    p.add_argument("file")
    p.add_argument("--level", type=int, required=True, metavar="M")
    p.set_defaults(handler=_cmd_expand)

    p = sub.add_parser("generate", help="emit a generated configuration")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--kind", choices=["glp", "noglp"], required=True)
    p.add_argument("--out", default=None, metavar="F")
    p.set_defaults(handler=_cmd_generate)

    p = sub.add_parser("catalog", help="emit a named reference configuration")
    p.add_argument("--name", required=True, choices=list(model.CATALOG_NAMES))
    p.set_defaults(handler=_cmd_catalog)

    p = sub.add_parser("random", help="emit a seeded random configuration")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--cells", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--symmetrize", action="store_true")
    p.set_defaults(handler=_cmd_random)

    p = sub.add_parser("classify", help="fast classification of k")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(handler=_cmd_classify)

    return parser


class _SpecCache:
    """Parsed specs by their text, least recently used first, holding at
    most `budget` cells in all; a spec of more cells is never held.

    Specs are immutable and their memos are safe to share, so a held spec
    is handed to every caller; the lock guards only the dict and the count.
    """

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self.cells = 0
        self._specs: OrderedDict[str, model.FractalSpec] = OrderedDict()
        self._lock = threading.Lock()

    def load(self, text: str) -> model.FractalSpec:
        with self._lock:
            spec = self._specs.get(text)
            if spec is not None:
                self._specs.move_to_end(text)
                return spec
        spec = model.parse(text)  # looked up per call, so a wrapped `parse` sees every miss
        if spec.n > self.budget:
            return spec
        with self._lock:
            held = self._specs.get(text)
            if held is not None:  # another thread parsed it first
                self._specs.move_to_end(text)
                return held
            while self.cells + spec.n > self.budget:
                self.cells -= self._specs.popitem(last=False)[1].n
            self._specs[text] = spec
            self.cells += spec.n
        return spec

    def clear(self) -> None:
        with self._lock:
            self._specs.clear()
            self.cells = 0


_SPECS = _SpecCache(SPEC_CACHE_CELLS)


def _load(path: str) -> model.FractalSpec:
    """The spec in the file at `path`, parsed once per process per text.

    The text is read on every call, so an edited file is parsed again; an
    unreadable or undecodable file raises `ParseError` naming the path.
    Specs that parse are held in `_SPECS`, `SPEC_CACHE_CELLS` in all.
    After the decide, validate, slices and label commands, text, spec and
    memos retain 0.85 KB per cell on the k = 12 example ring and 1.29 KB
    on the k = 36 one (0.95 and 1.40 KB with coefficients near 2^30;
    tracemalloc).  Only a caller that makes several `run` calls on one
    text gains; a one-shot process pays one lookup.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise model.ParseError(f"cannot read {path}: {exc}") from exc
    return _SPECS.load(text)


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from exc


def _cmd_validate(args) -> int:
    report = model.validate(_load(args.file))
    for line in report.lines():
        print(line)
    return EXIT_OK if report.valid else EXIT_NEGATIVE


def _cmd_decide(args) -> int:
    spec = _load(args.file)
    decider = {
        "general": glp.decide_glp,
        "even": glp.decide_glp_even,
        "odd": glp.decide_glp_odd,
        "slices": glp.glp_via_slices,
    }[args.method]
    verdict = decider(spec)
    sys.stdout.write(verdict.serialize())
    return EXIT_OK if verdict.glp else EXIT_NEGATIVE


def _cmd_label(args) -> int:
    spec = _load(args.file)
    verdict = glp.decide_glp(spec)
    options = render.RenderOptions(show_labels=True)
    _write(args.svg, render.render_svg(spec, verdict, options))
    sys.stdout.write(verdict.serialize())
    return EXIT_OK if verdict.glp else EXIT_NEGATIVE


def _cmd_slices(args) -> int:
    spec = _load(args.file)
    if args.index is not None:
        sub = glp.slice_subspec(spec, [args.index], closed=args.closed)
        sys.stdout.write(model.serialize(sub))
        return EXIT_OK
    if args.closed:
        tags = [""] * spec.n
        for s, members in enumerate(glp.closed_slices(spec), start=1):
            for i in members:
                tags[i] += f",{s}" if tags[i] else str(s)
    else:
        tags = ["" if s is None else str(s) for s in glp.slices(spec).sector]
    # every cell but the central one lies in its own sector's slice
    for i, tag in enumerate(tags):
        print(f"cell {i} {tag or 'central'}")
    return EXIT_OK


def _cmd_expand(args) -> int:
    spec = _load(args.file)
    sys.stdout.write(model.serialize(construct.expand(spec, args.level)))
    return EXIT_OK


def _cmd_generate(args) -> int:
    if args.kind == "glp":
        spec = construct.generate_glp_example(args.k)
    else:
        spec = construct.generate_counterexample(args.k)
    text = f"# generated kind={args.kind} k={args.k} n={spec.n}\n" + model.serialize(spec)
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_catalog(args) -> int:
    sys.stdout.write(model.serialize(model.catalog(args.name)))
    return EXIT_OK


def _cmd_random(args) -> int:
    spec = construct.random_valid_spec(args.k, args.cells, args.seed, args.symmetrize)
    text = (
        f"# generated kind=random k={args.k} cells={args.cells} "
        f"seed={args.seed} symmetrize={int(args.symmetrize)}\n"
    ) + model.serialize(spec)
    sys.stdout.write(text)
    return EXIT_OK


def _cmd_classify(args) -> int:
    print(str(glp.classify_k(args.k)))
    return EXIT_OK


def run(argv: list[str] | None = None) -> int:
    """Parse argv, execute one subcommand, and return the exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.handler(args)
    except ValueError as exc:  # every error type of the library subclasses it
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def main() -> None:
    sys.exit(run(sys.argv[1:]))
