"""Command-line frontend.

Exit codes: 0 for success (valid spec, GLP); 1 for an expected negative
mathematical result (no GLP, axiom failure); 2 for unreadable or
invalid input and for an output file that cannot be written; 3 for
usage errors.
"""
from __future__ import annotations

import argparse
import functools
import sys

from . import construct, glp, model, render

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INVALID = 2
EXIT_USAGE = 3


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

    p = sub.add_parser("decide", help="decide the good labeling property")
    p.add_argument("file")
    p.add_argument("--method", choices=["general", "even", "odd", "slices"], default="general")

    p = sub.add_parser("label", help="decide and render a labeled figure")
    p.add_argument("file")
    p.add_argument("--svg", required=True, metavar="OUT")

    p = sub.add_parser("slices", help="print slice assignment or extract a subspec")
    p.add_argument("file")
    p.add_argument("--closed", action="store_true")
    p.add_argument("--index", type=int, default=None, metavar="I")

    p = sub.add_parser("expand", help="substitute the configuration into itself")
    p.add_argument("file")
    p.add_argument("--level", type=int, required=True, metavar="M")

    p = sub.add_parser("generate", help="emit a generated configuration")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--kind", choices=["glp", "noglp"], required=True)
    p.add_argument("--out", default=None, metavar="F")

    p = sub.add_parser("catalog", help="emit a named reference configuration")
    p.add_argument("--name", required=True, choices=list(model.CATALOG_NAMES))

    p = sub.add_parser("random", help="emit a seeded random configuration")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--cells", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--symmetrize", action="store_true")

    p = sub.add_parser("classify", help="fast classification of k")
    p.add_argument("--k", type=int, required=True)

    return parser


def _load(path: str) -> model.FractalSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise model.ParseError(f"cannot read {path}: {exc}") from exc
    return model.parse(text)


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
        sets = glp.closed_slices(spec)
        membership: dict[int, list[int]] = {i: [] for i in range(spec.n)}
        for s, members in enumerate(sets, start=1):
            for i in members:
                membership[i].append(s)
        # every other cell lies in its own sector's closed slice
        for i in range(spec.n):
            tag = ",".join(str(s) for s in membership[i]) or "central"
            print(f"cell {i} {tag}")
    else:
        assignment = glp.slices(spec)
        for i, s in enumerate(assignment.sector):
            print(f"cell {i} {'central' if s is None else s}")
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


_COMMANDS = {
    "validate": _cmd_validate,
    "decide": _cmd_decide,
    "label": _cmd_label,
    "slices": _cmd_slices,
    "expand": _cmd_expand,
    "generate": _cmd_generate,
    "catalog": _cmd_catalog,
    "random": _cmd_random,
    "classify": _cmd_classify,
}


def run(argv: list[str] | None = None) -> int:
    """Parse argv, execute one subcommand, and return the exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except (model.SpecError, model.ScalingError, construct.GenerationError,
            glp.DisconnectedSpec, glp.LabelingError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
