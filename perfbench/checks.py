"""Correctness checks on benchmark outputs, failure accounting, and the output digest.

Every operation's outputs are checked against an independent reference.
A failed check is always counted.  It is tagged with a known-defect id when
it matches one of the two defects that exist at the benchmark's first
commit; any other failure marks the run as not correct.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

# Defects that existed when the benchmark was defined.  Their failures are
# counted in `failed` like any other; only unexpected failures make a run
# incorrect.
KNOWN_DEFECTS = {
    "slices-false-glp": (
        "glp_via_slices answers GLP on a symmetrized configuration where "
        "decide_glp finds a cycle of nonzero weight"
    ),
    "shifted-input": (
        "adding a multiple of the folded cyclotomic polynomial to barycenters "
        "(same points, coefficients near 2^30) changes the CLI result: adjacency, "
        "hull and corner tests use floats, and validate overflows an intermediate"
    ),
}


@dataclass
class Problem:
    text: str
    known: str | None = None


@dataclass
class Tally:
    """Failure accounting over all operations of one run."""

    attempted: int = 0
    failed: int = 0
    unexpected: int = 0
    by_kind: dict[str, int] = field(default_factory=dict)
    examples: list[str] = field(default_factory=list)

    def add(self, label: str, problems: list[Problem]) -> None:
        self.attempted += 1
        if not problems:
            return
        self.failed += 1
        kinds = {p.known for p in problems}
        kind = "unexpected" if None in kinds else sorted(kinds)[0]
        if kind == "unexpected":
            self.unexpected += 1
        self.by_kind[kind] = self.by_kind.get(kind, 0) + 1
        if len(self.examples) < 8:
            self.examples.append(f"{label}: {kind}: " + "; ".join(p.text for p in problems))


class Digest:
    """SHA-256 over length-framed chunks, so chunk boundaries are part of the hash."""

    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def add(self, *chunks) -> None:
        for chunk in chunks:
            data = chunk if isinstance(chunk, bytes) else str(chunk).encode("utf-8")
            self._h.update(b"%d:" % len(data))
            self._h.update(data)

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def witness_problems(lib, spec, witness) -> list[Problem]:
    """A NOGLP witness must be a cycle of distinct adjacent cells with nonzero weight."""
    if not witness or len(witness) < 3 or len(set(witness)) != len(witness):
        return [Problem(f"witness {witness} is not a cycle of distinct cells")]
    edges, _ = lib.model.find_adjacencies(spec)
    adjacent = {(e.a, e.b) for e in edges} | {(e.b, e.a) for e in edges}
    for i, u in enumerate(witness):
        v = witness[(i + 1) % len(witness)]
        if (u, v) not in adjacent:
            return [Problem(f"witness {witness} uses non-edge ({u}, {v})")]
    if lib.glp.cycle_weight(spec, tuple(witness)) == 0:
        return [Problem(f"witness {witness} has weight 0")]
    return []


def verdict_problems(lib, spec, verdict, name: str) -> list[Problem]:
    """GLP labelings must pass check_labeling; NOGLP witnesses must be real obstructions.

    The labeling is rebuilt from the verdict's offsets, which determine its labels.
    """
    if not verdict.glp:
        return [Problem(f"{name}: {p.text}") for p in witness_problems(lib, spec, verdict.witness)]
    if verdict.labeling is None:
        return [Problem(f"{name}: GLP without a labeling")]
    try:
        labeling = lib.glp.make_labeling(spec, verdict.labeling.offsets)
        ok = lib.glp.check_labeling(spec, labeling)
    except (KeyError, lib.model.SpecError, lib.glp.LabelingError) as exc:
        return [Problem(f"{name}: offsets do not label the spec: {exc!r}")]
    return [] if ok else [Problem(f"{name}: labeling fails check_labeling")]


def slices_problems(lib, spec, general, sliced) -> list[Problem]:
    """glp_via_slices must agree with a checked decide_glp verdict.

    A GLP verdict of the slice route labels only the slice, so it is judged
    by agreement alone.
    """
    if sliced.glp == general.glp:
        if sliced.glp:
            return []
        return [Problem(f"glp_via_slices: {p.text}") for p in witness_problems(lib, spec, sliced.witness)]
    if sliced.glp:
        return [Problem("glp_via_slices says GLP, decide_glp says NOGLP", "slices-false-glp")]
    return [Problem("glp_via_slices says NOGLP, decide_glp says GLP")]


def sweep_problems(lib, op: dict) -> list[Problem]:
    """Checks for one grown spec: validity, decider agreement, labelings and witnesses."""
    if "error" in op:
        return [Problem(op["error"])]
    spec = op["spec"]
    problems = []
    if not op["report"]["valid"]:
        problems.append(Problem("validate rejects the grown spec: " + ", ".join(op["report"]["lines"])))
    general = op["general"]
    problems += verdict_problems(lib, spec, general, "decide_glp")
    if op["kind"] == "plain":
        parity = op["parity"]
        problems += verdict_problems(lib, spec, parity, "parity decider")
        if parity.glp != general.glp:
            problems.append(Problem("parity decider disagrees with decide_glp"))
    else:
        problems += slices_problems(lib, spec, general, op["slices"])
    return problems


@dataclass
class CliReference:
    """What one CLI command must print for an unshifted input."""

    code: int
    stdout: str | None  # None: `slices --closed`, checked by shape
    cells: int
    problems: list[Problem]  # problems of the library's own verdict
    exit_defect: str | None = None  # known defect that explains a wrong exit code


def cli_reference(lib, spec, argv: list[str], memo: dict) -> CliReference:
    """Exit code from decide_glp / validate, stdout from the library call the command wraps.

    ``memo`` holds one spec's library results across its commands.
    """

    def once(key: str, compute):
        if key not in memo:
            memo[key] = compute()
        return memo[key]

    command = argv[0]
    if command == "validate":
        report = once("validate", lambda: lib.model.validate(spec))
        return CliReference(0 if report.valid else 1, "\n".join(report.lines()) + "\n", spec.n, [])
    if command == "slices":
        return CliReference(0, None, spec.n, [])
    truth = once("general", lambda: lib.glp.decide_glp(spec))
    code = 0 if truth.glp else 1
    problems = once("general-problems", lambda: verdict_problems(lib, spec, truth, "decide_glp"))
    method = argv[argv.index("--method") + 1] if "--method" in argv else "general"
    if command == "label" or method == "general":
        return CliReference(code, truth.serialize(), spec.n, problems)
    if method == "slices":
        verdict = once("slices", lambda: lib.glp.glp_via_slices(spec))
        problems = problems + once("slices-problems", lambda: slices_problems(lib, spec, truth, verdict))
        defect = "slices-false-glp" if verdict.glp and not truth.glp else None
        return CliReference(code, verdict.serialize(), spec.n, problems, defect)
    decider = lib.glp.decide_glp_even if method == "even" else lib.glp.decide_glp_odd
    verdict = once(method, lambda: decider(spec))
    name = f"decide --method {method}"
    problems = problems + once(f"{method}-problems", lambda: verdict_problems(lib, spec, verdict, name))
    return CliReference(code, verdict.serialize(), spec.n, problems)


def cli_problems(ref: CliReference, code, stdout: str, shifted: bool) -> list[Problem]:
    """Compare one CLI result with the reference of its unshifted input."""
    problems = []
    if code != ref.code:
        problems.append(Problem(f"exit {code}, expected {ref.code}", ref.exit_defect))
    if ref.stdout is not None:
        if stdout != ref.stdout:
            problems.append(Problem("stdout differs from the reference"))
    else:
        lines = stdout.splitlines()
        if len(lines) != ref.cells or any(
            not line.startswith(f"cell {i} ") for i, line in enumerate(lines)
        ):
            problems.append(Problem("slice membership is not one line per cell"))
    if shifted:
        return [Problem(p.text, "shifted-input") for p in problems]
    return problems + ref.problems
