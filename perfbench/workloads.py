"""The benchmark workloads: input generation, one loop unit, and the checks.

Each workload derives its inputs from the seed alone.  ``setup`` writes them
under the work directory (that is the timed set-up) and ``load`` reads them
back.  ``units(seconds)`` is the loop length: a fixed number of units, about
``seconds`` of work at a nominal rate measured on a 2-vCPU x86-64 host, so
a seed always runs the same operations and counts the same failures.
``step(i)`` runs loop unit ``i`` and returns ``(seconds, result)`` per
operation; ``record`` turns a result into plain JSON data without calling a
traced library function, so the measuring process keeps nothing between
operations.
``check`` runs later, in another process, on those records: it checks every
operation and digests its outputs.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import random
import sys
import traceback
from pathlib import Path
from time import perf_counter

import checks


def _error(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def _root(tracer, name: str, case: str):
    return tracer.root(name, case) if tracer is not None else contextlib.nullcontext()


def _rows(spec) -> dict:
    return {"k": spec.k, "partial": spec.partial, "rows": [c.barycenter.coeffs for c in spec.cells]}


def _spec(lib, data: dict):
    return lib.model.make_spec(data["k"], data["rows"], data["partial"])


def _verdict_data(verdict) -> dict:
    """A Verdict as JSON data: the offsets stand for the labeling, whose labels follow from them."""
    return {
        "glp": verdict.glp,
        "offsets": sorted(verdict.labeling.offsets.items()) if verdict.labeling else None,
        "witness": verdict.witness,
        "classes": sorted(verdict.classes.items()) if verdict.classes else None,
    }


def _verdict(lib, k: int, data: dict):
    labeling = lib.glp.Labeling(k, dict(data["offsets"]), {}) if data["offsets"] is not None else None
    return lib.glp.Verdict(
        glp=data["glp"],
        labeling=labeling,
        witness=tuple(data["witness"]) if data["witness"] is not None else None,
        classes=dict(data["classes"]) if data["classes"] is not None else None,
    )


def _report_data(report) -> dict:
    return {"valid": report.valid, "lines": report.lines()}


class Sweep:
    """Acceptance-sweep shape: plain and symmetrized growth, validate, two deciders each."""

    name = "sweep"
    MIN_UNITS = 20
    UNITS_PER_S = 15.7  # one unit is a plain and a symmetrized spec

    def __init__(self, lib, seed: int, workdir: Path, tiny: bool) -> None:
        self.lib = lib
        self.rng = random.Random(seed)
        self.targets = 11 if tiny else 59  # growth targets 2 .. 1 + targets
        self.offset = self.rng.randrange(self.targets)
        self.seeds: list[int] = []

    def units(self, seconds: float) -> int:
        return max(self.MIN_UNITS, round(seconds * self.UNITS_PER_S))

    def setup(self) -> None:
        """Inputs are (k, target, growth seed) triples drawn lazily from the seed."""

    def load(self) -> None:
        pass

    def item(self, i: int) -> tuple[int, int, int]:
        """k cycles through 3..12; targets follow the acceptance stride 7 from a seeded offset."""
        while len(self.seeds) <= i:
            self.seeds.append(self.rng.randrange(2**31))
        return 3 + i % 10, 2 + (7 * i + self.offset) % self.targets, self.seeds[i]

    def _grow(self, kind: str, k: int, target: int, seed: int) -> dict:
        lib = self.lib
        op = {"kind": kind, "k": k, "target": target, "seed": seed}
        try:
            spec = lib.construct.random_valid_spec(k, target, seed, symmetrize=kind == "symmetrize")
            op["spec"] = spec
            op["report"] = lib.model.validate(spec)
            op["general"] = lib.glp.decide_glp(spec)
            if kind == "plain":
                parity = lib.glp.decide_glp_even if k % 2 == 0 else lib.glp.decide_glp_odd
                op["parity"] = parity(spec)
            else:
                op["slices"] = lib.glp.glp_via_slices(spec)
        except Exception as exc:  # a failed operation is counted, not fatal
            op["error"] = _error(exc)
        return op

    def step(self, i: int, tracer):
        k, target, seed = self.item(i)
        out = []
        for kind in ("plain", "symmetrize"):
            with _root(tracer, "bench.sweep", kind):
                start = perf_counter()
                op = self._grow(kind, k, target, seed)
                out.append((perf_counter() - start, op))
        return out

    def record(self, op: dict) -> dict:
        data = {key: op[key] for key in ("kind", "k", "target", "seed", "error") if key in op}
        if "spec" in op:
            data["spec"] = _rows(op["spec"])
        if "report" in op:
            data["report"] = _report_data(op["report"])
        for name in ("general", "parity", "slices"):
            if name in op:
                data[name] = _verdict_data(op[name])
        return data

    def check(self, records, tally: checks.Tally, digest: checks.Digest) -> None:
        lib = self.lib
        for data in records:
            label = f"{data['kind']} k={data['k']} target={data['target']} seed={data['seed']}"
            op = dict(data)
            if "error" not in data:
                op["spec"] = _spec(lib, data["spec"])
                for name in ("general", "parity", "slices"):
                    if name in data:
                        op[name] = _verdict(lib, data["k"], data[name])
            tally.add(label, checks.sweep_problems(lib, op))
            digest.add(label)
            if "error" in op:
                digest.add(op["error"])
                continue
            digest.add(lib.model.serialize(op["spec"]), *op["report"]["lines"])
            digest.add(op["general"].serialize(), op.get("parity", op.get("slices")).serialize())


class Fractal3:
    """One large configuration: level-3 expansion of the 24-cell k=12 ring (seed unused)."""

    name = "fractal3"
    SECONDS_PER_UNIT = 31.0

    def __init__(self, lib, seed: int, workdir: Path, tiny: bool) -> None:
        self.lib = lib
        self.level = 2 if tiny else 3
        self.expected = {2: (576, 648), 3: (13824, 15768)}[self.level]  # cells, edges
        self.path = workdir / "ring12.snf"

    def units(self, seconds: float) -> int:
        return max(1, round(seconds / self.SECONDS_PER_UNIT))

    def setup(self) -> None:
        lib = self.lib
        self.path.write_text(lib.model.serialize(lib.construct.generate_glp_example(12)), encoding="utf-8")

    def load(self) -> None:
        self.base = self.lib.model.parse(self.path.read_text(encoding="utf-8"))

    def _pipeline(self) -> dict:
        lib = self.lib
        op: dict = {}
        try:
            expanded = lib.construct.expand(self.base, self.level)
            spec = op["spec"] = lib.model.make_spec(12, [c.barycenter for c in expanded.cells])
            op["report"] = lib.model.validate(spec)
            verdict = op["general"] = lib.glp.decide_glp(spec)
            op["labeled"] = lib.glp.check_labeling(spec, verdict.labeling) if verdict.glp else None
            op["slices"] = lib.glp.glp_via_slices(spec)
            op["svg"] = lib.render.render_svg(spec, verdict, lib.render.RenderOptions(show_labels=True))
            op["text"] = lib.model.serialize(spec)
        except Exception as exc:  # a failed operation is counted, not fatal
            op["error"] = _error(exc)
        return op

    def step(self, i: int, tracer):
        with _root(tracer, "bench.fractal3", "pipeline"):
            start = perf_counter()
            op = self._pipeline()
            return [(perf_counter() - start, op)]

    def record(self, op: dict) -> dict:
        if "error" in op:
            return {"error": op["error"]}
        return {
            "text": op["text"],
            "report": _report_data(op["report"]),
            "general": _verdict_data(op["general"]),
            "labeled": op["labeled"],
            "slices": _verdict_data(op["slices"]),
            "svg": op["svg"],
        }

    def _problems(self, op: dict) -> list[checks.Problem]:
        lib = self.lib
        Problem = checks.Problem
        spec, general = op["spec"], op["general"]
        problems = []
        edges, _ = lib.model.find_adjacencies(spec)
        if (spec.n, len(edges)) != self.expected:
            problems.append(Problem(f"{spec.n} cells / {len(edges)} edges, expected {self.expected}"))
        if not op["report"]["valid"]:
            problems.append(Problem("validate rejects the expansion: " + ", ".join(op["report"]["lines"])))
        if general.glp:
            if not op["labeled"]:
                problems.append(Problem("decide_glp labeling fails check_labeling"))
        else:
            problems += checks.witness_problems(lib, spec, general.witness)
        problems += checks.slices_problems(lib, spec, general, op["slices"])
        if not op["svg"].startswith("<?xml") or op["svg"].count("<polygon ") != spec.n:
            problems.append(Problem("SVG does not draw one polygon per cell"))
        if lib.model.serialize(spec) != op["text"]:
            problems.append(Problem("serialize/parse round trip changes the text"))
        return problems

    def check(self, records, tally: checks.Tally, digest: checks.Digest) -> None:
        lib = self.lib
        for idx, data in enumerate(records):
            if "error" in data:
                tally.add(f"pipeline {idx}", [checks.Problem(data["error"])])
                if idx == 0:
                    digest.add(data["error"])
                continue
            op = dict(data, spec=lib.model.parse(data["text"]))
            op["general"] = _verdict(lib, 12, data["general"])
            op["slices"] = _verdict(lib, 12, data["slices"])
            tally.add(f"pipeline {idx}", self._problems(op))
            if idx == 0:
                digest.add(op["text"], *op["report"]["lines"], op["general"].serialize(), op["labeled"])
                digest.add(op["slices"].serialize(), op["svg"])


class Cli:
    """Closed loop, one caller: ``snfglp.cli.run`` on small .snf files, whole passes in seeded order."""

    name = "cli"
    REQUESTS_PER_S = 82.0
    SYM_TARGET = 40  # fixed, so the seed changes growth but not the request mix's size

    def __init__(self, lib, seed: int, workdir: Path, tiny: bool) -> None:
        self.lib = lib
        self.seed = seed
        self.tiny = tiny
        self.inputs = workdir / "inputs"
        self.svgs = workdir / "svg"
        self.manifest = workdir / "manifest.json"

    # -- inputs --------------------------------------------------------------

    def _specs(self) -> dict:
        """Catalog, generated glp/noglp rings, symmetrized growth, and folded shifts."""
        lib = self.lib
        rng = random.Random(self.seed)
        specs = {f"catalog-{name}": lib.model.catalog(name) for name in lib.model.CATALOG_NAMES}
        for k in range(3, 9 if self.tiny else 37):
            specs[f"glp-k{k}"] = lib.construct.generate_glp_example(k)
            if not lib.glp.classify_k(k).always_glp:
                specs[f"noglp-k{k}"] = lib.construct.generate_counterexample(k)
        for k in range(3, 6 if self.tiny else 13):
            seed = rng.randrange(2**31)
            specs[f"sym-k{k}"] = lib.construct.random_valid_spec(k, self.SYM_TARGET, seed, symmetrize=True)
        for name in list(specs):
            if specs[name].k <= 12 or specs[name].k == 36:
                specs[f"{name}-shift"] = self._shift(specs[name], rng)
        return specs

    def _shift(self, spec, rng: random.Random):
        """Add m * zeta^j * Phi_k (zero in Z[zeta_k]) to every barycenter, |coefficients| <= 2^30.

        Cyclotomic polynomials up to k = 36 have coefficients in {-1, 0, 1}.
        """
        lib = self.lib
        k = spec.k
        phi = lib.cyclotomic.cyclotomic_polynomial(k).coeffs
        bound = 2**30 - max(abs(c) for cell in spec.cells for c in cell.barycenter.coeffs)
        rows = []
        for cell in spec.cells:
            j, m = rng.randrange(k), rng.randint(-bound, bound)
            row = list(cell.barycenter.coeffs)
            for d, c in enumerate(phi):
                row[(d + j) % k] += m * c
            rows.append(row)
        return lib.model.make_spec(k, rows, spec.partial)

    def setup(self) -> None:
        lib = self.lib
        self.inputs.mkdir(parents=True, exist_ok=True)
        entries = []
        for name, spec in self._specs().items():
            (self.inputs / f"{name}.snf").write_text(lib.model.serialize(spec), encoding="utf-8")
            base = name[: -len("-shift")] if name.endswith("-shift") else name
            entries.append({"id": name, "base": base, "k": spec.k, "partial": spec.partial})
        self.manifest.write_text(json.dumps(entries, indent=1), encoding="utf-8")

    def load(self) -> None:
        """Requests: every applicable decide method, validate, slices --closed, label --svg."""
        self.svgs.mkdir(parents=True, exist_ok=True)
        self.entries = {e["id"]: e for e in json.loads(self.manifest.read_text(encoding="utf-8"))}
        self.requests: list[tuple[str, list[str]]] = []
        for e in self.entries.values():
            path = str(self.inputs / f"{e['id']}.snf")
            methods = ["general", "even" if e["k"] % 2 == 0 else "odd"]
            if not e["partial"]:
                methods.append("slices")
            for method in methods:
                self.requests.append((e["id"], ["decide", path, "--method", method]))
            self.requests.append((e["id"], ["validate", path]))
            self.requests.append((e["id"], ["slices", path, "--closed"]))
            self.requests.append((e["id"], ["label", path, "--svg", str(self.svgs / f"{e['id']}.svg")]))
        self._orders: dict[int, list[int]] = {}

    def units(self, seconds: float) -> int:
        """Whole passes over the requests."""
        passes = max(1, round(seconds * self.REQUESTS_PER_S / len(self.requests)))
        return passes * len(self.requests)

    def _request(self, i: int) -> int:
        """Index of the i-th request sent: whole passes, each in its own seeded order."""
        pass_no, pos = divmod(i, len(self.requests))
        if pass_no not in self._orders:
            order = list(range(len(self.requests)))
            random.Random(self.seed * 1_000_003 + pass_no).shuffle(order)
            self._orders = {pass_no: order}
        return self._orders[pass_no][pos]

    def step(self, i: int, tracer):
        index = self._request(i)
        argv = self.requests[index][1]
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdout, sys.stderr
        with _root(tracer, "bench.cli", argv[0]):
            sys.stdout, sys.stderr = out, err
            start = perf_counter()
            try:
                code = self.lib.cli.run(argv)
            except Exception as exc:  # an internal exception is a failed request
                code = None
                err.write(_error(exc))
            finally:
                elapsed = perf_counter() - start
                sys.stdout, sys.stderr = saved
        return [(elapsed, (index, code, out.getvalue()))]

    def record(self, result: tuple) -> list:
        return list(result)

    # -- checks --------------------------------------------------------------

    def _key(self, index: int) -> tuple[str, ...]:
        """The request with file paths replaced by input ids (stable across checkouts)."""
        file_id, argv = self.requests[index]
        return (argv[0], file_id, *(argv[2:-2] if argv[0] == "label" else argv[2:]))

    def check(self, records, tally: checks.Tally, digest: checks.Digest) -> None:
        """Each request against its unshifted input's reference, in request order, then every repeat."""
        lib = self.lib
        first: dict[int, tuple] = {}
        for index, code, out in records:
            first.setdefault(index, (code, out))
        index_of = {self._key(i): i for i in range(len(self.requests))}
        refs: dict[int, checks.CliReference] = {}
        memos: dict[str, dict] = {}
        specs: dict[str, object] = {}
        problems_of: dict[int, list[checks.Problem]] = {}
        for index in sorted(first):
            file_id, argv = self.requests[index]
            base = self.entries[file_id]["base"]
            key = self._key(index)
            base_index = index_of[(key[0], base, *key[2:])]
            if base not in specs:
                specs[base] = lib.model.parse((self.inputs / f"{base}.snf").read_text(encoding="utf-8"))
            if base_index not in refs:
                base_argv = self.requests[base_index][1]
                refs[base_index] = checks.cli_reference(lib, specs[base], base_argv, memos.setdefault(base, {}))
            ref = refs[base_index]
            shifted = base != file_id
            if shifted and ref.stdout is None:
                ref = dataclasses.replace(ref, stdout=first[base_index][1])
            code, out = first[index]
            problems = checks.cli_problems(ref, code, out, shifted)
            svg = ""
            if argv[0] == "label" and code in (0, 1):
                svg = Path(argv[-1]).read_text(encoding="utf-8")
                if svg.count("<polygon ") != ref.cells:
                    known = "shifted-input" if shifted else None
                    problems.append(checks.Problem("SVG does not draw one polygon per cell", known))
            problems_of[index] = problems
            digest.add(" ".join(key), code, out, svg)
        for index, code, out in records:
            problems = list(problems_of[index])
            if (code, out) != first[index]:
                problems.append(checks.Problem("output differs between repeats of the request"))
            tally.add(" ".join(self._key(index)), problems)


WORKLOADS = {w.name: w for w in (Sweep, Fractal3, Cli)}
