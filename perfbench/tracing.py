"""Span tracing for the traced benchmark run.

Layer functions are wrapped at every module-level name their callers look
up (``model.cells_conflict``, ``construct.cells_conflict``,
``glp.find_adjacencies`` ...), so each call records a span with its parent.
Spans stay in memory until the run ends.  Per-vertex kernel calls are not
wrapped: the cyclotomic layer is counted through the LRU ``cache_info``
deltas and a counter on ``CycInt.__init__``.
"""
from __future__ import annotations

import contextlib
import json
import statistics
from time import perf_counter

# (module, attribute) of every traced layer function, in report order.
LAYERS = (
    ("model", "cells_conflict"),
    ("model", "find_adjacencies"),
    ("model", "validate"),
    ("model", "parse"),
    ("model", "serialize"),
    ("glp", "build_constraint_graph"),
    ("glp", "make_labeling"),
    ("glp", "check_labeling"),
    ("glp", "decide_glp"),
    ("glp", "decide_glp_even"),
    ("glp", "decide_glp_odd"),
    ("glp", "glp_via_slices"),
    ("glp", "slices"),
    ("construct", "random_valid_spec"),
    ("construct", "expand"),
    ("render", "render_svg"),
    ("cli", "run"),
)

SPAN_FIELDS = ("id", "parent", "root", "name", "case", "k", "n", "start", "end", "value")


def _variant(name: str, args, kwargs) -> str:
    """Sub-case of a layer call that the report keeps apart."""
    if name == "construct.random_valid_spec":
        sym = kwargs.get("symmetrize", args[3] if len(args) > 3 else False)
        return "symmetrize" if sym else "plain"
    if name == "cli.run":
        argv = args[0] if args else kwargs.get("argv")
        return argv[0] if argv else ""
    return ""


def _value(name: str, result):
    """Per-call outcome the report needs: a conflict flag or an output size."""
    if name == "model.cells_conflict":
        return bool(result)
    if name == "render.render_svg":
        return len(result)
    return None


class Tracer:
    """Installs wrappers, records spans, and restores every wrapped name on exit."""

    def __init__(self, snfglp) -> None:
        self._pkg = snfglp
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._roots: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.cycint_constructed = 0
        self._cache_before: dict[str, object] = {}
        self.cache_delta: dict[str, tuple[int, int]] = {}

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str, case: str, spec) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        root = self._roots[parent] if parent >= 0 else sid
        k, n = (spec.k, spec.n) if spec is not None else (0, 0)
        self.spans.append([sid, parent, root, name, case, k, n, perf_counter(), 0.0, None])
        self._roots.append(root)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][8] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name: str, case: str):
        """The benchmark's own span around one operation; ``case`` labels its records."""
        sid = self._open(name, case, None)
        try:
            yield
        finally:
            self._close(sid)

    def _wrap(self, name: str, fn):
        spec_type = self._pkg.model.FractalSpec
        tracer = self

        def traced(*args, **kwargs):
            spec = next((a for a in args if isinstance(a, spec_type)), None)
            sid = tracer._open(name, _variant(name, args, kwargs), spec)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            span = tracer.spans[sid]
            if spec is None and isinstance(result, spec_type):
                span[5], span[6] = result.k, result.n
            span[9] = _value(name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- install / restore ---------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> Tracer:
        pkg = self._pkg
        modules = [pkg] + [getattr(pkg, m) for m in ("cyclotomic", "model", "glp", "construct", "render", "cli")]
        for mod_name, attr in LAYERS:
            original = getattr(getattr(pkg, mod_name), attr)
            wrapper = self._wrap(f"{mod_name}.{attr}", original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, name, wrapper)
        verdict = pkg.glp.Verdict
        self._set(verdict, "serialize", self._wrap("glp.Verdict.serialize", verdict.serialize))

        cycint = pkg.cyclotomic.CycInt
        init = cycint.__init__

        def counting_init(obj, *args, **kwargs):
            self.cycint_constructed += 1
            init(obj, *args, **kwargs)

        self._set(cycint, "__init__", counting_init)
        self._cache_before = {name: self._cache_info(name) for name in ("canonical", "cartesian")}
        return self

    def __exit__(self, *exc) -> None:
        for name, before in self._cache_before.items():
            after = self._cache_info(name)
            self.cache_delta[name] = (after[0] - before[0], after[1] - before[1])
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def _cache_info(self, name: str) -> tuple[int, int]:
        """(hits, misses) of the cyclotomic ``_<name>`` LRU cache, zeros if it is gone."""
        cached = getattr(self._pkg.cyclotomic, f"_{name}", None)
        if cached is None or not hasattr(cached, "cache_info"):
            return (0, 0)
        info = cached.cache_info()
        return (info.hits, info.misses)

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the time its direct children cover."""
        out = [s[8] - s[7] for s in self.spans]
        for s in self.spans:
            if s[1] >= 0:
                out[s[1]] -= s[8] - s[7]
        return out

    def records(self) -> list[dict]:
        """Per-layer records ``{layer, case, n, k, seconds, ops}``; case is the root span's."""
        selfs = self.self_times()
        grouped: dict[tuple, list] = {}
        for s, own in zip(self.spans, selfs):
            if s[1] < 0:
                continue
            layer = s[3] + (f".{s[4]}" if s[4] else "")
            key = (layer, self.spans[s[2]][4], s[6], s[5])
            acc = grouped.setdefault(key, [0.0, 0])
            acc[0] += own
            acc[1] += 1
        return [
            {"layer": layer, "case": case, "n": n, "k": k, "seconds": acc[0], "ops": acc[1]}
            for (layer, case, n, k), acc in sorted(grouped.items())
        ]

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metric name -> (value, unit)."""
        selfs = self.self_times()
        by_name: dict[str, list[int]] = {}
        for s in self.spans:
            by_name.setdefault(s[3], []).append(s[0])

        def calls(name: str) -> int:
            return len(by_name.get(name, ()))

        def self_s(name: str, variant: str | None = None) -> float:
            return sum(
                (selfs[i] for i in by_name.get(name, ()) if variant is None or self.spans[i][4] == variant),
                0.0,
            )

        out: dict[str, tuple[float, str]] = {}
        hits, misses = self.cache_delta.get("canonical", (0, 0))
        out["cyclotomic.canonical.misses"] = (misses, "count")
        out["cyclotomic.canonical.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
        out["cyclotomic.cycint.constructed"] = (self.cycint_constructed, "count")
        out["cyclotomic.cartesian.misses"] = (self.cache_delta.get("cartesian", (0, 0))[1], "count")

        conflicts = by_name.get("model.cells_conflict", [])
        out["model.cells_conflict.calls"] = (len(conflicts), "count")
        out["model.cells_conflict.self_s"] = (self_s("model.cells_conflict"), "s")
        hit = sum(1 for i in conflicts if self.spans[i][9])
        out["model.cells_conflict.conflict_ratio"] = (hit / len(conflicts) if conflicts else 0.0, "ratio")
        out["model.find_adjacencies.calls"] = (calls("model.find_adjacencies"), "count")
        out["model.find_adjacencies.self_s"] = (self_s("model.find_adjacencies"), "s")
        for name in ("validate", "parse", "serialize"):
            out[f"model.{name}.self_s"] = (self_s(f"model.{name}"), "s")

        out["glp.build_constraint_graph.calls"] = (calls("glp.build_constraint_graph"), "count")
        for name in (
            "build_constraint_graph", "make_labeling", "check_labeling", "decide_glp",
            "decide_glp_even", "decide_glp_odd", "glp_via_slices", "slices", "Verdict.serialize",
        ):
            out[f"glp.{name}.self_s"] = (self_s(f"glp.{name}"), "s")

        for variant in ("plain", "symmetrize"):
            out[f"construct.random_valid_spec.{variant}.self_s"] = (
                self_s("construct.random_valid_spec", variant), "s"
            )
        growth = by_name.get("construct.random_valid_spec", [])
        grown_cells = sum(self.spans[i][6] for i in growth)
        growth_set = set(growth)
        growth_tests = sum(1 for i in conflicts if self.spans[i][1] in growth_set)
        out["construct.random_valid_spec.cells_per_conflict_test"] = (
            grown_cells / growth_tests if growth_tests else 0.0, "ratio"
        )
        out["construct.expand.self_s"] = (self_s("construct.expand"), "s")

        renders = by_name.get("render.render_svg", [])
        out["render.render_svg.self_s"] = (self_s("render.render_svg"), "s")
        out["render.render_svg.bytes"] = (sum(self.spans[i][9] for i in renders), "B")

        for command in ("decide", "validate", "slices", "label"):
            durations = [
                self.spans[i][8] - self.spans[i][7]
                for i in by_name.get("cli.run", ())
                if self.spans[i][4] == command
            ]
            out[f"cli.run.{command}.p50_ms"] = (
                statistics.median(durations) * 1000.0 if durations else 0.0, "ms"
            )
        return out

    def layer_self_total(self) -> float:
        """Self time summed over every library span (the benchmark's root spans excluded)."""
        return sum(own for s, own in zip(self.spans, self.self_times()) if s[1] >= 0)

    def dump(self, path, header: dict) -> None:
        """Write records and spans as one JSON document."""
        doc = dict(header, records=self.records(), span_fields=list(SPAN_FIELDS), spans=self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
