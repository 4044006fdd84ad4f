"""Traced passes: spans around the program's public functions, from outside.

Each public function is wrapped at the module attribute its caller looks up
at call time, so the program's own files stay untouched.  A span records
name, start, end and parent; spans stay in memory until the pass ends.
A span's self time is its duration minus the durations of its child spans.
Wrapper cost lands in the caller's self time, and the work of reading counts
from returned objects is recorded as ``trace.observe`` spans, which no layer
reports.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, attribute looked up by the caller, span name).  Spans that no
# metric reports still keep their time out of their caller's self time.
WRAPPED = (
    ("cli", "run", "cli.run"),
    ("cli", "covering_collection", "atlas.covering_collection"),
    ("cli", "chart_equations", "ideals.chart_equations"),
    ("cli", "dimension", "ideals.dimension"),
    ("cli", "is_unit_ideal", "ideals.is_unit_ideal"),
    ("divdiff", "build_chart", "atlas.build_chart"),
    ("divdiff", "substitute", "polyring.substitute"),
    ("divdiff", "transplant", "polyring.transplant"),
    ("divdiff", "divide_by_variable", "polyring.divide"),
    ("divdiff", "parse_poly", "polyring.parse"),
    ("ideals", "projection_to_Xr", "atlas.projection"),
    ("ideals", "difference_chain", "divdiff.chain"),
    ("ideals", "normalize", "polyring.normalize"),
    ("ideals", "groebner", "ideals.groebner"),
    ("ideals", "chart_equations", "ideals.chart_equations"),
    ("ideals", "kr_equations", "ideals.kr_equations"),
    ("polyring", "render", "polyring.render"),
    ("polyring", "parse_poly", "polyring.parse"),
    ("verify", "difference_chain", "divdiff.chain"),
    ("verify", "classical_corank1", "divdiff.classical_corank1"),
    ("verify", "corank1_translate", "divdiff.corank1_translate"),
    ("verify", "substitute", "polyring.substitute"),
    ("verify", "transplant", "polyring.transplant"),
    ("verify", "normalize", "polyring.normalize"),
    ("verify", "evaluate", "polyring.evaluate"),
    ("verify", "check_telescoping", "verify.telescoping"),
    ("verify", "check_strict_points", "verify.strict"),
    ("verify", "check_overlap", "verify.overlap"),
    ("verify", "check_diagonal_kernel", "verify.kernel"),
    ("verify", "check_corank1", "verify.corank1"),
)

# per-layer metric -> span name whose summed self time it reports
SELF_TIMES = {
    "cli.self_s": "cli.run",
    "atlas.build_chart_s": "atlas.build_chart",
    "atlas.projection_s": "atlas.projection",
    "divdiff.chain_s": "divdiff.chain",
    "polyring.substitute_s": "polyring.substitute",
    "polyring.transplant_s": "polyring.transplant",
    "polyring.divide_s": "polyring.divide",
    "polyring.normalize_s": "polyring.normalize",
    "polyring.evaluate_s": "polyring.evaluate",
    "polyring.render_s": "polyring.render",
    "polyring.parse_s": "polyring.parse",
    "ideals.groebner_s": "ideals.groebner",
    "ideals.dimension_s": "ideals.dimension",
    "verify.telescoping_s": "verify.telescoping",
    "verify.strict_s": "verify.strict",
    "verify.overlap_s": "verify.overlap",
    "verify.kernel_s": "verify.kernel",
    "verify.corank1_s": "verify.corank1",
}

# per-layer metric -> span name whose number of calls it reports
CALLS = {
    "atlas.build_chart_calls": "atlas.build_chart",
    "divdiff.chain_calls": "divdiff.chain",
    "polyring.substitute_calls": "polyring.substitute",
    "polyring.evaluate_calls": "polyring.evaluate",
}

OBSERVE = "trace.observe"


def _poly_terms(polys) -> int:
    return sum(len(p.terms) for p in polys)


def _coeff_bits(polys) -> int:
    return max((max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                for p in polys for c in p.terms.values()), default=0)


class Tracer:
    """Spans and exact counts for one traced pass."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self._chain_keys: set = set()
        self._handles: dict = {}  # id -> handle, kept alive so ids stay unique
        self._observers = {
            "divdiff.chain": self._saw_chain,
            "ideals.groebner": self._saw_basis,
            "verify.telescoping": self._saw_report,
            "verify.strict": self._saw_report,
            "verify.overlap": self._saw_report,
            "verify.kernel": self._saw_report,
            "verify.corank1": self._saw_report,
        }

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, start, end,
                           self._stack[-1] if self._stack else -1)

    def wrap(self, name: str, fn):
        observe = self._observers.get(name)

        def traced(*args, **kwargs):
            idx = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, name, start)
            if observe is not None:
                idx = self._open()
                start = time.perf_counter()
                observe(args, result)
                self._close(idx, OBSERVE, start)
            return result

        return traced

    # ---- observers: exact counts read from returned objects --------------

    def _saw_chain(self, args, chain) -> None:
        f = chain.f
        self._chain_keys.add((
            f.table.names, f.s,
            tuple(tuple(sorted(c.terms.items())) for c in f.coords),
            chain.chart.r, chain.chart.alpha))
        self.counts["divdiff.chain_terms"] += sum(
            _poly_terms(level) for level in chain.levels)

    def _saw_basis(self, args, basis) -> None:
        handle = args[0]
        if id(handle) in self._handles:
            return
        self._handles[id(handle)] = handle
        self.counts["ideals.basis_elems"] += len(basis)
        self.counts["ideals.basis_terms"] += _poly_terms(basis)
        self.counts["ideals.coeff_bits_max"] = max(
            self.counts["ideals.coeff_bits_max"], _coeff_bits(basis))

    def _saw_report(self, args, report) -> None:
        self.counts["verify.trials"] += report.trials
        self.counts["verify.skipped"] += report.skipped

    # ---- results ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), below in zip(self.spans, child):
            out[name] += end - start - below
        return out

    def metrics(self) -> tuple[dict[str, float], dict[str, float]]:
        """(times, counts) for the pass, keyed by per-layer metric name."""
        own = self.self_times()
        times = {metric: own.get(span, 0.0) for metric, span in SELF_TIMES.items()}
        calls = Counter(span[0] for span in self.spans)
        counts = {metric: calls[span] for metric, span in CALLS.items()}
        for key in ("divdiff.chain_terms", "ideals.basis_elems",
                    "ideals.basis_terms", "ideals.coeff_bits_max",
                    "verify.trials"):
            counts[key] = self.counts[key]
        # each distinct ideal's basis is computed once and cached on its handle
        counts["ideals.groebner_calls"] = len(self._handles)
        counts["divdiff.chain_calls_per_chart"] = (
            counts["divdiff.chain_calls"] / len(self._chain_keys)
            if self._chain_keys else 0.0)
        attempts = self.counts["verify.trials"] + self.counts["verify.skipped"]
        counts["verify.useful_ratio"] = (
            self.counts["verify.trials"] / attempts if attempts else 0.0)
        groebner = [end - start for name, start, end, _ in self.spans
                    if name == "ideals.groebner"]
        times["ideals.slowest_chart_share"] = (
            max(groebner) / sum(groebner) if groebner else 0.0)
        return times, counts

    def write(self, path) -> None:
        """Spans as tab-separated rows: index, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\n")
            for idx, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{idx}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


@contextmanager
def installed(tracer: Tracer):
    """Patch every wrapped attribute for the duration of the block, and every
    entry of ``verify.SUITES`` that holds a wrapped function, so that a suite
    reached through the registry is traced even when it is not a shim that
    looks the function up at call time."""
    import importlib

    saved = []
    wrapped = {}  # id of original -> its wrapper
    try:
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(f"multipoint.{module_name}")
            original = getattr(module, attr)
            saved.append((vars(module), attr, original))
            wrapped.setdefault(id(original), tracer.wrap(name, original))
            setattr(module, attr, wrapped[id(original)])
        suites = importlib.import_module("multipoint.verify").SUITES
        for key, fn in list(suites.items()):
            if id(fn) in wrapped:
                saved.append((suites, key, fn))
                suites[key] = wrapped[id(fn)]
        yield tracer
    finally:
        for namespace, key, original in reversed(saved):
            namespace[key] = original
