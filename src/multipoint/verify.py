"""Property suites tying the symbolic equations to their geometric meaning.

Every check works in exact rational arithmetic; a suite returns a report
whose failure list is empty exactly when the property held on every trial.
Sampling is driven by a seeded generator, so reports are reproducible.
Every suite takes one ``CheckRun``: the chart equations of one run, built
once, on first read, and shared by all suites, its sampling parameters and
any supplied witnesses.

Telescoping checks each chain level against the one before through the
defining recursion, with ``substitute``.  It takes level 0 and the level
shifts from a copy of the chain's map, one per map and run, and never from
the map itself, so no memo the chain filled can hide a wrong level.

The two point suites judge against one truth, the images of a strict tuple:
on any chart that represents the tuple, the generators vanish exactly when
its source points share one image.  strict-points tests this on the chart
the tuple was drawn on, overlap on every other chart.  Both judge the
run's one strict sample, drawn by the first of them to read it, and each
configuration of it keeps which generators, by identity, vanish at its
tuple, so a level that charts share through an alpha prefix is evaluated
there once.  Every chart and source point they handle, from the draw to
the judge, is integers over one denominator (``ScaledPoint``, the layout
of ``Chart.project`` and ``TupleEncoding``); ``Fraction``s are left in the
random draws, in ``evaluate``'s values and in the text of failure rows.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterator, NamedTuple, Sequence

from .atlas import (
    Chart,
    TupleEncoding,
    _default_param_names,
    _join,
    _lowest,
    standard_collection,
)
from .divdiff import (
    DifferenceChain,
    PolyMap,
    classical_corank1,
    corank1_translate,
    difference_chain,
)
from .ideals import ChartEquations
from .polyring import (
    Poly,
    ScaledPoint,
    VarTable,
    differentiate,
    divide_by_variable,
    evaluate,
    normalize,
    scale_point,
    substitute,
    transplant,
)


@dataclass(frozen=True)
class SampleConfig:
    """Reproducible sampling parameters for the randomized suites."""

    seed: int = 0
    trials: int = 25
    coeff_bound: int = 4
    degree_bound: int = 3

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.coeff_bound < 1 or self.degree_bound < 1:
            raise ValueError("bounds must be >= 1")


@dataclass
class VerifyReport:
    """Outcome of one suite: counts plus (description, expected, actual) rows."""

    suite: str
    trials: int = 0
    failures: list[tuple[str, str, str]] = field(default_factory=list)
    skipped: int = 0

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, description: str, expected, actual):
        self.failures.append((description, str(expected), str(actual)))

    def summary(self) -> str:
        state = "pass" if self.passed else "FAIL"
        extra = f", {self.skipped} skipped" if self.skipped else ""
        return (f"{self.suite}: {state} "
                f"({self.trials} trials, {len(self.failures)} failures{extra})")


# ---- sampling helpers ------------------------------------------------------


def rand_fraction(rng: random.Random, bound: int, nonzero: bool = False) -> Fraction:
    while True:
        num = rng.randint(-bound, bound)
        if nonzero and num == 0:
            continue
        return Fraction(num, rng.randint(1, bound))


def rand_poly(rng: random.Random, table: VarTable, degree_bound: int,
              coeff_bound: int) -> Poly:
    """Up to four random terms; like terms are summed."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exps = [0] * len(table)
        budget = rng.randint(0, degree_bound)
        for _ in range(budget):
            exps[rng.randrange(len(table))] += 1
        c = rng.randint(-coeff_bound, coeff_bound)
        if c:
            key = tuple(exps)
            terms[key] = terms.get(key, 0) + c
    return Poly(table, terms)


def rand_polymap(rng: random.Random, n: int, p: int, s: int,
                 cfg: SampleConfig) -> PolyMap:
    """Random map with an s-variable identity prefix in unfolding form."""
    if not 0 <= s < n or p < s:
        raise ValueError("need 0 <= s < n and p >= s")
    if n <= 3:
        base = ("x", "y", "z")[:n - s]
    else:
        base = tuple(f"x{i}" for i in range(1, n - s + 1))
    params = _default_param_names(s)
    table = VarTable(list(params) + list(base))
    coords = [Poly.variable(table, nm) for nm in params]
    for _ in range(p - s):
        coords.append(rand_poly(rng, table, cfg.degree_bound, cfg.coeff_bound))
    return PolyMap(table, coords, s=s)


def _rand_chart_point(rng: random.Random, chart: Chart, cfg: SampleConfig) -> ScaledPoint:
    lambdas = set(chart.lambda_names)
    return scale_point([rand_fraction(rng, cfg.coeff_bound, nonzero=nm in lambdas)
                        for nm in chart.table.names])


# ---- telescoping -----------------------------------------------------------


def telescoping_failures(chain: DifferenceChain,
                         own: PolyMap | None = None) -> list[tuple[str, str, str]]:
    """Violations of the defining recursion of the chain, as report rows.

    Level 0 and each level's shift come from ``own``, a second map with the
    table, coordinates and parameters of ``chain.f`` (built here when not
    given), never from ``chain.f`` itself: its shifts are separate objects,
    so no expansion the chain was built with is reused.
    """
    chart = chain.chart
    f = chain.f
    if own is None:
        own = PolyMap(f.table, f.coords, f.s)
    out = []
    levels = [own.level(chart, 0), *chain.levels]
    for j in range(1, len(chain.levels) + 1):
        shift = own.shift_for(chart, j)
        lam = Poly.variable(chart.table, chart.lambda_names[j - 1])
        for idx, (prev, cur) in enumerate(zip(levels[j - 1], levels[j])):
            lhs = lam * cur
            rhs = substitute(prev, shift) - prev
            if lhs != rhs:
                out.append((f"{chart.name()} level {j} component {idx + 1}",
                            str(rhs), str(lhs)))
    return out


def check_telescoping(run: CheckRun, _corrupt: bool = False) -> VerifyReport:
    """Exact symbolic telescoping on every chart and level; deterministic.

    The check keeps one copy of each map per run, whose level 0 and shifts
    it reads.  ``_corrupt`` checks a broken copy of the first chain
    (negative control).
    """
    report = VerifyReport(suite="telescoping")
    copies: dict[PolyMap, PolyMap] = {}
    for k, ce in enumerate(run.eqs):
        chain = ce.chain
        f = chain.f
        if _corrupt and k == 0:
            broken = list(list(level) for level in chain.levels)
            broken[0][0] = broken[0][0] + 1
            chain = DifferenceChain(f=f, chart=chain.chart,
                                    levels=tuple(tuple(lv) for lv in broken))
        own = copies.get(f)
        if own is None:
            own = copies[f] = PolyMap(f.table, f.coords, f.s)
        report.trials += len(chain.levels) * len(chain.levels[0])
        report.failures.extend(telescoping_failures(chain, own))
    return report


# ---- strict configurations -------------------------------------------------


def antipodal_variable(f: PolyMap) -> int | None:
    """The index among f's fiber variables of the first v whose sign flip
    fixes every coordinate function, or None when f is even in none."""
    table = f.table
    for k, vname in enumerate(f.fiber_names):
        flipped = {vname: -Poly.variable(table, vname)}
        if all(substitute(c, flipped) == c for c in f.coords):
            return k
    return None


def witnesses_per_chart(trials: int) -> int:
    """How many antipodal witnesses the strict sample tries on each chart
    of a run whose ``_witness_variable`` is not None."""
    return max(1, trials // 2)


def _witness_variable(f: PolyMap, r: int) -> int | None:
    """The fiber variable whose antipodal pairs an order-r run of f adds to
    its strict sample: ``antipodal_variable(f)`` at r = 2, else None."""
    return antipodal_variable(f) if r == 2 else None


def judged_points(f: PolyMap, r: int, charts: int, cfg: SampleConfig,
                  names: Sequence[str]) -> int:
    """At most the chart points the point suites among ``names`` judge in a
    run of ``cfg`` on ``charts`` order-r charts of f, decided before any
    chain is built: strict-points one per trial and one per antipodal
    witness on each chart, overlap each of those on every other chart."""
    per_chart = cfg.trials + (0 if _witness_variable(f, r) is None
                              else witnesses_per_chart(cfg.trials))
    points = 0
    if "strict" in names:
        points += per_chart * charts
    if "overlap" in names:
        points += per_chart * charts * (charts - 1)
    return points


def _antipodal_witnesses(f: PolyMap, k: int | None, chart: Chart, rng: random.Random,
                         cfg: SampleConfig) -> list[ScaledPoint]:
    """Chart points of double pairs (v, -v) for maps even in one fiber variable.

    Takes the index k of the fiber variable v that ``_witness_variable``
    gave, or None for no witnesses; the pair (x, x|v->-v) then has equal
    images, and its chart coordinates exist whenever the chosen form does
    not kill 2v.
    """
    if k is None:
        return []
    count = witnesses_per_chart(cfg.trials)
    out = []
    for _ in range(count * 4):
        if len(out) >= count:
            break
        drawn = [rand_fraction(rng, cfg.coeff_bound) for _ in range(f.n)]
        drawn[f.s + k] = rand_fraction(rng, cfg.coeff_bound, nonzero=True)
        nums, d = scale_point(drawn)
        mirror = nums[f.s:]
        mirror[k] = -mirror[k]
        point = TupleEncoding(chart.cc, [(nums[f.s:], d), (mirror, d)],
                              (nums[:f.s], d)).scaled(chart)
        if point is not None:
            out.append(point)
    return out


class Configuration(NamedTuple):
    """One entry of a strict sample.

    ``point`` is the chart point and ``tup`` its source points, each as
    integers over one denominator in lowest terms; ``equal`` says whether
    the source points share one image under f.  A supplied witness whose
    chart is missing from the run has ``ce`` and ``point`` None and its
    description as ``label``.  ``vanishes`` maps the ``id`` of each
    generator judged at the tuple so far to whether it vanishes there (see
    ``_judge``).
    """

    ce: ChartEquations | None
    point: ScaledPoint | None
    tup: list
    label: str
    equal: bool
    vanishes: dict


def _all_equal(values: list) -> bool:
    """Whether every value equals the first, by equality tests alone."""
    return values.count(values[0]) == len(values)


def _strict_configurations(eqs: Sequence[ChartEquations], cfg: SampleConfig,
                           witnesses: Sequence[tuple[tuple, Sequence]]
                           ) -> tuple[list[Configuration], int]:
    """The strict configurations for the point suites, and how many
    witnesses were not strict.

    ``equal`` is decided one fiber coordinate at a time up to the first that
    differs (the parameter coordinates are the identity and agree by
    construction).

    Per chart, in order: random chart points until ``cfg.trials`` are strict
    (at most ``cfg.trials * 20`` draws), then the chart's antipodal
    witnesses; last the supplied ``witnesses``, (alpha, chart point vector)
    pairs.  A point is strict when every lambda is nonzero and its source
    points, projected by ``Chart.project`` and put in lowest terms, are
    pairwise distinct.  Each point is scaled once, when drawn or supplied:
    from there on every chart and source point is a vector of integers
    over one denominator.
    """
    rng = random.Random(cfg.seed)
    cases: list[Configuration] = []
    skipped = 0
    # one run has one map and one order: decide its antipodal variable once
    k = _witness_variable(eqs[0].chain.f, eqs[0].chart.r) if eqs else None

    def strict(ce, point: ScaledPoint, label) -> bool:
        chart = ce.chart
        if any(point.nums[chart.table.index(nm)] == 0 for nm in chart.lambda_names):
            return False
        tup = [_lowest(*x) for x in chart.project(*point)]
        if any(a == b for a, b in itertools.combinations(tup, 2)):
            return False
        params = (point.nums[:chart.s], point.d)
        sources = [ScaledPoint(*_join(params, x)) for x in tup]
        equal = all(_all_equal([evaluate(c, x) for x in sources])
                    for c in ce.chain.f.fiber_coords)
        cases.append(Configuration(ce, point, tup, label, equal, {}))
        return True

    for ce in eqs:
        used = attempts = 0
        while used < cfg.trials and attempts < cfg.trials * 20:
            attempts += 1
            used += strict(ce, _rand_chart_point(rng, ce.chart, cfg), "random")
        points = _antipodal_witnesses(ce.chain.f, k, ce.chart, rng, cfg)
        skipped += sum(not strict(ce, point, "witness") for point in points)
    by_alpha = {ce.chart.alpha: ce for ce in eqs}
    for alpha, point in witnesses:
        ce = by_alpha.get(tuple(alpha))
        if ce is None:
            cases.append(Configuration(None, None, [],
                                       f"witness chart U{tuple(alpha)}", False, {}))
        else:
            skipped += not strict(ce, scale_point(point), "witness")
    return cases, skipped


@dataclass(frozen=True, eq=False)
class CheckRun:
    """One run of the suites: the chart equations, built once and shared by
    every suite, the sampling parameters, and supplied witnesses for the
    point suites, (alpha, chart point vector) pairs.

    ``source`` is the list of chart equations or a function that builds it,
    called on the first read of ``eqs``, so a run whose suites read no
    chart builds none.  The strict sample both point suites judge is drawn
    on first use and kept by this object only, so a run draws it at most
    once.
    """

    source: Sequence[ChartEquations] | Callable[[], Sequence[ChartEquations]]
    cfg: SampleConfig
    witnesses: Sequence[tuple[tuple, Sequence]] = ()

    @cached_property
    def eqs(self) -> Sequence[ChartEquations]:
        return self.source() if callable(self.source) else self.source

    @cached_property
    def _drawn(self) -> tuple[list[Configuration], int]:
        return _strict_configurations(self.eqs, self.cfg, self.witnesses)

    def configurations(self, report: VerifyReport) -> Iterator[Configuration]:
        """Each configuration, counted as a trial of ``report``; a witness
        that is not strict counts as skipped, and one for a missing chart as
        a failure."""
        cases, skipped = self._drawn
        report.skipped += skipped
        for case in cases:
            if case.ce is None:
                report.record(case.label, "a chart", "missing")
            else:
                report.trials += 1
                yield case


# ---- strict points ---------------------------------------------------------


def _judge(report: VerifyReport, generators: Sequence[Poly],
           point: Callable[[], ScaledPoint], equal: bool, where: Callable[[], str],
           vanishes: dict):
    """Record a row unless the generators all vanish at the chart point
    exactly when ``equal``.

    The generators are judged in order, up to the first that does not
    vanish.  ``vanishes`` is the configuration's memo, by ``id``, of the
    generators judged at its tuple: a chain level kept per alpha prefix is
    one object on every chart under the prefix, and the tuple has one
    point on its levels, so it is evaluated once per tuple.  The key is the
    object, never the prefix or the value, so a chart whose generators are
    not the kept ones is judged on its own.  ``point()`` gives the chart
    point, scaled; it is called only when a generator is not in the memo.
    """
    scaled = None
    vanish = True
    for g in generators:
        zero = vanishes.get(id(g))
        if zero is None:
            if scaled is None:
                scaled = point()
            zero = vanishes[id(g)] = evaluate(g, scaled) == 0
        if not zero:
            vanish = False
            break
    if vanish != equal:
        report.record(where(), f"generators vanish: {equal}",
                      f"generators vanish: {vanish}")


def check_strict_points(run: CheckRun) -> VerifyReport:
    """Vanishing of all generators <=> equal images, on strict configurations.

    Random chart points (all lambdas nonzero, projected points pairwise
    distinct) exercise the generic case; manufactured or supplied witness
    points exercise the vanishing case.
    """
    report = VerifyReport(suite="strict-points")
    for ce, point, _, label, equal, vanishes in run.configurations(report):
        _judge(report, ce.generators, lambda: point, equal, lambda: (
            f"{ce.chart.name()} {label} point {[Fraction(v, point.d) for v in point.nums]}"),
            vanishes)
    return report


# ---- diagonal kernel -------------------------------------------------------


def check_diagonal_kernel(run: CheckRun) -> VerifyReport:
    """At lambda=0 the first differences are the Jacobian times the direction.

    Symbolic check of level 1 on the first chart of each first index alpha[0]
    (level 1 uses nu_1 alone, so it depends on alpha[0] only): substituting
    lambda_1=0 must equal, componentwise, the derivative of f along the
    direction carried by the chart's level-1 a-coordinates.
    """
    report = VerifyReport(suite="diagonal-kernel")
    seen = set()
    for ce in run.eqs:
        chart, f = ce.chart, ce.chain.f
        if chart.alpha[0] in seen:
            continue
        seen.add(chart.alpha[0])
        table = chart.table
        lam = chart.lambda_names[0]
        # nu_1 / lambda_1: the matrix inverse applied to (1, a_1, ...), as
        # every component of nu_1 is a multiple of lambda_1
        direction = [divide_by_variable(v, lam) for v in chart.nu[0]]
        for idx, g in enumerate(ce.chain.levels[0]):
            at_diag = substitute(g, {lam: Poly.zero(table)})
            coord = transplant(f.fiber_coords[idx], table)
            want = sum(differentiate(coord, vname) * d
                       for vname, d in zip(chart.base_names, direction))
            report.trials += 1
            if at_diag != want:
                report.record(f"{chart.name()} component {idx + 1}",
                              str(want), str(at_diag))
    return report


# ---- chart overlap ---------------------------------------------------------


def check_overlap(run: CheckRun) -> VerifyReport:
    """Vanishing <=> equal images on every other chart that represents a tuple.

    Each strict configuration is encoded in every chart but its own (which
    strict-points covers), each alpha prefix once and on integers
    (``TupleEncoding``); a chart that does not represent the tuple counts
    as skipped.  A generator that charts share through a kept alpha prefix
    is evaluated once per tuple, and a chart point is built and scaled
    only when a generator of its chart has not been judged yet.
    """
    report = VerifyReport(suite="overlap")
    for ce, point, tup, _, equal, vanishes in run.configurations(report):
        encoding = TupleEncoding(ce.chart.cc, tup, (point.nums[:ce.chart.s], point.d))
        for other in run.eqs:
            if other is ce:
                continue
            if not encoding.represents(other.chart):
                report.skipped += 1
                continue
            _judge(report, other.generators, lambda: encoding.scaled(other.chart),
                   equal,
                   lambda: f"tuple from {ce.chart.name()} seen in {other.chart.name()}",
                   vanishes)
    return report


# ---- corank-one oracle -----------------------------------------------------


def check_corank1(run: CheckRun) -> VerifyReport:
    """Random corank-one maps against the classical recursion; reads only
    ``run.cfg``."""
    cfg = run.cfg
    rng = random.Random(cfg.seed)
    report = VerifyReport(suite="corank1")
    for _ in range(cfg.trials):
        n = rng.randint(1, 3)
        extra = rng.randint(1, 2)
        r = rng.randint(2, 4)
        names = [f"x{i}" for i in range(1, n)] + ["y"]
        table = VarTable(names)
        coords = [Poly.variable(table, nm) for nm in names[:-1]]
        for _ in range(extra):
            coords.append(rand_poly(rng, table, cfg.degree_bound, cfg.coeff_bound))
        f = PolyMap(table, coords, s=n - 1)
        cc = standard_collection(1, r)
        chart = f.chart_for(cc, (1,) * (r - 1), r)
        chain = difference_chain(f, chart)
        translated = corank1_translate(chain)
        classical = classical_corank1(f, r)
        report.trials += 1
        for j, (lt, lc) in enumerate(zip(translated, classical), start=1):
            got = [normalize(g) for g in lt]
            want = [normalize(g) for g in lc]
            if got != want:
                report.record(f"map {f!r} level {j}",
                              "; ".join(str(w) for w in want),
                              "; ".join(str(g) for g in got))
    return report


SUITES: dict[str, Callable] = {
    "telescoping": check_telescoping,
    "strict": check_strict_points,
    "kernel": check_diagonal_kernel,
    "overlap": check_overlap,
    "corank1": check_corank1,
}
