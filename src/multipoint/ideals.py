"""Per-chart defining equations and Groebner-basis queries.

The basis engine is a plain Buchberger loop over the integer term maps of
normalized polynomials (content is stripped after every combination step),
with the product and chain pair criteria, followed by minimalization and tail
interreduction.  Reduction steps and S-polynomials add each shifted multiple
through ``polyring``'s term-map product, the kernel that ``Poly``
multiplication and substitution also use.  S-pairs are taken from a heap
keyed once, when each pair is created, by the degrevlex key of its lcm (ties
by index); the degrevlex keys that reduction compares are cached per monomial
for one basis run and dropped with it.
Dimension is the standard combinatorial dimension of the leading-term ideal.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

from .atlas import Chart, CoveringCollection, multi_indices, projection_to_Xr
from .divdiff import DifferenceChain, PolyMap, difference_chain
from .polyring import (Poly, VarTable, _add_product, degrevlex_key, normalize,
                       primitive_terms)

Mono = tuple

# ---- integer polynomial core ----------------------------------------------


def _divides(a: Mono, b: Mono) -> bool:
    return all(map(operator.le, a, b))


def _mono_lcm(a: Mono, b: Mono) -> Mono:
    return tuple(map(max, a, b))


def _mono_sub(a: Mono, b: Mono) -> Mono:
    return tuple(map(operator.sub, a, b))


class _KeyCache(dict):
    """Monomial -> degrevlex_key, computed on first lookup."""

    __slots__ = ()

    def __missing__(self, m: Mono):
        k = self[m] = degrevlex_key(m)
        return k


def _normal_form(p: dict, basis: Sequence[tuple],
                 keys: _KeyCache | None = None) -> dict:
    """Full remainder of p against basis entries (lm, lc, terms).

    Fraction-free: instead of dividing, both the work polynomial and the
    emitted remainder are scaled by the reducer's leading coefficient, and
    joint content is stripped to keep coefficients small.  The remainder is
    therefore a unit multiple of the true normal form, which preserves
    zero-ness and leading monomials.  `keys` caches monomial sort keys
    across calls; a fresh one is used when none is given.
    """
    if keys is None:
        keys = _KeyCache()
    key = keys.__getitem__
    work = dict(p)
    out: dict = {}
    while work:
        m = max(work, key=key)
        c = work[m]
        hit = None
        for lm, lc, g in basis:
            if _divides(lm, m):
                hit = (lm, lc, g)
                break
        if hit is None:
            out[m] = c
            del work[m]
            continue
        lm, lc, g = hit
        d = math.gcd(c, lc)
        a, b = lc // d, c // d
        if a != 1:
            for k in out:
                out[k] *= a
            for k in work:
                work[k] *= a
        _add_product(work, {_mono_sub(m, lm): -b}, g)
        if abs(a) > 1 and (work or out):
            joint = 0
            for v in itertools.chain(work.values(), out.values()):
                joint = math.gcd(joint, v)
            if joint > 1:
                for k in work:
                    work[k] //= joint
                for k in out:
                    out[k] //= joint
    return primitive_terms(out)


def _spoly(f: tuple, g: tuple) -> dict:
    lmf, lcf, tf = f
    lmg, lcg, tg = g
    l = _mono_lcm(lmf, lmg)
    d = math.gcd(lcf, lcg)
    out = _add_product({}, {_mono_sub(l, lmf): lcg // d}, tf)
    return _add_product(out, {_mono_sub(l, lmg): -(lcf // d)}, tg)


def _entry(terms: dict) -> tuple:
    lm = max(terms, key=degrevlex_key)
    return (lm, terms[lm], terms)


def _buchberger(polys: Iterable[dict]) -> list[dict]:
    """Reduced basis, as primitive integer term maps, of primitive ones."""
    basis = []
    # pairs leave the heap by (degrevlex key of their lcm, i, j); each
    # entry is keyed once, when the pair is created
    keys = _KeyCache()
    heap = []
    done = set()

    def candidates():
        """The nonzero inputs, then every nonzero S-pair remainder."""
        yield from filter(None, polys)
        while heap:
            _, i, j, l = heapq.heappop(heap)
            done.add((i, j))
            if not any(map(min, basis[i][0], basis[j][0])):
                continue  # coprime leading monomials reduce to zero
            chained = False
            for k in range(len(basis)):
                if k in (i, j) or not _divides(basis[k][0], l):
                    continue
                p1 = (min(i, k), max(i, k))
                p2 = (min(j, k), max(j, k))
                if p1 in done and p2 in done:
                    chained = True
                    break
            if chained:
                continue
            h = _normal_form(_spoly(basis[i], basis[j]), basis, keys)
            if h:
                yield h

    for t in candidates():
        e = _entry(t)
        if not any(e[0]):  # degrevlex is degree-compatible: t is a constant
            return [{e[0]: 1}]
        basis.append(e)
        new = len(basis) - 1
        for k in range(new):
            l = _mono_lcm(basis[k][0], e[0])
            heapq.heappush(heap, (keys[l], k, new, l))

    # minimalize: drop entries whose leading monomial another one divides
    keep = []
    lms = [e[0] for e in basis]
    for i, lm in enumerate(lms):
        if any(j != i and _divides(lms[j], lm) and (lms[j] != lm or j < i)
               for j in range(len(lms))):
            continue
        keep.append(basis[i])

    # interreduce: tail-reduce each against the others
    reduced = []
    for i, e in enumerate(keep):
        others = keep[:i] + keep[i + 1:]
        h = _normal_form(e[2], others, keys) if others else e[2]
        if h:
            reduced.append(h)
    reduced.sort(key=lambda t: max(map(keys.__getitem__, t)), reverse=True)
    return reduced


# ---- public ideal interface ------------------------------------------------


class IdealHandle:
    """A generator set with a lazily computed reduced Groebner basis."""

    __slots__ = ("generators", "_basis")

    def __init__(self, generators: Sequence[Poly]):
        generators = tuple(generators)
        if not generators:
            raise ValueError("an ideal handle needs at least one generator")
        table = generators[0].table
        for g in generators:
            if g.table != table:
                raise ValueError("generators must share one variable table")
        self.generators = generators
        self._basis = None

    @property
    def table(self) -> VarTable:
        return self.generators[0].table


def groebner(h: IdealHandle) -> list[Poly]:
    """Reduced Groebner basis, cached on the handle; [] for the zero ideal."""
    if h._basis is None:
        raw = _buchberger(normalize(g).terms for g in h.generators)
        h._basis = tuple(Poly(h.table, t) for t in raw)
    return list(h._basis)


def is_unit_ideal(h: IdealHandle) -> bool:
    basis = groebner(h)
    return len(basis) == 1 and basis[0].is_constant() and not basis[0].is_zero()


def contains(h: IdealHandle, p: Poly) -> bool:
    """Ideal membership by reduction to normal form against the basis."""
    if p.table != h.table:
        raise ValueError("polynomial is over a different table than the ideal")
    if p.is_zero():
        return True
    entries = [_entry(g.terms) for g in groebner(h)]
    if not entries:
        return False
    return not _normal_form(normalize(p).terms, entries)


def dimension(h: IdealHandle) -> int:
    """Krull dimension of the quotient by the ideal; -1 for the unit ideal."""
    basis = groebner(h)
    nvars = len(h.table)
    if not basis:
        return nvars
    if is_unit_ideal(h):
        return -1
    supports = set()
    for g in basis:
        m = g.leading_monomial()
        supports.add(frozenset(i for i, e in enumerate(m) if e))
    # a support containing another is hit whenever the smaller one is
    minimal = [s for s in supports
               if not any(t < s for t in supports)]

    # the largest subset avoiding every support is the complement of a
    # minimum hitting set of the supports
    best = len(minimal)  # one variable per support always hits

    def search(excluded: frozenset, remaining: list):
        nonlocal best
        live = [s for s in remaining if not (s & excluded)]
        if not live:
            best = min(best, len(excluded))
            return
        if len(excluded) + 1 >= best:
            return
        for v in sorted(min(live, key=len)):
            search(excluded | {v}, live)

    search(frozenset(), sorted(minimal, key=len))
    return nvars - best


# ---- chart equations -------------------------------------------------------


@dataclass(frozen=True)
class ChartEquations:
    """Defining equations of the multiple-point space on one chart."""

    chart: Chart
    chain: DifferenceChain = field(repr=False)
    generators: tuple[Poly, ...]

    @property
    def levels(self) -> tuple[tuple[Poly, ...], ...]:
        return self.chain.levels

    @cached_property
    def projections(self) -> tuple[tuple[Poly, ...], ...]:
        """Projection formulas to the r source copies, built on first read."""
        return tuple(tuple(v) for v in projection_to_Xr(self.chart))

    def handle(self) -> IdealHandle:
        """The ideal of the generators; the zero ideal when there are none."""
        return IdealHandle(self.generators or (Poly.zero(self.chart.table),))


def chart_equations(f: PolyMap, r: int, cc: CoveringCollection,
                    alpha: tuple[int, ...]) -> ChartEquations:
    """Equations of the order-r multiple-point space on one chart."""
    if r < 2:
        raise ValueError("order r must be >= 2")
    chart = f.chart_for(cc, alpha, r)
    chain = difference_chain(f, chart)
    gens = tuple(normalize(g) for level in chain.levels for g in level)
    return ChartEquations(chart=chart, chain=chain, generators=gens)


def kr_equations(f: PolyMap, r: int, cc: CoveringCollection) -> list[ChartEquations]:
    """Equations of the order-r multiple-point space, one entry per chart."""
    if r < 2:
        raise ValueError("order r must be >= 2")
    return [chart_equations(f, r, cc, alpha)
            for alpha in multi_indices(f.fiber_dim, r, cc.ell)]


def expected_dimension(f: PolyMap, r: int) -> int:
    """Dimension K_r should have when dimensionally correct: nr - p(r-1)."""
    return f.n * r - f.p * (r - 1)


def diagonal_fiber_dimension(f: PolyMap, r: int, point: Sequence,
                             cc: CoveringCollection) -> int:
    """Dimension of the fiber of the multiple-point space over (point,...,point).

    Pins every source variable to the point and every projected copy to the
    same value; the conditions on the projected copies generate the
    accumulated lambda relations, which on non-initial charts are strictly
    weaker than pinning the plain chart lambdas.
    """
    if len(point) != f.n:
        raise ValueError(f"point has {len(point)} coordinates, source has {f.n}")
    fiber_point = point[f.s:]
    best = None
    for eqs in kr_equations(f, r, cc):
        table = eqs.chart.table
        gens = list(eqs.generators)
        for nm, v in zip(f.table.names, point):
            gens.append(Poly.variable(table, nm) - v)
        for j in range(1, r):
            for comp, v in zip(eqs.projections[j], fiber_point):
                gens.append(comp - v)
        d = dimension(IdealHandle(gens))
        best = d if best is None else max(best, d)
    return best
