"""Per-chart defining equations and Groebner-basis queries.

The basis engine is a plain Buchberger loop over the integer term maps of
normalized polynomials, with the product and chain pair criteria, followed by
minimalization and tail interreduction.

The engine runs directly on ``normalize(g).terms``: its monomials are the
packed ints of the table's ``Codec``, the one layout of ``polyring``.  Int
order is degrevlex order, a product is an addition, and divisibility is one
guard-bit mask test.  The packed int is its own sort key: there is no key
cache, leading terms are ``max`` of the term map, and S-pairs leave a heap
keyed by their packed lcm (ties by index), which ``Codec.lcm`` computes
from the guard bits without unpacking.  Reduction steps and S-polynomials
add each shifted multiple through ``polyring``'s one term-product loop.

Reduction is fraction-free and heap-ordered, after Monagan & Pearce (2007):
each step's head is the top of a heap of the monomials the work polynomial
has held, pushed as ``_add_multiple`` creates them, and one that has since
left the work polynomial is skipped when it surfaces.  Steps scale by the
reducer's leading coefficient and never divide; the content is stripped
once, from the finished remainder.  Stripping it after each step as well
would change every intermediate work polynomial by a unit only, so the
primitive remainder is the same.

A reduction step's reducer is the first basis entry whose leading monomial
divides the head term.  A run keeps one memo from each head monomial to
that entry's index (or None) and the number of entries searched: the basis
only grows at its end, so an index once found stays right and a later step
rescans only the entries appended since.  The memo lives for one run
only; interreduction and ``contains`` reduce against other lists and start
their own, and a restart at double width starts a new run.

A term packs only when its total degree is at most the codec's cap, and
under a degree-compatible order reduction never raises the degree, so only
new pair lcms can overflow.  When one does, the run starts over with the
inputs repacked at double width; the reduced basis is unique, so the answer
is the same.  ``_repack`` is the one conversion between widths, and a basis
found at a wider width is repacked back to the table's layout, or raises
``DegreeBoundError`` if an element does not fit.  ``contains`` reduces
against a basis that already fits, so it never overflows.

Dimension is the standard combinatorial dimension of the leading-term ideal.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from .atlas import Chart, CoveringCollection, multi_indices, projection_to_Xr
from .divdiff import DifferenceChain, PolyMap, difference_chain
from .polyring import (
    Codec,
    DegreeBoundError,
    Poly,
    VarTable,
    _add_multiple,
    normalize,
    primitive_terms,
)

# ---- packed integer polynomial core ----------------------------------------


def _repack(terms: dict, src: Codec, dst: Codec) -> dict:
    """A packed term map of ``src`` in the layout of ``dst``."""
    return {dst.pack(src.unpack(m)): c for m, c in terms.items()}


def _normal_form(p: dict, basis: Sequence[tuple], codec: Codec,
                 memo: dict | None = None) -> dict:
    """Full remainder of packed p against basis entries (lm, lc, terms).

    Fraction-free: instead of dividing, both the work polynomial and the
    emitted remainder are scaled by the reducer's leading coefficient, and
    the content is stripped once, from the finished remainder.  The result
    is the primitive normal form, a unit multiple of the true one, which
    preserves zero-ness and leading monomials.

    Heads leave a heap of negated monomials: it holds every monomial of p
    and each one that a reduction step creates in the work polynomial, so
    its top is the largest monomial still there once entries that have left
    (cancelled, reduced or emitted) are skipped.  A monomial that cancels
    and comes back is pushed again, and whichever of its entries surfaces
    second is skipped.

    The reducer of a term is the first entry whose leading monomial divides
    it.  ``memo`` maps a monomial to ``(index of that entry or None, entries
    searched)``; a later call rescans only the entries appended since, so a
    memo stays valid while ``basis`` only grows at its end.
    """
    zero, guards = codec.zero, codec.guards
    if memo is None:
        memo = {}
    size = len(basis)
    work = dict(p)
    heap = [-m for m in work]
    heapq.heapify(heap)
    created: list = []
    out: dict = {}
    while heap:
        m = -heapq.heappop(heap)
        c = work.get(m)
        if c is None:
            continue  # left work after it was pushed
        hit, searched = memo.get(m, (None, 0))
        if hit is None and searched < size:
            mz = m + zero
            for i in range(searched, size):
                if not (mz - basis[i][0]) & guards:
                    hit = i
                    break
            memo[m] = (hit, size)
        if hit is None:
            out[m] = c
            del work[m]
            continue
        lm, lc, g = basis[hit]
        d = math.gcd(c, lc)
        a, b = lc // d, c // d
        if a != 1:
            for k in out:
                out[k] *= a
            for k in work:
                work[k] *= a
        _add_multiple(work, -b, m - lm, g, created)
        for k in created:
            heapq.heappush(heap, -k)
        created.clear()
    return primitive_terms(out)


def _spoly(f: tuple, g: tuple, codec: Codec) -> dict:
    lmf, lcf, tf = f
    lmg, lcg, tg = g
    l = codec.lcm(lmf, lmg)
    d = math.gcd(lcf, lcg)
    out: dict = {}
    _add_multiple(out, lcg // d, l - lmf, tf)
    _add_multiple(out, -(lcf // d), l - lmg, tg)
    return out


def _entry(terms: dict) -> tuple:
    lm = max(terms)
    return (lm, terms[lm], terms)


def _buchberger(polys: Sequence[dict], codec: Codec) -> list[dict]:
    """Reduced basis, as packed primitive integer term maps, of packed ones.

    Raises DegreeBoundError when a pair's lcm does not fit the codec; no other
    monomial can outgrow it, since reduction under a degree-compatible order
    never raises the total degree.
    """
    basis = []
    # pairs leave the heap by (packed lcm, i, j): the packed lcm is its own
    # degrevlex key
    heap = []
    done = set()
    zero, guards = codec.zero, codec.guards
    memo: dict = {}  # valid for the whole run: basis only grows at its end

    def candidates():
        """The nonzero inputs, then every nonzero S-pair remainder."""
        yield from filter(None, polys)
        while heap:
            l, i, j = heapq.heappop(heap)
            done.add((i, j))
            if l == basis[i][0] + basis[j][0] - zero:
                continue  # coprime leading monomials reduce to zero
            lz = l + zero
            chained = False
            for k, e in enumerate(basis):
                if (lz - e[0]) & guards or k == i or k == j:
                    continue  # lm_k does not divide l, or k is in the pair
                p1 = (min(i, k), max(i, k))
                p2 = (min(j, k), max(j, k))
                if p1 in done and p2 in done:
                    chained = True
                    break
            if chained:
                continue
            h = _normal_form(_spoly(basis[i], basis[j], codec), basis, codec,
                             memo)
            if h:
                yield h

    for t in candidates():
        e = _entry(t)
        if e[0] == zero:  # degrevlex is degree-compatible: t is a constant
            return [{zero: 1}]
        basis.append(e)
        new = len(basis) - 1
        for k in range(new):
            heapq.heappush(heap, (codec.lcm(basis[k][0], e[0]), k, new))

    # minimalize: drop entries whose leading monomial another one divides
    keep = []
    lms = [e[0] for e in basis]
    for i, lm in enumerate(lms):
        if any(j != i and codec.divides(lms[j], lm) and (lms[j] != lm or j < i)
               for j in range(len(lms))):
            continue
        keep.append(basis[i])

    # interreduce: tail-reduce each against the others
    reduced = []
    for i, e in enumerate(keep):
        others = keep[:i] + keep[i + 1:]
        h = _normal_form(e[2], others, codec) if others else e[2]
        if h:
            reduced.append(h)
    reduced.sort(key=max, reverse=True)
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


def _reduced_basis(polys: list[dict], codec: Codec) -> tuple[list[dict], Codec]:
    """``_buchberger`` on packed term maps, started over at double width while
    a pair's lcm overflows; the basis and the codec it is packed in."""
    while True:
        try:
            return _buchberger(polys, codec), codec
        except DegreeBoundError:  # the reduced basis is unique: start over
            wide = codec.widened()
            polys = [_repack(t, codec, wide) for t in polys]
            codec = wide


def groebner(h: IdealHandle) -> list[Poly]:
    """Reduced Groebner basis, cached on the handle; [] for the zero ideal."""
    if h._basis is None:
        table = h.table
        raw, codec = _reduced_basis([normalize(g).terms for g in h.generators],
                                    table.codec)
        if codec is not table.codec:
            raw = [_repack(t, codec, table.codec) for t in raw]
        h._basis = tuple(Poly.from_packed(table, t) for t in raw)
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
    basis = [_entry(g.terms) for g in groebner(h)]
    if not basis:
        return False
    # the basis fits the table's codec, and reduction never raises the degree
    return not _normal_form(normalize(p).terms, basis, h.table.codec)


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
    gens = tuple(g for j, level in enumerate(chain.levels, 1)
                 for g in f.generators(chart, j, level))
    return ChartEquations(chart=chart, chain=chain, generators=gens)


def kr_equations(f: PolyMap, r: int, cc: CoveringCollection) -> list[ChartEquations]:
    """Equations of the order-r multiple-point space, one entry per chart."""
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
