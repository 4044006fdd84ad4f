"""Per-chart defining equations and Groebner-basis queries.

The basis engine is a plain Buchberger loop over the integer term maps of
normalized polynomials (content is stripped after every combination step),
with the product and chain pair criteria, followed by minimalization and tail
interreduction.

Inside one basis run every monomial is a single int (``_Codec``, after
Monagan & Pearce 2007): variable i's exponent, complemented, fills bit field
i and the total degree sits above the fields, so int order is degrevlex
order, a product is an addition, and divisibility is one guard-bit mask test.
The packed int is its own sort key: there is no key cache, leading terms are
``max`` of the term map, and S-pairs leave a heap keyed by their packed lcm
(ties by index).  Reduction steps and S-polynomials add each shifted multiple
through one engine-local loop.  ``groebner`` and ``contains`` pack the tuple
term maps on entry and unpack on exit; nothing else sees packed monomials.

Fields start ``_WIDTH`` bits wide, or wider when an input term's total degree
needs it.  A term packs only when its total degree is at most the field cap,
and under a degree-compatible order reduction never raises the degree, so
only inputs and new pair lcms are checked.  When an lcm overflows, the run
starts over at double width; the reduced basis is unique, so the answer is
the same.  ``contains`` sizes its fields from degrees known up front and
never restarts.

Dimension is the standard combinatorial dimension of the leading-term ideal.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from .atlas import Chart, CoveringCollection, multi_indices, projection_to_Xr
from .divdiff import DifferenceChain, PolyMap, difference_chain
from .polyring import Poly, VarTable, normalize, primitive_terms

# ---- packed integer polynomial core ----------------------------------------

_WIDTH = 16  # starting bits per variable field; wider when an input needs it


class _WidthOverflow(Exception):
    """A monomial's total degree does not fit the codec's fields."""


class _Codec:
    """Monomials of ``n`` variables packed into one int, ``w`` bits a field.

    Field i holds ``cap - e_i`` with ``cap = 2**(w-1) - 1``, the last variable
    most significant, and the total degree sits above every field; so int
    order is degrevlex order.  A monomial packs only when its total degree is
    at most ``cap``: then every field value, and every field of a difference
    ``b - a + zero``, lies in ``[0, 2*cap]``, and the field's top (guard) bit
    is set exactly when ``a_i > b_i``.
    """

    __slots__ = ("n", "w", "cap", "zero", "guards")

    def __init__(self, n: int, w: int):
        self.n, self.w = n, w
        self.cap = (1 << (w - 1)) - 1
        self.zero = sum(self.cap << (w * i) for i in range(n))  # pack(0)
        self.guards = sum(1 << (w * i + w - 1) for i in range(n))

    @classmethod
    def fitting(cls, n: int, maps: Sequence[dict]) -> "_Codec":
        """The codec of the starting width, widened until every tuple
        monomial of the term maps fits."""
        degree = max((sum(m) for t in maps for m in t), default=0)
        return cls(n, max(_WIDTH, degree.bit_length() + 1))

    def pack(self, e: Sequence[int]) -> int:
        x = sum(e)
        if x > self.cap:
            raise _WidthOverflow(x)
        for v in reversed(e):
            x = (x << self.w) | (self.cap - v)
        return x

    def unpack(self, x: int) -> tuple:
        mask = (1 << self.w) - 1
        e = []
        for _ in range(self.n):
            e.append(self.cap - (x & mask))
            x >>= self.w
        return tuple(e)

    def divides(self, a: int, b: int) -> bool:
        return not (b - a + self.zero) & self.guards

    def lcm(self, a: int, b: int) -> int:
        return self.pack(tuple(map(max, self.unpack(a), self.unpack(b))))

    def pack_terms(self, terms: dict) -> dict:
        return {self.pack(m): c for m, c in terms.items()}

    def unpack_terms(self, terms: dict) -> dict:
        return {self.unpack(m): c for m, c in terms.items()}


def _add_multiple(work: dict, c: int, shift: int, g: dict) -> None:
    """work += c * x^shift * g, a packed shift being a monomial's offset."""
    for m, v in g.items():
        m += shift
        s = work.get(m, 0) + c * v
        if s:
            work[m] = s
        else:
            del work[m]


def _normal_form(p: dict, basis: Sequence[tuple], codec: _Codec) -> dict:
    """Full remainder of packed p against basis entries (lm, lc, terms).

    Fraction-free: instead of dividing, both the work polynomial and the
    emitted remainder are scaled by the reducer's leading coefficient, and
    joint content is stripped to keep coefficients small.  The remainder is
    therefore a unit multiple of the true normal form, which preserves
    zero-ness and leading monomials.
    """
    zero, guards = codec.zero, codec.guards
    work = dict(p)
    out: dict = {}
    while work:
        m = max(work)
        c = work[m]
        mz = m + zero
        for lm, lc, g in basis:
            if not (mz - lm) & guards:
                break
        else:
            out[m] = c
            del work[m]
            continue
        d = math.gcd(c, lc)
        a, b = lc // d, c // d
        if a != 1:
            for k in out:
                out[k] *= a
            for k in work:
                work[k] *= a
        _add_multiple(work, -b, m - lm, g)
        if abs(a) > 1 and (work or out):
            joint = 0
            for v in itertools.chain(work.values(), out.values()):
                joint = math.gcd(joint, v)
            if joint > 1:
                for k in work:
                    work[k] //= joint
                for k in out:
                    out[k] //= joint
    return primitive_terms(out, key=None)


def _spoly(f: tuple, g: tuple, codec: _Codec) -> dict:
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


def _buchberger(polys: Sequence[dict], codec: _Codec) -> list[dict]:
    """Reduced basis, as packed primitive integer term maps, of packed ones.

    Raises _WidthOverflow when a pair's lcm does not fit the codec; no other
    monomial can outgrow it, since reduction under a degree-compatible order
    never raises the total degree.
    """
    basis = []
    # pairs leave the heap by (packed lcm, i, j): the packed lcm is its own
    # degrevlex key
    heap = []
    done = set()
    zero = codec.zero

    def candidates():
        """The nonzero inputs, then every nonzero S-pair remainder."""
        yield from filter(None, polys)
        while heap:
            l, i, j = heapq.heappop(heap)
            done.add((i, j))
            if l == basis[i][0] + basis[j][0] - zero:
                continue  # coprime leading monomials reduce to zero
            chained = False
            for k in range(len(basis)):
                if k in (i, j) or not codec.divides(basis[k][0], l):
                    continue
                p1 = (min(i, k), max(i, k))
                p2 = (min(j, k), max(j, k))
                if p1 in done and p2 in done:
                    chained = True
                    break
            if chained:
                continue
            h = _normal_form(_spoly(basis[i], basis[j], codec), basis, codec)
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


def groebner(h: IdealHandle) -> list[Poly]:
    """Reduced Groebner basis, cached on the handle; [] for the zero ideal."""
    if h._basis is None:
        polys = [normalize(g).terms for g in h.generators]
        codec = _Codec.fitting(len(h.table), polys)
        while True:
            try:
                raw = _buchberger([codec.pack_terms(t) for t in polys], codec)
                break
            except _WidthOverflow:  # the reduced basis is unique: start over
                codec = _Codec(codec.n, 2 * codec.w)
        h._basis = tuple(Poly(h.table, codec.unpack_terms(t)) for t in raw)
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
    basis = [g.terms for g in groebner(h)]
    if not basis:
        return False
    terms = normalize(p).terms
    # reduction never raises the degree, so the codec fits every step
    codec = _Codec.fitting(len(h.table), basis + [terms])
    entries = [_entry(codec.pack_terms(t)) for t in basis]
    return not _normal_form(codec.pack_terms(terms), entries, codec)


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
