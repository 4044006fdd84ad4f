"""Iterated generalized divided differences on a chart, and the classical
corank-one divided differences used as an independent oracle.

The chain for a map f on a chart starts from the exact quotient
(f(x + nu_1) - f(x)) / lambda_1 and iterates: each level substitutes
gamma^(j-1) -> gamma^(j-1) + nu_j into the previous level, subtracts, and
divides by lambda_j.  Unfolding parameters ride along unchanged and their
coordinate functions are omitted from the output.

nu_j depends only on the form alpha_j that the chart picks at level j, so
every component of a level, and every chart with the same alpha_j, applies
one shift.  The map keeps that shift as one ``LevelShift`` (a
``Substitution``) per (collection, order, level, alpha_j) for as long as it
lives, and with it every expansion made through it.  It also keeps level 0,
its fiber coordinates on the charts' table, once per table.  ``verify``'s
telescoping check reads ``level_zero`` and ``shift_for`` of a second
``PolyMap`` built from the map's table, coordinates and parameters: the
same rules, on separate objects, so it reads no expansion of the chain's.

The chain runs on integers: a component is a ``Poly``, an integer term map
q over one positive denominator d.  Each level is one pass over the
previous one's terms.  A term c * x^rest * gamma^E becomes, after the
substitution, the subtraction and the division by lambda_j,
c * x^rest * Q(E) over d, where Q(E) is the shift's product for E less its
pure term gamma^E, divided by lambda_j: every entry of nu_j is a multiple
of lambda_j, and so every other term of the product.  A term with E = 0
cancels.  The shift keeps each Q(E) it builds.  ``Poly.reduced`` keeps a
component's denominator in lowest terms, and its primitive part, the chart
generator, is that of q.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Sequence

from .atlas import Chart, build_chart
from .polyring import (
    NotDivisibleError,
    Poly,
    PolyError,
    Scalar,
    Substitution,
    VarTable,
    _expand,
    divide_by_variable,
    parse_poly,
    render,
    substitute,
    transplant,
)


class MapFormError(PolyError):
    """A polynomial map does not satisfy a required normal form."""


class PolyMap:
    """A polynomial map C^n -> C^p with s leading unfolding parameters.

    The first s coordinate functions must be exactly the first s variables.
    With s="auto" the longest such identity prefix is used, except that a
    full identity prefix means the map is an embedding and s falls back to 0
    (a map needs at least one genuine fiber variable).
    """

    def __init__(self, table: VarTable, coords: Sequence[Poly], s="auto"):
        coords = tuple(coords)
        if not coords:
            raise MapFormError("a map needs at least one coordinate function")
        for c in coords:
            if c.table != table:
                raise MapFormError("coordinate functions must share the map's table")
        n = len(table)
        prefix = 0
        while (prefix < min(n, len(coords))
               and coords[prefix] == Poly.variable(table, table.names[prefix])):
            prefix += 1
        if s == "auto":
            s = prefix if prefix < n else 0
        else:
            s = int(s)
            if s < 0 or s > n:
                raise MapFormError(f"parameter count {s} out of range 0..{n}")
            if s == n:
                raise MapFormError(
                    "all source variables marked as parameters; no fiber remains")
            if s > prefix:
                raise MapFormError(
                    f"the first {s} coordinate functions must equal the first "
                    f"{s} variables (identity prefix has length {prefix})")
        self.table = table
        self.coords = coords
        self.s = s
        self._chart_tables: dict[int, VarTable] = {}  # order -> its charts' table
        # chart table -> the fiber coordinates on it
        self._level_zero: dict[VarTable, tuple[Poly, ...]] = {}
        # (collection, order, level, form index at that level) -> level shift
        self._shifts: dict[tuple, LevelShift] = {}

    @classmethod
    def from_strings(cls, var_names: Sequence[str], coord_srcs: Sequence[str],
                     s="auto") -> "PolyMap":
        table = VarTable(list(var_names))
        coords = [parse_poly(src, table) for src in coord_srcs]
        return cls(table, coords, s)

    @property
    def n(self) -> int:
        return len(self.table)

    @property
    def p(self) -> int:
        return len(self.coords)

    @property
    def fiber_dim(self) -> int:
        return self.n - self.s

    @property
    def param_names(self) -> tuple[str, ...]:
        return self.table.names[:self.s]

    @property
    def fiber_names(self) -> tuple[str, ...]:
        return self.table.names[self.s:]

    @property
    def fiber_coords(self) -> tuple[Poly, ...]:
        """Coordinate functions past the parameter block."""
        return self.coords[self.s:]

    def chart_for(self, cc, alpha, r: int) -> Chart:
        """The chart of ``alpha``; the charts of one order share one table,
        and so its memo of monomial texts."""
        chart = build_chart(cc, alpha, self.fiber_dim, r, self.s,
                            param_names=self.param_names,
                            base_names=self.fiber_names,
                            table=self._chart_tables.get(r))
        self._chart_tables.setdefault(r, chart.table)
        return chart

    def level_zero(self, chart: Chart) -> tuple[Poly, ...]:
        """The fiber coordinates on ``chart``'s table; built once per table,
        so once per order for the charts of ``chart_for``."""
        level = self._level_zero.get(chart.table)
        if level is None:
            level = self._level_zero[chart.table] = tuple(
                transplant(c, chart.table) for c in self.fiber_coords)
        return level

    def shift_for(self, chart: Chart, j: int) -> LevelShift:
        """The level-j shift of ``chart``, as one ``LevelShift`` for every
        chart of this map that picks the same form at level j: nu_j depends
        only on the collection, the order, j and alpha_j, so those charts
        share each expansion and each difference quotient."""
        key = (chart.cc, chart.r, j, chart.alpha[j - 1])
        shift = self._shifts.get(key)
        if shift is None:
            shift = self._shifts[key] = LevelShift(chart, j)
        return shift

    def specialize(self, values: Sequence[Scalar]) -> "PolyMap":
        """Fix the parameters to rational values, yielding a member of the family."""
        if len(values) != self.s:
            raise ValueError(f"need {self.s} parameter values, got {len(values)}")
        fiber_table = VarTable(list(self.fiber_names))
        assignment = {nm: Fraction(v) if not isinstance(v, Fraction) else v
                      for nm, v in zip(self.param_names, values)}
        coords = [transplant(c, fiber_table, assignment) for c in self.fiber_coords]
        return PolyMap(fiber_table, coords, s=0)

    def __repr__(self):
        funcs = "; ".join(str(c) for c in self.coords)
        return f"PolyMap({', '.join(self.table.names)} -> {funcs}; s={self.s})"


class DifferenceChain:
    """The generalized divided differences of one map on one chart:
    ``levels`` holds levels 1..r-1, one ``Poly`` per fiber coordinate."""

    __slots__ = ("f", "chart", "levels")

    def __init__(self, f: PolyMap, chart: Chart, levels: tuple[tuple[Poly, ...], ...]):
        self.f = f
        self.chart = chart
        self.levels = levels


def _check_compatible(f: PolyMap, chart: Chart):
    if chart.n != f.fiber_dim:
        raise MapFormError(
            f"chart is for fiber dimension {chart.n}, map has {f.fiber_dim}")
    if chart.param_names != f.param_names or chart.base_names != f.fiber_names:
        raise MapFormError(
            "chart variable names do not match the map's parameter/fiber names")


def level_shift(chart: Chart, j: int) -> dict[str, Poly]:
    """The substitution gamma^(j-1) -> gamma^(j-1) + nu_j that level j differences.

    Level j - 1 has the coordinates ``chart.level_names(j - 1)``.
    """
    return {nm: Poly.variable(chart.table, nm) + d
            for nm, d in zip(chart.level_names(j - 1), chart.nu[j - 1])}


class LevelShift(Substitution):
    """Level j's shift of a chart, with the difference quotient of each of
    its products.

    Every entry of nu_j is a multiple of lambda_j, so the product for E less
    its pure term ``den^E * gamma^E``, the one term with no nu factor, is
    divisible by lambda_j; ``quotient(E)`` is that quotient, built once
    through ``divide_by_variable`` and kept as long as the object.  A nu_j
    with a term free of lambda_j raises ``NotDivisibleError``: there
    ``divide_by_variable`` refuses a term off gamma^E, and ``quotient`` a
    pure term other than ``den^E``.
    """

    __slots__ = ("lam", "_offsets", "_quotients")

    def __init__(self, chart: Chart, j: int):
        super().__init__(chart.table, level_shift(chart, j))
        self.lam = chart.lambda_names[j - 1]
        offsets = chart.table.codec.offsets
        self._offsets = tuple(offsets[chart.table.index(nm)] for nm in self.names)
        # exponent vector -> (product(E) - its pure term) / lambda_j, as packed terms
        self._quotients: dict[tuple, dict] = {}

    def quotient(self, e: tuple) -> dict:
        got = self._quotients.get(e)
        if got is None:
            terms = dict(self.product(e))
            pure = self.table.codec.zero + sum(map(operator.mul, e, self._offsets))
            left = terms.pop(pure, 0) - math.prod(map(pow, self.dens, e))
            if left:  # a lambda-free term of nu_j landed on gamma^E
                raise NotDivisibleError(
                    self.lam, render(Poly.from_packed(self.table, {pure: left})))
            got = self._quotients[e] = divide_by_variable(
                Poly.from_packed(self.table, terms), self.lam).terms
        return got


def _next_level(g: Poly, shift: LevelShift) -> Poly:
    """(g(gamma + nu_j) - g(gamma)) / lambda_j for the level component g, in
    one pass over g's integer terms: a term with exponent vector E of gamma
    contributes through ``shift.quotient(E)``, and one with E = 0 cancels.
    The result is reduced, so the denominator does not grow level by level."""
    out, lift = _expand(g, g.table, shift, shift.quotient)
    return Poly.reduced(g.table, out, g.den * lift)


def difference_chain(f: PolyMap, chart: Chart) -> DifferenceChain:
    """Compute difference levels 1..r-1 of f on the chart, on integers: level
    0 from ``f.level_zero``, each level j in one pass through the shift
    ``f.shift_for(chart, j)``."""
    _check_compatible(f, chart)
    level = f.level_zero(chart)
    levels = []
    for j in range(1, chart.r):
        shift = f.shift_for(chart, j)
        level = tuple(_next_level(g, shift) for g in level)
        levels.append(level)
    return DifferenceChain(f=f, chart=chart, levels=tuple(levels))


# ---- classical corank-one divided differences ------------------------------


def _divide_by_binomial(p: Poly, u: str, v: str) -> Poly:
    """Exact quotient p / (u - v) by synthetic division in the variable u."""
    table = p.table
    codec = table.codec
    ui = table.index(u)
    offset = codec.offsets[ui]
    by_degree: dict[int, dict] = {}  # degree in u -> packed terms with u removed
    for m, c in p.terms.items():
        d = codec.exponent(m, ui)
        by_degree.setdefault(d, {})[m - d * offset] = c
    top = max(by_degree, default=0)
    coeffs = [Poly.reduced(table, by_degree.get(d, {}), p.den) for d in range(top + 1)]
    vpoly = Poly.variable(table, v)
    upoly = Poly.variable(table, u)
    quotient = Poly.zero(table)
    carry = Poly.zero(table)
    for d in range(top, 0, -1):
        carry = coeffs[d] + carry
        quotient = quotient + carry * upoly ** (d - 1)
        carry = carry * vpoly
    remainder = coeffs[0] + carry
    if not remainder.is_zero():
        raise PolyError(
            f"nonzero remainder dividing by ({u}-{v}); numerator was not a difference")
    return quotient


def _node_table(head: Sequence[str], y: str, r: int) -> tuple[VarTable, list[str]]:
    """The table ``head, y, y1, ..., y_{r-1}`` of the classical recursion
    and its nodes ``y, y1, ..., y_{r-1}``; ``classical_corank1`` and
    ``corank1_translate`` compare equal only over one such table."""
    nodes = [y] + [f"{y}{j}" for j in range(1, r)]
    for nm in nodes[1:]:
        if nm in head:
            raise MapFormError(f"variable {nm!r} collides with generated node names")
    return VarTable([*head, *nodes]), nodes


def classical_corank1(f: PolyMap, r: int) -> list[list[Poly]]:
    """Divided differences of a corank-one normal form (x, y) -> (x, f_n..f_p).

    Returns levels 1..r-1, each a vector over variables x, y, y1, ..., y_{r-1};
    level j is divided by (y_j - y_{j-1}) after substituting y_{j-1} -> y_j.
    """
    if r < 2:
        raise ValueError("order r must be >= 2")
    n = f.n
    for i in range(n - 1):
        if f.coords[i] != Poly.variable(f.table, f.table.names[i]):
            raise MapFormError(
                f"coordinate {i + 1} must be the variable {f.table.names[i]!r} "
                "(corank-one normal form)")
    table, nodes = _node_table(f.table.names[:-1], f.table.names[-1], r)
    current = [transplant(c, table) for c in f.coords[n - 1:]]
    levels = []
    for j in range(1, r):
        u, v = nodes[j], nodes[j - 1]
        shifted = [substitute(g, {v: Poly.variable(table, u)}) for g in current]
        current = [_divide_by_binomial(a - b, u, v)
                   for a, b in zip(shifted, current)]
        levels.append(list(current))
    return levels


def corank1_translate(chain: DifferenceChain) -> list[list[Poly]]:
    """Rewrite a fiber-dimension-1 chain in classical node variables.

    lambda_1 becomes y1 - y and lambda_j becomes y_j - y_{j-1}, making the
    chain directly comparable with classical_corank1 output.
    """
    chart = chain.chart
    if chart.n != 1:
        raise MapFormError(
            f"translation needs fiber dimension 1, chart has {chart.n}")
    table, nodes = _node_table(chart.param_names, chart.base_names[0], chart.r)
    mapping = {}
    for j, lam in enumerate(chart.lambda_names, start=1):
        mapping[lam] = (Poly.variable(table, nodes[j])
                        - Poly.variable(table, nodes[j - 1]))
    return [[transplant(g, table, mapping) for g in level]
            for level in chain.levels]
