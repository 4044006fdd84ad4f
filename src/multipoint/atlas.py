"""Covering collections, the chart set of the universal space, and projections.

A covering collection is a family of linear forms on the source fiber C^n in
general position, each with n-1 companion forms.  Every multi-index alpha
picks one form per level and determines an affine chart with coordinates
(params | base | lambda/a blocks); the nu maps translate level coordinates
into source-space increments.  Forms and inverse matrices are kept in one
layout, integers over one positive denominator; one fraction-free
elimination, ``_adjugate``, checks general position and builds the
inverses, so no ``Fraction`` enters the linear algebra.  A chart point
and a source point are kept in the same layout: a vector of integers, or
of polynomials, over one denominator.  One routine applies an inverse to
such a vector: ``Chart.nu`` and ``Chart.project``, which recovers the r
source points from a chart point, polynomial or rational, on one path,
both run through it.  ``TupleEncoding`` inverts ``Chart.project`` on a
rational tuple given in that layout, once per alpha prefix: its
difference vectors and levels are integers over one positive
denominator, in lowest terms, and a chart point leaves it as a
``ScaledPoint``, ready for ``evaluate``.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .polyring import (
    Poly,
    PolyError,
    Scalar,
    ScaledPoint,
    VarTable,
    common_denominator,
)


class CollectionError(PolyError):
    """Invalid covering collection data."""


@dataclass(frozen=True, init=False)
class LinearForm:
    """A linear form sum(c_j * x_j) on the source fiber.

    The coefficients are kept as integer ``numerators`` over one positive
    ``denominator``, in lowest terms, the layout of a ``Poly``; ``coeffs``
    reads them back as ``Fraction``s.
    """

    numerators: tuple[int, ...]
    denominator: int

    def __init__(self, coeffs: Sequence[Scalar]):
        nums, q = common_denominator(map(Fraction, coeffs))
        if not any(nums):
            raise CollectionError("linear form must be nonzero")
        object.__setattr__(self, "numerators", tuple(nums))
        object.__setattr__(self, "denominator", q)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.denominator) for c in self.numerators)

    def scaled_at(self, nums: Sequence[int]) -> int:
        """``denominator`` times the form's value at an integer vector."""
        return sum(map(operator.mul, self.numerators, nums))


def _adjugate(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], int] | None:
    """Integer ``adj`` and ``d`` with ``adj / d`` the inverse of a square
    integer matrix; None if it is singular.

    Fraction-free Gauss-Jordan (Bareiss): each step scales the other rows
    by the pivot and divides by the previous pivot, exactly.  At the end
    the left block is ``d`` times the identity, with ``d`` the determinant
    up to sign, and the right block is ``adj``.
    """
    n = len(rows)
    m = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(rows)]
    prev = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        top = m[col]
        p = top[col]
        for r in range(n):
            if r != col:
                c = m[r][col]
                m[r] = [(p * a - c * b) // prev for a, b in zip(m[r], top)]
        prev = p
    return [row[n:] for row in m], prev


def _add_scaled(a: tuple[list, int], b: tuple[list, int]) -> tuple[list, int]:
    """The sum of two vectors over their denominators, over the lcm; the
    entries may be integers or polynomials."""
    (xs, p), (ys, q) = a, b
    if p == q:
        return [x + y for x, y in zip(xs, ys)], p
    g = math.gcd(p, q)
    u, v = q // g, p // g
    return [x * u + y * v for x, y in zip(xs, ys)], p * u


def _join(a: tuple[Sequence[int], int], b: tuple[Sequence[int], int]
          ) -> tuple[list[int], int]:
    """Two integer vectors over their denominators as one vector, ``a``'s
    entries then ``b``'s, over the lcm; two vectors in lowest terms join
    in lowest terms."""
    (xs, p), (ys, q) = a, b
    m = math.lcm(p, q)
    return [x * (m // p) for x in xs] + [y * (m // q) for y in ys], m


def _lowest(nums: list[int], d: int) -> tuple[list[int], int]:
    """``nums / d`` in lowest terms, over a positive denominator."""
    g = math.gcd(d, *nums)
    if d < 0:
        g = -g
    return ([v // g for v in nums], d // g) if g != 1 else (nums, d)


def expected_form_count(n: int, ell: int) -> int:
    return (ell - 1) * (n - 1) + 1


class CoveringCollection:
    """Linear forms in general position with per-form companion choices.

    ``companions[i]`` lists, 0-based, the indices of the n-1 forms paired
    with form i.  Every n of the forms must be independent, so each
    stacked matrix [L_i; companions] is invertible, and ``inverses[i]``
    holds its inverse as integer rows over one positive denominator in
    lowest terms, ``(rows, q)``, the way ``LinearForm`` keeps
    ``numerators`` over ``denominator``.  Both come from ``_adjugate`` on
    the forms' integer numerators.
    """

    def __init__(self, n: int, ell: int,
                 forms: Sequence[LinearForm],
                 companions: Sequence[Sequence[int]]):
        if n < 1:
            raise CollectionError("source fiber dimension must be >= 1")
        if ell < 2:
            raise CollectionError("ell must be >= 2")
        forms = tuple(forms)
        companions = tuple(tuple(c) for c in companions)
        m = expected_form_count(n, ell)
        if len(forms) != m:
            raise CollectionError(
                f"need {m} forms for n={n}, ell={ell}, got {len(forms)}")
        for i, f in enumerate(forms):
            if len(f.numerators) != n:
                raise CollectionError(
                    f"form {i + 1} has arity {len(f.numerators)}, expected {n}")
        if len(companions) != len(forms):
            raise CollectionError("one companion list per form is required")
        for i, comp in enumerate(companions):
            if len(comp) != n - 1:
                raise CollectionError(
                    f"form {i + 1} needs {n - 1} companions, got {len(comp)}")
            for j in comp:
                if not 0 <= j < len(forms):
                    raise CollectionError(
                        f"companion index {j + 1} of form {i + 1} is out of range")
                if j == i:
                    raise CollectionError(f"form {i + 1} lists itself as companion")
            if len(set(comp)) != len(comp):
                raise CollectionError(f"form {i + 1} repeats a companion")
        self.n = n
        self.ell = ell
        self.forms = forms
        self.companions = companions
        # m = (ell-1)(n-1)+1 >= n, so every n-subset gives a square matrix;
        # scaling a row by its form's denominator keeps its rank
        for subset in itertools.combinations(range(m), n):
            if _adjugate([forms[i].numerators for i in subset]) is None:
                labels = ", ".join(str(i + 1) for i in subset)
                raise CollectionError(f"forms {labels} are linearly dependent")
        # each stacked matrix is one of those subsets, so it is invertible
        self.inverses = tuple(self._inverse(i) for i in range(m))

    def _inverse(self, i: int) -> tuple[tuple[tuple[int, ...], ...], int]:
        """The inverse of ``matrix(i)`` as integer rows over one positive
        denominator, in lowest terms.

        The stacked numerator rows are ``diag(q) * matrix(i)``, so their
        inverse ``adj / d`` times ``diag(q)`` is the inverse sought: column
        k of ``adj`` scaled by form k's denominator.
        """
        stacked = [self.forms[j] for j in (i, *self.companions[i])]
        adj, d = _adjugate([form.numerators for form in stacked])
        n = len(stacked)
        flat, q = _lowest([a * form.denominator
                           for row in adj for a, form in zip(row, stacked)], d)
        return tuple(tuple(flat[k:k + n]) for k in range(0, n * n, n)), q

    def matrix(self, i: int) -> list[list[Fraction]]:
        """Rows [L_i; companion forms], the change of coordinates for form i."""
        rows = [list(self.forms[i].coeffs)]
        for j in self.companions[i]:
            rows.append(list(self.forms[j].coeffs))
        return rows

    def __repr__(self):
        return f"CoveringCollection(n={self.n}, ell={self.ell}, m={len(self.forms)})"


def standard_collection(n: int, ell: int) -> CoveringCollection:
    """The concrete small collections used throughout the worked examples."""
    if n == 1:
        return CoveringCollection(1, ell, [LinearForm((1,))], [()])
    if n == 2 and ell == 2:
        forms = [LinearForm((1, 0)), LinearForm((0, 1))]
        return CoveringCollection(2, 2, forms, [(1,), (0,)])
    if n == 2 and ell == 3:
        forms = [LinearForm((1, 0)), LinearForm((0, 1)), LinearForm((1, 1))]
        return CoveringCollection(2, 3, forms, [(1,), (0,), (0,)])
    raise CollectionError(
        f"standard collection is only defined for n=1 or n=2 with ell<=3, "
        f"got n={n}, ell={ell}")


def vandermonde_collection(n: int, ell: int) -> CoveringCollection:
    """Forms L_i = sum_j i^(j-1) x_j; distinct nodes make every n-subset independent."""
    m = expected_form_count(n, ell)
    forms = [LinearForm(tuple(i ** j for j in range(n)))
             for i in range(1, m + 1)]
    companions = [tuple((i + k) % m for k in range(1, n)) for i in range(m)]
    return CoveringCollection(n, ell, forms, companions)


STRATEGIES = ("default", "vandermonde")


def covering_collection(n: int, ell: int, strategy: str = "default") -> CoveringCollection:
    """Build a collection; 'default' prefers the worked-example forms when defined."""
    if strategy not in STRATEGIES:
        raise CollectionError(f"unknown collection strategy {strategy!r}")
    if strategy == "default":
        try:
            return standard_collection(n, ell)
        except CollectionError:
            pass
    return vandermonde_collection(n, ell)


def collection_from_text(text: str, source: str = "<collection>") -> CoveringCollection:
    """Parse a collection file: a form line, then its companion line, repeated.

    Form lines are comma-separated rational coefficients; companion lines are
    comma-separated 1-based form indices.  '#' starts a comment; blank lines
    are skipped before a form but count as an empty companion list (the n=1
    case) after one.
    """
    forms: list[LinearForm] = []
    companions: list[tuple[int, ...]] = []
    n = None
    expect_form = True
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if expect_form:
            if not line:
                continue
            parts = [p.strip() for p in line.split(",")]
            try:
                coeffs = tuple(Fraction(p) for p in parts)
            except (ValueError, ZeroDivisionError):
                raise CollectionError(
                    f"{source}:{lineno}: cannot read coefficients from {line!r}")
            if n is None:
                n = len(coeffs)
            elif len(coeffs) != n:
                raise CollectionError(
                    f"{source}:{lineno}: expected {n} coefficients, got {len(coeffs)}")
            try:
                forms.append(LinearForm(coeffs))
            except CollectionError as exc:
                raise CollectionError(f"{source}:{lineno}: {exc}") from None
            expect_form = False
        else:
            parts = [p.strip() for p in line.split(",") if p.strip()]
            try:
                idx = tuple(int(p) - 1 for p in parts)
            except ValueError:
                raise CollectionError(
                    f"{source}:{lineno}: cannot read companion indices from {line!r}")
            if len(idx) != n - 1:
                raise CollectionError(
                    f"{source}:{lineno}: expected {n - 1} companion indices, got {len(idx)}")
            companions.append(idx)
            expect_form = True
    if n is None:
        raise CollectionError(f"{source}: no forms found")
    if not expect_form:
        if n == 1:
            companions.append(())
        else:
            raise CollectionError(
                f"{source}: form {len(forms)} is missing its companion line")
    m = len(forms)
    if n == 1:
        ell = 2
        if m != 1:
            raise CollectionError(
                f"{source}: n=1 collections consist of a single form, got {m}")
    else:
        if (m - 1) % (n - 1) != 0:
            raise CollectionError(
                f"{source}: {m} forms do not fit (ell-1)*({n}-1)+1 for any ell")
        ell = (m - 1) // (n - 1) + 1
        if ell < 2:
            raise CollectionError(f"{source}: too few forms (ell would be {ell})")
    try:
        return CoveringCollection(n, ell, forms, companions)
    except CollectionError as exc:
        raise CollectionError(f"{source}: {exc}") from None


def collection_from_file(path: str) -> CoveringCollection:
    with open(path, "r", encoding="utf-8") as fh:
        return collection_from_text(fh.read(), source=path)


# ---- multi-indices ---------------------------------------------------------


def index_bound(n: int, ell: int, i: int) -> int:
    """Upper bound of the i-th entry (1-based level) of a multi-index."""
    return (ell - i) * (n - 1) + 1


def multi_indices(n: int, r: int, ell: int | None = None) -> list[tuple[int, ...]]:
    """All multi-indices for order r, in lexicographic order."""
    if r < 2:
        raise ValueError("order r must be >= 2")
    if ell is None:
        ell = r
    if ell < r:
        raise ValueError(f"ell={ell} must be >= r={r}")
    ranges = [range(1, index_bound(n, ell, i) + 1) for i in range(1, r)]
    return [tuple(t) for t in itertools.product(*ranges)]


def chart_count(n: int, r: int, ell: int | None = None) -> int:
    if ell is None:
        ell = r
    count = 1
    for i in range(1, r):
        count *= index_bound(n, ell, i)
    return count


# ---- charts ----------------------------------------------------------------


def _default_base_names(n: int) -> tuple[str, ...]:
    if n <= 3:
        return ("x", "y", "z")[:n]
    return tuple(f"x{i}" for i in range(1, n + 1))


def _default_param_names(s: int) -> tuple[str, ...]:
    if s == 0:
        return ()
    if s == 1:
        return ("t",)
    return tuple(f"t{i}" for i in range(1, s + 1))


@dataclass(frozen=True)
class Chart:
    """One affine chart: its multi-index, coordinate table and nu data."""

    alpha: tuple[int, ...]
    cc: CoveringCollection
    r: int
    table: VarTable
    param_names: tuple[str, ...]
    base_names: tuple[str, ...]
    lambda_names: tuple[str, ...]
    a_names: tuple[tuple[str, ...], ...]

    @property
    def n(self) -> int:
        return len(self.base_names)

    @property
    def s(self) -> int:
        return len(self.param_names)

    @property
    def exceptional(self) -> Poly:
        """The exceptional divisor of the last blowup: the top-level lambda."""
        return Poly.variable(self.table, self.lambda_names[-1])

    def name(self) -> str:
        return "U(" + ",".join(str(a) for a in self.alpha) + ")"

    def level_names(self, j: int) -> tuple[str, ...]:
        """Level j's coordinate names: the base block at 0, else (lambda_j, a_j...)."""
        if j == 0:
            return self.base_names
        return (self.lambda_names[j - 1], *self.a_names[j - 1])

    def level_tuple(self, i: int) -> list[Poly]:
        """Level-i coordinates as polynomials."""
        return [Poly.variable(self.table, nm) for nm in self.level_names(i)]

    @cached_property
    def nu(self) -> tuple[tuple[Poly, ...], ...]:
        """nu_i of every level i, on the level's own coordinates."""
        return tuple(tuple(_over(*self._nu(i, (self.level_tuple(i), 1))))
                     for i in range(1, self.r))

    def _nu(self, level: int, gamma: tuple[list, int]) -> tuple[list, int]:
        """nu of level on a vector N over a denominator D, its entries
        polynomials or integers.

        N / D is read as level coordinates (v_0, ..., v_{n-1}), so the image
        is the matrix inverse applied to (v_0, v_0*v_1, ..., v_0*v_{n-1}):
        the inverse's integer rows applied to (N_0 D, N_0 N_1, ...,
        N_0 N_{n-1}), over q D^2.
        """
        rows, q = self.cc.inverses[self.alpha[level - 1] - 1]
        nums, d = gamma
        v0 = nums[0]
        unprojectivized = [v0 * d, *(v0 * v for v in nums[1:])]
        return ([sum(map(operator.mul, row, unprojectivized)) for row in rows],
                q * d * d)

    def project(self, nums: Sequence, d: int = 1) -> list[tuple[list, int]]:
        """Source points x^(0..r-1) at the chart point ``nums / d``, one
        numerator per table variable.

        The numerators may be polynomials or integers.  x^(0) is the base
        point itself; x^(j) accumulates the level increments by the
        descending recursion through intermediate gamma vectors.  Every
        level, gamma vector and source point is a vector over one integer
        denominator, not reduced; ``projection_to_Xr`` divides the
        polynomial ones through.
        """
        index = self.table.index
        levels = [([nums[index(nm)] for nm in self.level_names(j)], d)
                  for j in range(self.r)]
        out = [levels[0]]
        for j in range(1, self.r):
            gamma = levels[j]
            for i in range(j - 1, -1, -1):
                gamma = _add_scaled(levels[i], self._nu(i + 1, gamma))
            out.append(gamma)
        return out


def _over(nums: list[Poly], d: int) -> list[Poly]:
    """The polynomials ``nums`` divided by the integer d."""
    return nums if d == 1 else [Poly.reduced(v.table, v.terms, v.den * d) for v in nums]


def build_chart(cc: CoveringCollection, alpha: Sequence[int], n: int, r: int,
                params: int = 0,
                param_names: Sequence[str] | None = None,
                base_names: Sequence[str] | None = None,
                table: VarTable | None = None) -> Chart:
    """Assemble the chart for one multi-index.

    ``n`` is the source fiber dimension and must match the collection;
    ``params`` counts unfolding parameters placed before the base block.
    A ``table`` with the chart's coordinate names is used instead of a new
    one, so that charts of one order can share it; its names must match.
    """
    alpha = tuple(alpha)
    if n != cc.n:
        raise CollectionError(f"chart fiber dimension {n} != collection n={cc.n}")
    if len(alpha) != r - 1:
        raise CollectionError(
            f"multi-index {alpha} has length {len(alpha)}, expected r-1={r - 1}")
    for i, ai in enumerate(alpha, start=1):
        bound = index_bound(n, cc.ell, i)
        if not 1 <= ai <= bound:
            raise CollectionError(
                f"multi-index entry {ai} at level {i} is out of range 1..{bound}")
    if param_names is None:
        param_names = _default_param_names(params)
    param_names = tuple(param_names)
    if len(param_names) != params:
        raise CollectionError(
            f"{params} parameters but {len(param_names)} parameter names")
    if base_names is None:
        base_names = _default_base_names(n)
    base_names = tuple(base_names)
    if len(base_names) != n:
        raise CollectionError(f"{n} base variables but {len(base_names)} names")

    lambda_names = tuple(f"l{i}" for i in range(1, r))
    a_names = []
    for i in range(1, r):
        if n == 1:
            a_names.append(())
        elif n == 2:
            a_names.append((f"a{i}",))
        else:
            a_names.append(tuple(f"a{i}_{k}" for k in range(1, n)))
    a_names = tuple(a_names)

    names = list(param_names) + list(base_names)
    for i in range(1, r):
        names.append(lambda_names[i - 1])
        names.extend(a_names[i - 1])
    if len(set(names)) != len(names):
        seen = set()
        dup = next(nm for nm in names if nm in seen or seen.add(nm))
        raise CollectionError(
            f"variable name {dup!r} collides with generated chart coordinates")
    if table is None:
        table = VarTable(names)
    elif table.names != tuple(names):
        raise ValueError(f"{table!r} does not hold the chart coordinates {names}")
    return Chart(alpha=alpha, cc=cc, r=r, table=table,
                 param_names=param_names, base_names=base_names,
                 lambda_names=lambda_names, a_names=a_names)


def build_atlas(cc: CoveringCollection, n: int, r: int, params: int = 0,
                param_names: Sequence[str] | None = None,
                base_names: Sequence[str] | None = None) -> list[Chart]:
    """All charts for order r, in lexicographic multi-index order."""
    return [build_chart(cc, alpha, n, r, params, param_names, base_names)
            for alpha in multi_indices(n, r, cc.ell)]


def projection_to_Xr(chart: Chart) -> list[list[Poly]]:
    """Source points x^(0..r-1) as polynomials in the chart coordinates."""
    variables = [Poly.variable(chart.table, nm) for nm in chart.table.names]
    return [_over(*point) for point in chart.project(variables)]


class TupleEncoding:
    """One source tuple's chart coordinates on the charts of one collection.

    The inverse of ``Chart.project``: level j holds lambda_j, the chosen
    form on each current difference vector, and the companion forms divided
    by it, so each level needs the chosen form nonzero on every difference.
    A tuple with a repeated point therefore has no coordinates on any chart.

    Level j reads only alpha[:j], so each alpha prefix is encoded once, on
    first use, and shared by every chart that extends it; a prefix whose
    form vanishes on a difference leaves all those charts without
    coordinates.  The last level has one difference: ``represents`` tests
    its form there, and its coordinates are built only when read.  The
    encoding lives as long as the object.

    The source points and the parameters come as integer vectors over a
    denominator, in any terms.  Every vector the encoding keeps is held the
    way ``LinearForm`` keeps its coefficients: integers N over one positive
    denominator d, in lowest terms.  A form F is applied as ``F.scaled_at(N) / (F.denominator * d)``, so with
    ``L = F_a.scaled_at(N)`` lambda is ``L / (q_a d)`` and a companion
    ``F_k.scaled_at(N) q_a / (q_k L)``: the level is one integer vector over
    ``q_a d L`` times the lcm of the companions' q_k, divided by one gcd.
    A chart point is the head and its levels joined over the lcm of their
    denominators, so it is in lowest terms too.
    """

    def __init__(self, cc: CoveringCollection,
                 fiber_points: Sequence[tuple[Sequence[int], int]],
                 params: tuple[Sequence[int], int] = ((), 1)):
        self.cc = cc
        head = _lowest(*_join(params, fiber_points[0]))
        nums, d = fiber_points[0]
        base = ([-v for v in nums], d)
        diffs = [_lowest(*_add_scaled(pt, base)) for pt in fiber_points[1:]]
        # alpha prefix -> (its chart coordinates over one denominator, the
        # next level's difference vectors), or None when it misses the tuple
        self._prefixes: dict[tuple, tuple | None] = {(): (head, diffs)}

    def _alpha(self, chart: Chart) -> tuple:
        if chart.cc is not self.cc:
            raise ValueError(f"{chart.name()} is over another collection")
        return chart.alpha

    def _prefix(self, alpha: tuple) -> tuple | None:
        if alpha in self._prefixes:
            return self._prefixes[alpha]
        state = self._prefix(alpha[:-1])
        if state is not None:
            state = self._level(alpha[-1], *state)
        self._prefixes[alpha] = state
        return state

    def _level(self, a: int, point: tuple, diffs: list) -> tuple | None:
        cc = self.cc
        form = cc.forms[a - 1]
        qa = form.denominator
        companions = [cc.forms[k] for k in cc.companions[a - 1]]
        q = math.lcm(*(g.denominator for g in companions))
        encoded = []
        for nums, d in diffs:
            lam = form.scaled_at(nums)
            if not lam:
                return None
            scale = qa * qa * d
            encoded.append(_lowest(
                [lam * lam * q,
                 *(g.scaled_at(nums) * scale * (q // g.denominator) for g in companions)],
                qa * d * lam * q))
        # the first difference's level is the prefix's; the others,
        # less it, are the next level's differences
        level, e = encoded[0]
        first = ([-v for v in level], e)
        return (_join(point, encoded[0]),
                [_lowest(*_add_scaled(later, first)) for later in encoded[1:]])

    def represents(self, chart: Chart) -> bool:
        """Whether ``chart`` has coordinates for the tuple; the last level's
        form is tested on its difference without building the level."""
        alpha = self._alpha(chart)
        if alpha in self._prefixes:
            return self._prefixes[alpha] is not None
        state = self._prefix(alpha[:-1])
        form = self.cc.forms[alpha[-1] - 1]
        return state is not None and all(form.scaled_at(nums) for nums, _ in state[1])

    def scaled(self, chart: Chart) -> ScaledPoint | None:
        """The tuple's point on ``chart`` as integers over one denominator,
        in lowest terms, one value per table variable, or None when the
        chart does not represent it."""
        state = self._prefix(self._alpha(chart))
        return None if state is None else ScaledPoint(*state[0])
