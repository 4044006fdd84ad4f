"""Covering collections, the chart set of the universal space, and projections.

A covering collection is a family of linear forms on the source fiber C^n in
general position, each with n-1 companion forms.  Every multi-index alpha
picks one form per level and determines an affine chart with coordinates
(params | base | lambda/a blocks); the nu maps translate level coordinates
into source-space increments.  Each form's inverse matrix is kept once, as
integer rows over one denominator, and one routine applies it to a vector of
polynomials or integers over a denominator: ``Chart.nu`` and
``Chart.project``, which recovers the r source points from chart
coordinates, polynomial or rational, both run through it.
``TupleEncoding`` inverts ``Chart.project`` on a rational tuple, once per
alpha prefix.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .polyring import Poly, PolyError, Scalar, VarTable, common_denominator


class CollectionError(PolyError):
    """Invalid covering collection data."""


@dataclass(frozen=True)
class LinearForm:
    """A linear form sum(c_j * x_j) on the source fiber.

    ``coeffs`` are ``Fraction``s; ``numerators`` over ``denominator`` are
    the same coefficients as integers over one positive denominator, the
    layout of a ``Poly``.
    """

    coeffs: tuple[Scalar, ...]
    numerators: tuple[int, ...] = field(init=False, repr=False, compare=False)
    denominator: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        coeffs = tuple(map(Fraction, self.coeffs))
        if not any(coeffs):
            raise CollectionError("linear form must be nonzero")
        nums, q = common_denominator(coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "numerators", tuple(nums))
        object.__setattr__(self, "denominator", q)

    def scaled_at(self, nums: Sequence[int]) -> int:
        """``denominator`` times the form's value at an integer vector."""
        return sum(map(operator.mul, self.numerators, nums))


def _invert(rows: list[list[Fraction]]) -> list[list[Fraction]] | None:
    """Exact inverse of a square matrix over Q; None if it is singular."""
    n = len(rows)
    m = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return [row[n:] for row in m]


def _integer_rows(rows: list[list[Fraction]]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """A rational matrix as integer rows over one denominator q."""
    nums, q = common_denominator(v for row in rows for v in row)
    width = len(rows[0])
    return tuple(tuple(nums[k:k + width])
                 for k in range(0, len(nums), width)), q


def _add_scaled(a: tuple[list, int], b: tuple[list, int]) -> tuple[list, int]:
    """The sum of two vectors over their denominators, over the lcm; the
    entries may be integers or polynomials."""
    (xs, p), (ys, q) = a, b
    if p == q:
        return [x + y for x, y in zip(xs, ys)], p
    g = math.gcd(p, q)
    u, v = q // g, p // g
    return [x * u + y * v for x, y in zip(xs, ys)], p * u


def expected_form_count(n: int, ell: int) -> int:
    return (ell - 1) * (n - 1) + 1


class CoveringCollection:
    """Linear forms in general position with per-form companion choices.

    ``companions[i]`` lists, 0-based, the indices of the n-1 forms paired
    with form i; the stacked matrix [L_i; companions] must be invertible,
    and ``inverses[i]`` holds its inverse as integer rows over one
    denominator, ``(rows, q)``, the way ``LinearForm`` keeps ``numerators``
    over ``denominator``.
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
            if len(f.coeffs) != n:
                raise CollectionError(f"form {i + 1} has arity {len(f.coeffs)}, expected {n}")
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
        self._check_general_position()
        inverses = [_invert(self.matrix(i)) for i in range(m)]
        for i, inv in enumerate(inverses):
            if inv is None:
                raise CollectionError(
                    f"form {i + 1} with its companions gives a singular matrix")
        self.inverses = tuple(map(_integer_rows, inverses))

    def _check_general_position(self):
        # m = (ell-1)(n-1)+1 >= n, so every n-subset gives a square matrix
        for subset in itertools.combinations(range(len(self.forms)), self.n):
            rows = [list(self.forms[i].coeffs) for i in subset]
            if _invert(rows) is None:
                labels = ", ".join(str(i + 1) for i in subset)
                raise CollectionError(f"forms {labels} are linearly dependent")

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


def covering_collection(n: int, ell: int, strategy: str = "default") -> CoveringCollection:
    """Build a collection; 'default' prefers the worked-example forms when defined."""
    if strategy == "vandermonde":
        return vandermonde_collection(n, ell)
    if strategy == "default":
        try:
            return standard_collection(n, ell)
        except CollectionError:
            return vandermonde_collection(n, ell)
    raise CollectionError(f"unknown collection strategy {strategy!r}")


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

    def project(self, coords: Sequence) -> list[list]:
        """Source points x^(0..r-1) at ``coords``, one value per table variable.

        The values may be polynomials or rationals.  x^(0) is the base point
        itself; x^(j) accumulates the level increments by the descending
        recursion through intermediate gamma vectors.  Each level and gamma
        vector is a vector over one integer denominator: a level of
        polynomials over 1, a rational level scaled to integers.  Only the
        output divides by the denominator, once per coordinate.
        """
        index = self.table.index
        levels = [[coords[index(nm)] for nm in self.level_names(j)]
                  for j in range(self.r)]
        out = [list(levels[0])]
        symbolic = any(isinstance(v, Poly) for v in coords)
        levels = [(level, 1) if symbolic else common_denominator(level)
                  for level in levels]
        for j in range(1, self.r):
            gamma = levels[j]
            for i in range(j - 1, 0, -1):
                gamma = _add_scaled(levels[i], self._nu(i + 1, gamma))
            nums, d = _add_scaled(levels[0], self._nu(1, gamma))
            out.append(_over(nums, d) if symbolic else [Fraction(v, d) for v in nums])
        return out


def _over(nums: list[Poly], d: int) -> list[Poly]:
    """The polynomials ``nums`` divided by the integer d."""
    return nums if d == 1 else [v * Fraction(1, d) for v in nums]


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
    return chart.project([Poly.variable(chart.table, nm) for nm in chart.table.names])


class TupleEncoding:
    """One source tuple's chart coordinates on the charts of one collection.

    The inverse of ``Chart.project``: level j holds lambda_j, the chosen
    form on each current difference vector, and the companion forms divided
    by it, so each level needs the chosen form nonzero on every difference.
    A tuple with a repeated point therefore has no coordinates on any chart.

    Level j reads only alpha[:j], so each alpha prefix is encoded once, on
    first use, and shared by every chart that extends it; a prefix whose
    form vanishes on a difference leaves all those charts without
    coordinates.  The encoding lives as long as the object.

    Each difference vector is scaled to integers N / d and each form F is
    applied as ``F.scaled_at(N) / F.denominator``, so lambda is
    ``F_a(N) / (q_a * d)`` and a companion ``F_k(N) * q_a / (q_k * F_a(N))``:
    d cancels, and a coordinate's one Fraction is built from two integers.
    """

    def __init__(self, cc: CoveringCollection,
                 fiber_points: Sequence[Sequence[Fraction]],
                 params: Sequence[Fraction] = ()):
        base = fiber_points[0]
        self.cc = cc
        self._head = (*params, *base)
        # alpha prefix -> (its level coordinates, the next level's
        # difference vectors), or None when the prefix misses the tuple
        self._prefixes: dict[tuple, tuple | None] = {
            (): ((), [[q - b for q, b in zip(pt, base)] for pt in fiber_points[1:]])}

    def _prefix(self, alpha: tuple) -> tuple | None:
        if alpha in self._prefixes:
            return self._prefixes[alpha]
        state = self._prefix(alpha[:-1])
        if state is not None:
            state = self._level(alpha[-1], *state)
        self._prefixes[alpha] = state
        return state

    def _level(self, a: int, coords: tuple, prev: list) -> tuple | None:
        cc = self.cc
        form = cc.forms[a - 1]
        qa = form.denominator
        companions = [cc.forms[k] for k in cc.companions[a - 1]]
        encoded = []
        for delta in prev:
            nums, d = common_denominator(delta)
            lam = form.scaled_at(nums)
            if not lam:
                return None
            encoded.append([Fraction(lam, qa * d),
                            *(Fraction(g.scaled_at(nums) * qa, g.denominator * lam)
                              for g in companions)])
        first = encoded[0]
        return ((*coords, *first),
                [[q - b for q, b in zip(later, first)] for later in encoded[1:]])

    def coords(self, chart: Chart) -> list | None:
        """The tuple's coordinates on ``chart``, one value per table
        variable, or None when the chart does not represent it."""
        if chart.cc is not self.cc:
            raise ValueError(f"{chart.name()} is over another collection")
        state = self._prefix(chart.alpha)
        return None if state is None else [*self._head, *state[0]]

