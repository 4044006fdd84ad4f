"""Exact multivariate polynomial arithmetic over Q.

Polynomials live in a ring described by a VarTable (an ordered list of named
variables; on a chart: parameters, base variables, then per-level lambda/a
blocks).  Coefficients are exact rationals, held as in FLINT's
``fmpq_mpoly``: a Poly is an integer term map over one positive
denominator, ``terms / den``, in lowest terms.  The ambient term order is
degree-reverse-lexicographic with earlier variables larger.

One monomial layout serves the whole package, the Groebner engine
included: a monomial is a single int (``Codec``, after Monagan & Pearce
2007).  Field i, ``FIELD_BITS`` wide, holds ``cap - e_i`` with the last
variable most significant, and the total degree sits above every field, so
int order is degrevlex order and the packed int is its own sort key for
``render``, ``primitive_terms`` and leading terms.  A product of monomials
is ``a + b - zero``; ``divide_by_variable`` subtracts the variable's offset.
Each VarTable owns its codec, and the field width is one constant, so equal
tables pack alike.

A total degree above the cap ``2**(FIELD_BITS - 1) - 1`` = 32767 does not
pack, and ``DegreeBoundError`` names the bound wherever a monomial would
exceed it: exponent tuples given to ``Poly``, ``*`` and ``**`` (checked from
the operands' top degrees) and the lifted terms of the expansion loop.

A Poly keeps no exponent tuples.  Code that needs one variable's exponent
(``differentiate`` and ``divdiff``'s synthetic division) reads that field
alone with ``Codec.exponent``; code that needs every exponent calls
``Codec.unpack``: ``variables_used`` on each call, and ``evaluate`` once
per Poly, to build the plan it keeps.  ``render`` takes a
monomial's text from its table (``VarTable.monomial_text``), which builds
the text of each packed monomial once and keeps it as long as the table
lives.  The charts of one map and order share one table, so one run builds
each text once.  ``render`` writes every integer through ``_digits``,
which raises ``PolyError`` past Python's int-string limit (4300 digits by
default), the bound under which ``parse_poly`` reads literals: every
written form re-parses.

``Poly(table, terms)`` reads exponent tuples to ``int`` or ``Fraction``
coefficients and checks every term, for input at the edges such as
``verify.rand_poly`` and tests; ``common_denominator`` turns the values
into numerators over their lcm, which is already in lowest terms.
Everything else, the parser included (through ``Poly.variable``,
``Poly.constant`` and the ring operators), builds through
``Poly.from_packed``, with no per-term checks, or through ``Poly.reduced``
when the result may share a factor with its denominator.

Every operation runs on the integer numerators.  ``+`` scales both maps
to the lcm of the denominators and adds on the one term loop,
``_add_multiple``; ``*`` multiplies numerators and denominators; both, and
``differentiate`` and ``transplant``, reduce once at the end.
``evaluate`` builds one ``Fraction`` per call, at the exit.  A caller that
evaluates at one point many times scales it once (``scale_point``) and
passes the ``ScaledPoint`` to each ``evaluate``.  ``evaluate`` reads a plan
that each Poly builds on its first evaluation and keeps: per term, its
lift and only the nonzero factors.

Substitution has one expansion loop, ``_expand``: per source term it reads
the exponent vector E of the substituted variables and the kept monomial
from the packed int, lifts the integer numerator to one common
denominator, checks the lifted degree and adds the term times an expansion
of E into one integer term map.  Two routines call it.  ``transplant`` (and
``substitute``, which is ``transplant`` onto p's own table) expands E into
``Substitution.product(E)``; ``divdiff``'s difference chain expands E into
a difference quotient built from that product.  Both put the sum over the
lifted denominator through ``Poly.reduced``.  A ``Substitution`` holds the
images' integer numerators and a memo from E to the integer product
``prod(image_i ** E_i)``.  The memo does not depend on the polynomial
substituted into, so a ``Substitution`` used again expands each E once.
``transplant`` builds one for a plain mapping and drops it with the call.
``divdiff`` keeps one per level shift on the run's ``PolyMap``, keyed by
(collection, order, level, alpha_j) and living as long as the map, so every
component and every chart of a run that picks one form at one level shares
its expansions.  The telescoping check reads the shifts of its own copy of
the map.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence, Union

Scalar = Union[int, Fraction]

FIELD_BITS = 16  # bits per variable field of every table's packed monomials


class PolyError(Exception):
    """Base class for errors raised by this package."""


class TableMismatchError(PolyError):
    """Operands constructed over different variable tables."""


class DegreeBoundError(PolyError):
    """A monomial's total degree is above what its packed layout holds."""

    def __init__(self, degree: int, cap: int):
        super().__init__(
            f"total degree {degree} exceeds the bound {cap} of a packed monomial")


class ParseError(PolyError):
    """Syntax error in a polynomial source string."""

    def __init__(self, message: str, src: str, pos: int):
        super().__init__(f"{message} at position {pos}: {src!r}")
        self.src = src
        self.pos = pos


class UnknownVariableError(ParseError):
    """Identifier that does not resolve in the variable table."""


class NotDivisibleError(PolyError):
    """Exact division failed; carries the offending monomial."""

    def __init__(self, variable: str, monomial: str):
        super().__init__(f"monomial {monomial} is not divisible by {variable}")
        self.variable = variable
        self.monomial = monomial


class Codec:
    """Monomials of ``n`` variables packed into one int, ``w`` bits a field.

    Field i holds ``cap - e_i`` with ``cap = 2**(w-1) - 1``, the last variable
    most significant, and the total degree sits ``shift`` bits up, above every
    field; so int order is degrevlex order.  A monomial packs only when its
    total degree is at most ``cap``: then every field value, and every field
    of a difference ``b - a + zero``, lies in ``[0, 2*cap]``, and the field's
    top (guard) bit is set exactly when ``a_i > b_i``.  Packing is linear:
    ``pack(e) == zero + sum(e_i * offsets[i])``.

    ``lcm`` works on the packed ints.  The guard bits of ``b - a + zero``
    mark the fields where ``a_i > b_i``; each is spread to a full-field mask,
    and the lcm's field is the smaller of the two, taken from ``a`` or ``b``.
    The fields of ``a`` minus those of the lcm have base-``2**w`` digits
    ``max(0, b_i - a_i) >= 0``, so the lcm's degree is ``deg(a)`` plus that
    difference mod ``2**w - 1``; this is exact because the digits sum to at
    most ``deg(b) <= cap < 2**w - 1``.  A degree above ``cap`` raises
    ``DegreeBoundError``, as ``pack`` does.
    """

    __slots__ = ("n", "w", "cap", "shift", "zero", "guards", "offsets",
                 "_fields")

    def __init__(self, n: int, w: int = FIELD_BITS):
        self.n, self.w = n, w
        self.cap = (1 << (w - 1)) - 1
        self.shift = n * w
        self.zero = sum(self.cap << (w * i) for i in range(n))  # pack(0)
        self.guards = sum(1 << (w * i + w - 1) for i in range(n))
        self.offsets = tuple((1 << self.shift) - (1 << (w * i)) for i in range(n))
        self._fields = (1 << self.shift) - 1

    def widened(self) -> "Codec":
        """The same variables at double field width."""
        return Codec(self.n, 2 * self.w)

    def check_degree(self, degree: int) -> None:
        if degree > self.cap:
            raise DegreeBoundError(degree, self.cap)

    def pack(self, e: Sequence[int]) -> int:
        x = sum(e)
        self.check_degree(x)
        for v in reversed(e):
            x = (x << self.w) | (self.cap - v)
        return x

    def unpack(self, x: int) -> tuple:
        x = self.zero - (x & self._fields)  # field i holds e_i: no borrows
        mask = (1 << self.w) - 1
        e = []
        for _ in range(self.n):
            e.append(x & mask)
            x >>= self.w
        return tuple(e)

    def exponent(self, x: int, i: int) -> int:
        """``unpack(x)[i]``, read from field i alone."""
        return self.cap - ((x >> (self.w * i)) & ((1 << self.w) - 1))

    def divides(self, a: int, b: int) -> bool:
        return not (b - a + self.zero) & self.guards

    def lcm(self, a: int, b: int) -> int:
        w, fields = self.w, self._fields
        over = (b - a + self.zero) & self.guards  # fields with a_i > b_i
        pick = (over << 1) - (over >> (w - 1))  # those fields, every bit set
        fa = a & fields
        fl = (b & fields) ^ ((fa ^ b) & pick)  # the smaller field of a and b
        # the digits of fa - fl sum to at most cap < 2**w - 1: the mod is exact
        degree = (a >> self.shift) + (fa - fl) % ((1 << w) - 1)
        self.check_degree(degree)
        return (degree << self.shift) | fl


class VarTable:
    """Ordered, named variable set shared by all polynomials of a ring.

    ``codec`` is the ring's monomial layout.  Its field width is the same for
    every table, so tables with equal names, which compare equal, pack alike.
    ``monomial_text`` keeps the text of every monomial it has rendered.
    """

    __slots__ = ("names", "_index", "codec", "_texts")

    def __init__(self, names: Sequence[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        for nm in names:
            if not nm or not (nm[0].isalpha()) or not all(c.isalnum() or c == "_" for c in nm):
                raise ValueError(f"invalid variable name {nm!r}")
        self.names = names
        self._index = {nm: i for i, nm in enumerate(names)}
        self.codec = Codec(len(names))
        self._texts: dict[int, str] = {}  # packed monomial -> its text

    def monomial_text(self, m: int) -> str:
        """``x^2*y`` for a packed monomial, ``""`` for 1; built once per table."""
        text = self._texts.get(m)
        if text is None:
            text = self._texts[m] = "*".join([
                nm if e == 1 else f"{nm}^{e}"
                for nm, e in zip(self.names, self.codec.unpack(m)) if e])
        return text

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r}; table has {self.names}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other):
        return self is other or (isinstance(other, VarTable)
                                 and self.names == other.names)

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"VarTable({', '.join(self.names)})"


def degrevlex_key(exps: Sequence[int]):
    """Sort key of an exponent tuple realizing degrevlex with earlier table
    variables larger; a packed monomial is its own key."""
    return (sum(exps), tuple(-e for e in reversed(exps)))


def _add_multiple(out: dict, c: Scalar, shift: int, g: Mapping,
                  created: list | None = None) -> None:
    """out += c * x^shift * g, dropping zero sums; a packed shift is a
    monomial minus its codec's ``zero``.  ``c`` is nonzero and ``g`` holds
    no zero coefficient, so only a sum with an existing term can vanish.

    When ``created`` is given, each monomial that was not in ``out`` is
    appended to it: the Groebner engine's reduction keeps its heap of head
    candidates from exactly these.

    The one term-product loop: ``*``, ``_expand`` and the Groebner
    engine's reduction steps and S-polynomials all run on it.
    """
    for m, v in g.items():
        m += shift
        s = out.get(m)
        if s is None:
            out[m] = c * v
            if created is not None:
                created.append(m)
        else:
            s += c * v
            if s:
                out[m] = s
            else:
                del out[m]


def _product(t1: Mapping, t2: Mapping, zero: int) -> dict:
    """The product of two packed term maps."""
    out: dict = {}
    for m, c in t1.items():
        _add_multiple(out, c, m - zero, t2)
    return out


class Poly:
    """Immutable multivariate polynomial with exact rational coefficients.

    The polynomial is ``terms / den``: ``terms`` maps packed monomials (of
    ``table.codec``) to nonzero ``int`` numerators and ``den`` is a positive
    ``int``, the pair in lowest terms (``gcd(den, *terms.values()) == 1``),
    so equal polynomials have equal fields.  The zero polynomial has an
    empty map over 1.  Do not mutate ``terms`` after construction: every
    operation returns a fresh Poly.

    ``Poly(table, terms)`` reads exponent tuples to ``int`` or ``Fraction``
    coefficients and checks every term; the lcm of their denominators is
    already a lowest-terms ``den``.  The operations of this package build
    their results with ``from_packed``, which trusts its input, or with
    ``reduced``, which divides out the gcd of a result that may have one.
    """

    __slots__ = ("table", "terms", "den", "_plan")

    def __init__(self, table: VarTable, terms: Mapping[tuple, Scalar]):
        pack = table.codec.pack
        width = len(table)
        clean = {}
        for exps, c in terms.items():
            if len(exps) != width or min(exps, default=0) < 0:
                raise ValueError(f"exponent vector {exps} is not valid for {table!r}")
            if c:
                clean[pack(exps)] = c
        nums, den = common_denominator(clean.values())
        self.table = table
        self.terms = dict(zip(clean, nums))
        self.den = den
        self._plan = None

    # ---- constructors -------------------------------------------------

    @classmethod
    def from_packed(cls, table: VarTable, terms: dict, den: int = 1) -> "Poly":
        """The Poly ``terms / den`` that owns ``terms``, unchecked: packed
        monomials of ``table.codec`` to nonzero ints, in lowest terms."""
        p = object.__new__(cls)
        p.table = table
        p.terms = terms
        p.den = den
        p._plan = None
        return p

    @classmethod
    def reduced(cls, table: VarTable, terms: dict, den: int) -> "Poly":
        """The Poly ``terms / den`` for an integer term map and a positive
        ``den`` that may share a factor: the gcd is divided out."""
        if den != 1:
            g = math.gcd(den, *terms.values())
            if g != 1:
                terms = {m: v // g for m, v in terms.items()}
                den //= g
        return cls.from_packed(table, terms, den)

    @classmethod
    def zero(cls, table: VarTable) -> "Poly":
        return cls.from_packed(table, {})

    @classmethod
    def constant(cls, table: VarTable, c: Scalar) -> "Poly":
        if not c:
            return cls.zero(table)
        return cls.from_packed(table, {table.codec.zero: c.numerator}, c.denominator)

    @classmethod
    def variable(cls, table: VarTable, name: str) -> "Poly":
        codec = table.codec
        return cls.from_packed(table, {codec.zero + codec.offsets[table.index(name)]: 1})

    # ---- predicates -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        zero = self.table.codec.zero
        return all(m == zero for m in self.terms)

    def top_degree(self) -> int:
        """The largest total degree of a term; 0 for the zero polynomial."""
        return max(self.terms, default=0) >> self.table.codec.shift

    def leading_monomial(self) -> tuple:
        if self.is_zero():
            raise PolyError("zero polynomial has no leading monomial")
        return self.table.codec.unpack(max(self.terms))

    def leading_coefficient(self) -> Scalar:
        if self.is_zero():
            raise PolyError("zero polynomial has no leading coefficient")
        c = Fraction(self.terms[max(self.terms)], self.den)
        return c.numerator if c.denominator == 1 else c

    def variables_used(self) -> list[str]:
        used = set()
        for exps in map(self.table.codec.unpack, self.terms):
            for i, e in enumerate(exps):
                if e:
                    used.add(i)
        return [self.table.names[i] for i in sorted(used)]

    # ---- ring operations ----------------------------------------------

    def _check(self, other: "Poly"):
        if self.table != other.table:
            raise TableMismatchError(
                f"operands over different tables: {self.table!r} vs {other.table!r}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.table, other)
        self._check(other)
        a, b = self.den, other.den  # over lcm(a, b): self times u, other times v
        g = math.gcd(a, b)
        u, v = b // g, a // g
        terms = dict(self.terms) if u == 1 else {m: c * u for m, c in self.terms.items()}
        _add_multiple(terms, v, 0, other.terms)
        return Poly.reduced(self.table, terms, a * u)

    __radd__ = __add__

    def __neg__(self):
        return Poly.from_packed(self.table, {m: -c for m, c in self.terms.items()},
                                self.den)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.table, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return Poly.zero(self.table)
            c = other.numerator
            return Poly.reduced(self.table, {m: c * v for m, v in self.terms.items()},
                                self.den * other.denominator)
        self._check(other)
        codec = self.table.codec
        codec.check_degree(self.top_degree() + other.top_degree())
        return Poly.reduced(self.table, _product(self.terms, other.terms, codec.zero),
                            self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        self.table.codec.check_degree(k * self.top_degree())
        result = Poly.constant(self.table, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.table == other.table
                and self.den == other.den and self.terms == other.terms)

    __hash__ = None

    def __repr__(self):
        return f"Poly({render(self)})"

    def __str__(self):
        return render(self)


# ---- operations ------------------------------------------------------


def substitute(p: Poly, assignment: Mapping[str, Poly | Scalar] | Substitution) -> Poly:
    """Simultaneous substitution of variables by polynomials, exact expansion.

    A ``Substitution`` keeps the expansions it makes for its next call.
    """
    names = assignment.names if isinstance(assignment, Substitution) else assignment
    for name in names:
        p.table.index(name)
    return transplant(p, p.table, assignment) if names else p


def divide_by_variable(p: Poly, name: str) -> Poly:
    """Exact quotient p / v; every monomial of p must contain v.

    Subtracting v's offset leaves v's field at ``cap + 1``, its guard bit
    set, exactly when v does not divide the monomial.
    """
    codec = p.table.codec
    i = p.table.index(name)
    offset = codec.offsets[i]
    guard = 1 << (codec.w * (i + 1) - 1)
    terms = {}
    for m, c in p.terms.items():
        q = m - offset
        if q & guard:
            raise NotDivisibleError(name, render(Poly.reduced(p.table, {m: c}, p.den)))
        terms[q] = c
    return Poly.from_packed(p.table, terms, p.den)


def _evaluation_plan(p: Poly) -> tuple:
    """``(top, steps)`` for ``evaluate``: the top total degree and, per term,
    its integer coefficient, its power ``top - k`` of the point's denominator
    (k read from the packed degree field) and its nonzero ``(index,
    exponent)`` factors."""
    codec = p.table.codec
    shift = codec.shift
    top = p.top_degree()
    steps = tuple(
        (c, top - (m >> shift),
         tuple((i, e) for i, e in enumerate(codec.unpack(m)) if e))
        for m, c in p.terms.items())
    return top, steps


class ScaledPoint(NamedTuple):
    """A rational point as integers ``nums`` over one denominator ``d``.

    ``evaluate`` scales each point it is given; a caller that evaluates
    several polynomials at one point scales it once with ``scale_point``.
    """

    nums: list[int]
    d: int


def scale_point(point: Sequence[Scalar]) -> ScaledPoint:
    """``point`` scaled to integers over the lcm of its denominators."""
    return ScaledPoint(*common_denominator(point))


def evaluate(p: Poly, point: Sequence[Scalar] | ScaledPoint) -> Fraction:
    """Exact evaluation at a rational point (one value per table variable).

    The point is scaled to integers over one denominator d, unless it comes
    as a ``ScaledPoint``, so a term of total degree k sums as an int over
    d^top once lifted by d^(top - k); one Fraction, over p's ``den`` times
    d^top, is built at the end.  The plan of each Poly (each term's lift and
    nonzero factors) is built on the first evaluation and kept with it.
    """
    if not isinstance(point, ScaledPoint):
        point = scale_point(point)
    nums, d = point
    if len(nums) != len(p.table):
        raise ValueError(
            f"point has {len(nums)} components, table has {len(p.table)} variables")
    plan = p._plan
    if plan is None:
        plan = p._plan = _evaluation_plan(p)
    top, steps = plan
    lift = [1] * (top + 1)  # lift[j] == d ** j
    if d != 1:
        for j in range(1, top + 1):
            lift[j] = lift[j - 1] * d
    total = 0
    for c, j, factors in steps:
        acc = c * lift[j]
        for i, e in factors:
            acc *= nums[i] ** e
        total += acc
    return Fraction(total, p.den * lift[top])


def differentiate(p: Poly, name: str) -> Poly:
    """Formal partial derivative with respect to one variable."""
    codec = p.table.codec
    i = p.table.index(name)
    offset = codec.offsets[i]
    terms = {}
    for m, c in p.terms.items():
        e = codec.exponent(m, i)
        if e:
            terms[m - offset] = c * e
    return Poly.reduced(p.table, terms, p.den)


def primitive_terms(terms: dict) -> dict:
    """Divide an integer term map by its content, leading coefficient positive.

    The monomials are packed ints, their own degrevlex key.  Returns
    ``terms`` itself when it is already primitive; never mutates it.
    """
    if not terms:
        return terms
    g = math.gcd(*terms.values())
    if terms[max(terms)] < 0:
        g = -g
    if g != 1:
        terms = {m: v // g for m, v in terms.items()}
    return terms


def common_denominator(values: Iterable[Scalar]) -> tuple[list[int], int]:
    """Integers ``nums`` and ``d > 0`` with each value equal to ``nums[i] / d``.

    ``d`` is the lcm of the denominators, so all-integral values give
    themselves and ``d == 1``.
    """
    values = list(values)
    d = math.lcm(*(v.denominator for v in values))
    if d == 1:
        return [v.numerator for v in values], 1
    return [v.numerator * (d // v.denominator) for v in values], d


def normalize(p: Poly) -> Poly:
    """Scale by a rational unit: coprime integer coefficients, positive leading one."""
    return Poly.from_packed(p.table, primitive_terms(p.terms))


class Substitution:
    """Named variables mapped, simultaneously, to polynomials over one
    target table, with every expansion made so far.

    Each image is kept as its integer numerator, with its denominator
    (``dens``) and its top degree (``degrees``), in ``names`` order.
    ``product(E)``, for an exponent vector E of the substituted variables in
    that order, is the integer product ``prod(image_i ** E_i)``, built once
    and kept as long as the object.  It does not depend on the polynomial
    substituted into: each term's lift ``prod(den_i ** (top_i - E_i))``
    stays with the expansion loop, ``_expand``.
    """

    __slots__ = ("table", "names", "images", "dens", "degrees", "_products")

    def __init__(self, table: VarTable, mapping: Mapping[str, Poly | Scalar]):
        images, dens = [], []
        for nm, repl in mapping.items():
            if isinstance(repl, (int, Fraction)):
                repl = Poly.constant(table, repl)
            if repl.table != table:
                raise TableMismatchError(f"image of {nm!r} is over the wrong table")
            images.append(Poly.from_packed(table, repl.terms))
            dens.append(repl.den)
        self.table = table
        self.names = tuple(mapping)
        self.images = tuple(images)
        self.dens = tuple(dens)
        self.degrees = tuple(img.top_degree() for img in images)
        # exponent vector -> integer product of image powers, as packed terms
        self._products = {(0,) * len(images): {table.codec.zero: 1}}

    def product(self, e: tuple) -> dict:
        """``prod(image_i ** e_i)`` as integer packed terms; the caller has
        checked that its degree fits the table.  A vector is the product of
        its prefix before its last nonzero entry and that entry's power."""
        got = self._products.get(e)
        if got is None:
            k = len(e) - 1
            while not e[k]:
                k -= 1
            if any(e[:k]):
                rest = (*e[:k], *(0,) * (len(e) - k))
                alone = (*(0,) * k, e[k], *(0,) * (len(e) - k - 1))
                got = _product(self.product(rest), self.product(alone),
                               self.table.codec.zero)
            else:
                got = (self.images[k] ** e[k]).terms
            self._products[e] = got
        return got


def _expand(p: Poly, table: VarTable, sub: Substitution,
            expansion: Callable[[tuple], Mapping]) -> tuple[dict, int]:
    """The one expansion loop: the integer term map of
    ``sum(c * lift * x^rest * expansion(E))`` over p's terms, and ``L``.

    c is a term's integer numerator (p is ``terms / den``), E its exponent
    vector of the substituted variables (in ``sub.names`` order) and x^rest
    its other variables, each moved onto ``table`` by name.  Both are read
    from the packed monomial, one field per variable.  The lift is
    ``prod(den_i ** (top_i - E_i))``, ``top_i`` being variable i's largest
    exponent in p, so every term lies over the one denominator
    ``p.den * L``, ``L = prod(den_i ** top_i)``.  A source term lifts to total degree
    ``sum(e_i * deg_i)`` (``deg_i`` 1 for a kept variable and the image's top
    degree otherwise), which must fit the target's codec; it is checked
    before ``expansion(E)`` is read.
    """
    codec, src = table.codec, p.table.codec
    mask, cap, w = (1 << src.w) - 1, src.cap, src.w
    where = [p.table.index(nm) for nm in sub.names]  # source index of each image
    at = [w * i for i in where]  # their fields' bit positions
    kept = []  # (field position, target offset) of each variable that keeps its name
    missing = []  # indices of the variables that have no image
    for i, nm in enumerate(p.table.names):
        if i in where:
            continue
        if nm in table:
            kept.append((w * i, codec.offsets[table.index(nm)]))
        else:
            missing.append(i)
    vecs = [tuple([cap - ((m >> k) & mask) for k in at]) for m in p.terms]
    lift = 1
    lifted = []  # (position, denominator, top exponent in p) of each image with den != 1
    for k, den in enumerate(sub.dens):
        if den != 1:
            t = max((vec[k] for vec in vecs), default=0)
            lifted.append((k, den, t))
            lift *= den ** t
    extra = [d - 1 for d in sub.degrees]  # degree each unit of E_i adds
    shift, zero = src.shift, codec.zero
    out: dict = {}
    for (m, c), vec in zip(p.terms.items(), vecs):
        for i in missing:
            if (m >> (w * i)) & mask != cap:
                raise KeyError(
                    f"variable {p.table.names[i]!r} has no image in {table!r}")
        mono = zero
        for k, offset in kept:
            mono += (cap - ((m >> k) & mask)) * offset
        degree = m >> shift
        for e, d in zip(vec, extra):
            degree += e * d
        codec.check_degree(degree)
        terms = expansion(vec)
        if terms:
            for k, den, t in lifted:
                if t != vec[k]:
                    c *= den ** (t - vec[k])
            _add_multiple(out, c, mono - zero, terms)
    return out, lift


def transplant(p: Poly, table: VarTable,
               mapping: Mapping[str, Poly | Scalar] | Substitution | None = None) -> Poly:
    """Rebuild p over another table, mapping variables by name.

    Variables listed in ``mapping`` are replaced, simultaneously, by the given
    polynomial over the target table; all others keep their name and must
    exist in the target table wherever they occur in p.  A plain mapping
    becomes a ``Substitution`` for this call alone, of the variables that p's
    table has; a ``Substitution`` passed in (every name in p's table) keeps
    its expansions for later calls.

    The expansion runs on p's integer numerators, through ``_expand`` with
    the substitution's ``product``, so the whole sum lies over
    ``p.den * prod(den_i ** top_i)``, reduced once at the end.
    """
    if not isinstance(mapping, Substitution):
        mapping = Substitution(table, {nm: mapping[nm] for nm in p.table.names
                                       if nm in mapping} if mapping else {})
    elif mapping.table != table:
        raise TableMismatchError(
            f"substitution over {mapping.table!r}, target is {table!r}")
    out, lift = _expand(p, table, mapping, mapping.product)
    return Poly.reduced(table, out, p.den * lift)


# ---- parsing ---------------------------------------------------------

_TOK_IDENT = "ident"
_TOK_INT = "int"
_TOK_OP = "op"
_TOK_END = "end"
_DIGITS = frozenset("0123456789")
MAX_NESTING = 100  # parentheses a source may nest; deeper ones fail to parse


class _Lexer:
    """Tokenizer for the polynomial grammar.

    An alphanumeric run is split greedily into variable names from the table,
    longest name first, with digits after a name read as an exponent, so that
    SINGULAR-style input like ``x2+ty`` means ``x^2 + t*y``.  Only ASCII
    digits make numbers: ``str.isdigit`` also accepts digits such as ``²``,
    which ``int`` rejects.
    """

    def __init__(self, src: str, table: VarTable):
        self.src = src
        self.table = table
        self.tokens: list[tuple[str, str, int]] = []
        self._scan()

    def _scan(self):
        src = self.src
        i = 0
        n = len(src)
        while i < n:
            ch = src[i]
            if ch.isspace():
                i += 1
                continue
            if ch in "+-*^()/":
                self.tokens.append((_TOK_OP, ch, i))
                i += 1
                continue
            if ch in _DIGITS:
                j = i
                while j < n and src[j] in _DIGITS:
                    j += 1
                self.tokens.append((_TOK_INT, src[i:j], i))
                i = j
                continue
            if ch.isalpha() or ch == "_":
                j = i
                while j < n and (src[j].isalnum() or src[j] == "_"):
                    j += 1
                self._split_run(src[i:j], i)
                i = j
                continue
            raise ParseError(f"unexpected character {ch!r}", src, i)
        self.tokens.append((_TOK_END, "", n))

    def _split_run(self, run: str, base: int):
        pos = 0
        while pos < len(run):
            if run[pos] in _DIGITS:
                j = pos
                while j < len(run) and run[j] in _DIGITS:
                    j += 1
                self.tokens.append((_TOK_OP, "^", base + pos))
                self.tokens.append((_TOK_INT, run[pos:j], base + pos))
                pos = j
                continue
            best = None
            for end in range(len(run), pos, -1):
                if run[pos:end] in self.table:
                    best = end
                    break
            if best is None:
                raise UnknownVariableError(
                    f"cannot resolve {run[pos:]!r} against the variable table",
                    self.src, base + pos)
            self.tokens.append((_TOK_IDENT, run[pos:best], base + pos))
            pos = best


class _Parser:
    """Recursive-descent parser for the grammar in ``parse_poly``'s docstring."""

    def __init__(self, src: str, table: VarTable):
        self.src = src
        self.table = table
        self.tokens = _Lexer(src, table).tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def integer(self, tok) -> int:
        """The value of an integer token.  ``int`` refuses a digit run longer
        than Python's limit (4300 by default): bad input, not a bug."""
        try:
            return int(tok[1])
        except ValueError:
            raise ParseError(f"integer literal of {len(tok[1])} digits, more than "
                             f"{sys.get_int_max_str_digits()}", self.src, tok[2]) from None

    def expect_op(self, text: str):
        kind, got, at = self.next()
        if kind != _TOK_OP or got != text:
            raise ParseError(f"expected {text!r}", self.src, at)

    def parse(self) -> Poly:
        p = self.expr()
        kind, text, at = self.peek()
        if kind != _TOK_END:
            raise ParseError(f"unexpected {text!r}", self.src, at)
        return p

    def expr(self, depth: int = 0) -> Poly:
        negate = False
        kind, text, _ = self.peek()
        if kind == _TOK_OP and text == "-":
            self.next()
            negate = True
        p = self.term(depth)
        if negate:
            p = -p
        while True:
            kind, text, _ = self.peek()
            if kind == _TOK_OP and text in "+-":
                self.next()
                q = self.term(depth)
                p = p + q if text == "+" else p - q
            else:
                return p

    def term(self, depth: int) -> Poly:
        p = self.factor(depth)
        while True:
            kind, text, _ = self.peek()
            if kind == _TOK_OP and text == "*":
                self.next()
                p = p * self.factor(depth)
            elif (kind == _TOK_IDENT or kind == _TOK_INT
                  or (kind == _TOK_OP and text == "(")):
                p = p * self.factor(depth)
            else:
                return p

    def factor(self, depth: int) -> Poly:
        p = self.atom(depth)
        kind, text, _ = self.peek()
        if kind == _TOK_OP and text == "^":
            self.next()
            tok = self.next()
            if tok[0] != _TOK_INT:
                raise ParseError("expected integer exponent", self.src, tok[2])
            p = p ** self.integer(tok)
        return p

    def atom(self, depth: int) -> Poly:
        tok = kind, text, at = self.next()
        if kind == _TOK_IDENT:
            return Poly.variable(self.table, text)
        if kind == _TOK_INT:
            return Poly.constant(self.table, self.integer(tok))
        if kind == _TOK_OP and text == "(":
            # rational literal (int / int) gets special treatment
            if (self.tokens[self.pos][0] == _TOK_INT
                    and self.tokens[self.pos + 1][:2] == (_TOK_OP, "/")
                    and self.tokens[self.pos + 2][0] == _TOK_INT
                    and self.tokens[self.pos + 3][:2] == (_TOK_OP, ")")):
                num = self.integer(self.next())
                self.next()
                den_tok = self.next()
                den = self.integer(den_tok)
                if den == 0:
                    raise ParseError("zero denominator", self.src, den_tok[2])
                self.next()
                return Poly.constant(self.table, Fraction(num, den))
            if depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", self.src, at)
            p = self.expr(depth + 1)
            self.expect_op(")")
            return p
        raise ParseError(f"unexpected {text or 'end of input'!r}", self.src, at)


def parse_poly(src: str, table: VarTable) -> Poly:
    """Parse a polynomial source string over the given variable table.

    Sums and differences of products, with ``^`` and a non-negative integer
    exponent, parentheses nested at most ``MAX_NESTING`` deep, and rational
    literals written ``(p/q)``.  A digit run right after a variable name is
    an exponent and juxtaposition is a product, so ``2x2y`` means
    ``2*x^2*y``.  An integer literal, exponents included, may have at most
    as many digits as Python converts to an ``int`` (4300 by default).
    """
    return _Parser(src, table).parse()


# ---- rendering -------------------------------------------------------


def _digits(v: int) -> str:
    """``str(v)`` for a coefficient's numerator or denominator.  Past
    Python's int-string limit (4300 digits by default), which also bounds
    the literals ``parse_poly`` reads, it raises ``PolyError``: every
    written form re-parses."""
    try:
        return str(v)
    except ValueError:
        raise PolyError(f"a coefficient has more than {sys.get_int_max_str_digits()} "
                        "digits, the most that can be written") from None


def render(p: Poly) -> str:
    """Canonical text form; terms sorted descending in the ambient order.

    The form is unambiguous and always re-parses to the same polynomial.
    Monomial texts come from ``VarTable.monomial_text``, and every integer
    is written through ``_digits``.
    """
    if p.is_zero():
        return "0"
    table = p.table
    terms, den = p.terms, p.den
    out = []
    for m in sorted(terms, reverse=True):
        c = terms[m] if den == 1 else Fraction(terms[m], den)
        sign = "+"
        if c < 0:
            sign, c = "-", -c
        mono = table.monomial_text(m)
        if c.denominator == 1:
            coeff = _digits(c.numerator)
        else:
            coeff = f"({_digits(c.numerator)}/{_digits(c.denominator)})"
        if not mono:
            out.append(sign + coeff)
        elif c == 1:
            out.append(sign + mono)
        else:
            out.append(f"{sign}{coeff}*{mono}")
    text = "".join(out)
    return text[1:] if text[0] == "+" else text
