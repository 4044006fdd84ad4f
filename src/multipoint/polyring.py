"""Exact multivariate polynomial arithmetic over Q.

Polynomials live in a ring described by a VarTable (an ordered list of named
variables; on a chart: parameters, base variables, then per-level lambda/a
blocks).  Coefficients are exact rationals: an integral coefficient is a
plain ``int`` and any other one a ``Fraction``.  Terms are stored as a dense
exponent tuple -> nonzero coefficient map.  The ambient term order is
degree-reverse-lexicographic with earlier variables larger.

The hot exact loops run on integers over one common denominator
(``common_denominator``, the lcm-and-scale step ``normalize`` also uses) and
build a ``Fraction`` only at the exit: ``evaluate`` returns one per call, and
``transplant`` one per output term that its denominator does not divide.
Ring operators (``+``, ``-``, ``*`` and ``divide_by_variable``) still combine
``Fraction`` coefficients directly.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

Scalar = Union[int, Fraction]


class PolyError(Exception):
    """Base class for errors raised by this package."""


class TableMismatchError(PolyError):
    """Operands constructed over different variable tables."""


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


class VarTable:
    """Ordered, named variable set shared by all polynomials of a ring."""

    __slots__ = ("names", "_index")

    def __init__(self, names: Sequence[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        for nm in names:
            if not nm or not (nm[0].isalpha()) or not all(c.isalnum() or c == "_" for c in nm):
                raise ValueError(f"invalid variable name {nm!r}")
        self.names = names
        self._index = {nm: i for i, nm in enumerate(names)}

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
        return isinstance(other, VarTable) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"VarTable({', '.join(self.names)})"


def degrevlex_key(exps: Sequence[int]):
    """Sort key realizing degrevlex with earlier table variables larger."""
    return (sum(exps), tuple(-e for e in reversed(exps)))


def _add_product(out: dict, t1: Mapping, t2: Mapping) -> dict:
    """Add the product of term maps t1 and t2 into out, dropping zero sums.

    The one term-product loop of ``Poly.__mul__`` and ``transplant``; the
    Groebner engine packs its monomials and has its own loop.
    """
    for e1, c1 in t1.items():
        for e2, c2 in t2.items():
            e = tuple(map(operator.add, e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


class Poly:
    """Immutable multivariate polynomial with exact rational coefficients.

    The term map sends dense exponent tuples to nonzero coefficients, each an
    ``int`` when integral and a ``Fraction`` otherwise; the zero polynomial
    has an empty map.  Do not mutate ``terms`` after construction: every
    operation returns a fresh Poly.
    """

    __slots__ = ("table", "terms")

    def __init__(self, table: VarTable, terms: Mapping[tuple, Scalar]):
        clean = {}
        width = len(table)
        for exps, c in terms.items():
            if len(exps) != width:
                raise ValueError(f"exponent vector {exps} has wrong length for {table!r}")
            if c:
                clean[tuple(exps)] = c.numerator if c.denominator == 1 else c
        self.table = table
        self.terms = clean

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, table: VarTable) -> "Poly":
        return cls(table, {})

    @classmethod
    def constant(cls, table: VarTable, c: Scalar) -> "Poly":
        return cls(table, {(0,) * len(table): c})

    @classmethod
    def variable(cls, table: VarTable, name: str) -> "Poly":
        i = table.index(name)
        exps = [0] * len(table)
        exps[i] = 1
        return cls(table, {tuple(exps): 1})

    # ---- predicates and views -----------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def leading_monomial(self) -> tuple:
        if self.is_zero():
            raise PolyError("zero polynomial has no leading monomial")
        return max(self.terms, key=degrevlex_key)

    def leading_coefficient(self) -> Scalar:
        return self.terms[self.leading_monomial()]

    def variables_used(self) -> list[str]:
        used = set()
        for exps in self.terms:
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
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            s = terms.get(exps, 0) + c
            if s:
                terms[exps] = s
            else:
                terms.pop(exps, None)
        return Poly(self.table, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.table, {e: -c for e, c in self.terms.items()})

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
            return Poly(self.table, {e: other * v for e, v in self.terms.items()})
        self._check(other)
        return Poly(self.table, _add_product({}, self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
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
                and self.terms == other.terms)

    __hash__ = None

    def __repr__(self):
        return f"Poly({render(self)})"

    def __str__(self):
        return render(self)


# ---- operations ------------------------------------------------------


def substitute(p: Poly, assignment: Mapping[str, Poly | Scalar]) -> Poly:
    """Simultaneous substitution of variables by polynomials, exact expansion."""
    for name in assignment:
        p.table.index(name)
    return transplant(p, p.table, assignment) if assignment else p


def divide_by_variable(p: Poly, name: str) -> Poly:
    """Exact quotient p / v; every monomial of p must contain v."""
    i = p.table.index(name)
    terms = {}
    for exps, c in p.terms.items():
        if exps[i] == 0:
            raise NotDivisibleError(name, render(Poly(p.table, {exps: c})))
        e = list(exps)
        e[i] -= 1
        terms[tuple(e)] = c
    return Poly(p.table, terms)


def evaluate(p: Poly, point: Sequence[Scalar]) -> Fraction:
    """Exact evaluation at a rational point (one value per table variable).

    The point is scaled to integers over one denominator d, so a term of
    total degree k sums as an int over d^k; one Fraction is built at the end.
    """
    if len(point) != len(p.table):
        raise ValueError(
            f"point has {len(point)} components, table has {len(p.table)} variables")
    nums, d = common_denominator(point)
    powers = [{1: v} for v in nums]  # per variable: exponent -> numerator ** exponent
    by_degree: dict[int, Scalar] = {}
    for exps, c in p.terms.items():
        acc = 1
        for pw, e in zip(powers, exps):
            if e:
                x = pw.get(e)
                if x is None:
                    x = pw[e] = pw[1] ** e
                acc *= x
        k = sum(exps)
        by_degree[k] = by_degree.get(k, 0) + c * acc
    top = max(by_degree, default=0)
    total = sum(s * d ** (top - k) for k, s in by_degree.items())
    return Fraction(total, d ** top)


def differentiate(p: Poly, name: str) -> Poly:
    """Formal partial derivative with respect to one variable."""
    i = p.table.index(name)
    terms = {}
    for exps, c in p.terms.items():
        e = exps[i]
        if e:
            ne = list(exps)
            ne[i] = e - 1
            ne = tuple(ne)
            terms[ne] = terms.get(ne, 0) + c * e
    return Poly(p.table, terms)


def primitive_terms(terms: dict, key=degrevlex_key) -> dict:
    """Divide an integer term map by its content, leading coefficient positive.

    ``key`` is the term order's sort key; ``None`` for monomials that are
    their own key (the Groebner engine's packed ints).  Returns ``terms``
    itself when it is already primitive; never mutates it.
    """
    if not terms:
        return terms
    g = math.gcd(*terms.values())
    if terms[max(terms, key=key)] < 0:
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
    nums, _ = common_denominator(p.terms.values())
    return Poly(p.table, primitive_terms(dict(zip(p.terms, nums))))


def transplant(p: Poly, table: VarTable,
               mapping: Mapping[str, Poly | Scalar] | None = None) -> Poly:
    """Rebuild p over another table, mapping variables by name.

    Variables listed in ``mapping`` are replaced, simultaneously, by the given
    polynomial over the target table; all others keep their name and must
    exist in the target table wherever they occur in p.

    The expansion runs on integers: p and each image are scaled by their
    common denominators, and every term is lifted to the one denominator
    ``D = den(p) * prod(den_i ** top_i)``, ``top_i`` being variable i's
    largest exponent in p.  Only output terms that D does not divide become
    Fractions.
    """
    mapping = mapping or {}
    gather = [-1] * len(table)  # target index -> kept source index (-1: none)
    images: dict[int, Poly] = {}  # source index -> image scaled to integers
    dens: dict[int, int] = {}  # source index -> its image's denominator, if not 1
    missing = []
    for i, nm in enumerate(p.table.names):
        if nm in mapping:
            repl = mapping[nm]
            if isinstance(repl, (int, Fraction)):
                repl = Poly.constant(table, repl)
            if repl.table != table:
                raise TableMismatchError(f"image of {nm!r} is over the wrong table")
            nums, den = common_denominator(repl.terms.values())
            if den != 1:
                repl = Poly(table, dict(zip(repl.terms, nums)))
                dens[i] = den
            images[i] = repl
        elif nm in table:
            gather[table.index(nm)] = i
        else:
            missing.append(i)
    nums, D = common_denominator(p.terms.values())
    top = {i: max((exps[i] for exps in p.terms), default=0) for i in dens}
    for i, t in top.items():
        D *= dens[i] ** t
    # powers of each image are cached: chains reuse the same exponents a lot
    powers: dict[tuple[int, int], dict] = {}
    unit = {(0,) * len(table): 1}
    out: dict = {}
    for exps, c in zip(p.terms, nums):
        for i in missing:
            if exps[i]:
                raise KeyError(
                    f"variable {p.table.names[i]!r} has no image in {table!r}")
        factor = None
        for i, img in images.items():
            e = exps[i]
            if e:
                piece = powers.get((i, e))
                if piece is None:
                    piece = powers[(i, e)] = (img ** e).terms
                factor = piece if factor is None else _add_product({}, factor, piece)
        for i, t in top.items():
            if t != exps[i]:
                c *= dens[i] ** (t - exps[i])
        padded = exps + (0,)
        mono = tuple([padded[k] for k in gather])
        _add_product(out, {mono: c}, unit if factor is None else factor)
    if D != 1:
        for m, v in out.items():
            q, rem = divmod(v, D)
            out[m] = Fraction(v, D) if rem else q
    return Poly(table, out)


# ---- parsing ---------------------------------------------------------

_TOK_IDENT = "ident"
_TOK_INT = "int"
_TOK_OP = "op"
_TOK_END = "end"


class _Lexer:
    """Tokenizer for the polynomial grammar.

    An alphanumeric run is split greedily into variable names from the table,
    longest name first, with digits after a name read as an exponent, so that
    SINGULAR-style input like ``x2+ty`` means ``x^2 + t*y``.
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
            if ch.isdigit():
                j = i
                while j < n and src[j].isdigit():
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
            if run[pos].isdigit():
                j = pos
                while j < len(run) and run[j].isdigit():
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

    def expr(self) -> Poly:
        negate = False
        kind, text, _ = self.peek()
        if kind == _TOK_OP and text == "-":
            self.next()
            negate = True
        p = self.term()
        if negate:
            p = -p
        while True:
            kind, text, _ = self.peek()
            if kind == _TOK_OP and text in "+-":
                self.next()
                q = self.term()
                p = p + q if text == "+" else p - q
            else:
                return p

    def term(self) -> Poly:
        p = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == _TOK_OP and text == "*":
                self.next()
                p = p * self.factor()
            elif (kind == _TOK_IDENT or kind == _TOK_INT
                  or (kind == _TOK_OP and text == "(")):
                p = p * self.factor()
            else:
                return p

    def factor(self) -> Poly:
        p = self.atom()
        kind, text, _ = self.peek()
        if kind == _TOK_OP and text == "^":
            self.next()
            k, t, at = self.next()
            if k != _TOK_INT:
                raise ParseError("expected integer exponent", self.src, at)
            p = p ** int(t)
        return p

    def atom(self) -> Poly:
        kind, text, at = self.next()
        if kind == _TOK_IDENT:
            return Poly.variable(self.table, text)
        if kind == _TOK_INT:
            return Poly.constant(self.table, int(text))
        if kind == _TOK_OP and text == "(":
            # rational literal (int / int) gets special treatment
            if (self.tokens[self.pos][0] == _TOK_INT
                    and self.tokens[self.pos + 1][:2] == (_TOK_OP, "/")
                    and self.tokens[self.pos + 2][0] == _TOK_INT
                    and self.tokens[self.pos + 3][:2] == (_TOK_OP, ")")):
                num = int(self.next()[1])
                self.next()
                den_tok = self.next()
                den = int(den_tok[1])
                if den == 0:
                    raise ParseError("zero denominator", self.src, den_tok[2])
                self.next()
                return Poly.constant(self.table, Fraction(num, den))
            p = self.expr()
            self.expect_op(")")
            return p
        raise ParseError(f"unexpected {text or 'end of input'!r}", self.src, at)


def parse_poly(src: str, table: VarTable) -> Poly:
    """Parse a polynomial source string over the given variable table.

    Sums and differences of products, with ``^`` and a non-negative integer
    exponent, parentheses, and rational literals written ``(p/q)``.  A digit
    run right after a variable name is an exponent and juxtaposition is a
    product, so ``2x2y`` means ``2*x^2*y``.
    """
    return _Parser(src, table).parse()


# ---- rendering -------------------------------------------------------


def _mono_text(table: VarTable, exps: tuple) -> str:
    pieces = []
    for nm, e in zip(table.names, exps):
        if e == 0:
            continue
        pieces.append(nm if e == 1 else f"{nm}^{e}")
    return "*".join(pieces)


def _coeff_text(c: Fraction) -> str:
    if c.denominator == 1:
        return str(abs(c.numerator))
    return f"({abs(c.numerator)}/{c.denominator})"


def render(p: Poly) -> str:
    """Canonical text form; terms sorted descending in the ambient order.

    The form is unambiguous and always re-parses to the same polynomial.
    """
    if p.is_zero():
        return "0"
    out = []
    for exps in sorted(p.terms, key=degrevlex_key, reverse=True):
        c = p.terms[exps]
        mono = _mono_text(p.table, exps)
        if not mono:
            body = _coeff_text(c)
        elif abs(c) == 1:
            body = mono
        else:
            body = _coeff_text(c) + "*" + mono
        if not out:
            out.append(("-" if c < 0 else "") + body)
        else:
            out.append(("-" if c < 0 else "+") + body)
    return "".join(out)
