"""Tests for the polynomial core: parsing, arithmetic, order, operations."""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multipoint import polyring
from multipoint.atlas import standard_collection
from multipoint.divdiff import PolyMap, difference_chain
from multipoint.polyring import (
    Codec,
    DegreeBoundError,
    NotDivisibleError,
    ParseError,
    Poly,
    Substitution,
    TableMismatchError,
    UnknownVariableError,
    VarTable,
    degrevlex_key,
    differentiate,
    divide_by_variable,
    evaluate,
    normalize,
    parse_poly,
    render,
    scale_point,
    substitute,
    transplant,
)

XY = VarTable(["x", "y"])
TXY = VarTable(["t", "x", "y"])


def P(src, table=XY):
    return parse_poly(src, table)


def by_exponents(p):
    """The term map of p keyed by exponent tuples, read through ``unpack``,
    each coefficient ``Fraction(c, p.den)`` (equal to its int when integral)."""
    unpack = p.table.codec.unpack
    return {unpack(m): Fraction(c, p.den) for m, c in p.terms.items()}


# ---- table ----------------------------------------------------------------


def test_table_rejects_duplicates():
    with pytest.raises(ValueError):
        VarTable(["x", "x"])


def test_table_rejects_bad_names():
    with pytest.raises(ValueError):
        VarTable(["2x"])
    with pytest.raises(ValueError):
        VarTable(["x-y"])


def test_table_index():
    assert TXY.index("x") == 1
    with pytest.raises(KeyError):
        TXY.index("z")


# ---- parsing: operators ---------------------------------------------------


def test_parse_simple_sum():
    p = P("x^2+2*x*y+y^2")
    assert by_exponents(p) == {(2, 0): 1, (1, 1): 2, (0, 2): 1}


def test_parse_rational_coefficient():
    p = P("(1/2)*x")
    assert by_exponents(p) == {(1, 0): Fraction(1, 2)}


def test_parse_negative_rational():
    # the literal itself is unsigned; the minus is ordinary negation
    p = P("-(3/4)*x+1", VarTable(["x"]))
    assert by_exponents(p) == {(1,): Fraction(-3, 4), (0,): 1}
    with pytest.raises(ParseError):
        P("(-3/4)*x", VarTable(["x"]))


def test_parse_leading_minus():
    p = P("-x+y")
    assert by_exponents(p) == {(1, 0): -1, (0, 1): 1}


def test_parse_parenthesized():
    assert P("(x+y)*(x-y)") == P("x^2-y^2")


def test_parse_power_of_group():
    assert P("(x+y)^3") == P("x^3+3*x^2*y+3*x*y^2+y^3")


def test_parse_constant():
    p = P("7")
    assert p.is_constant() and by_exponents(p) == {(0, 0): 7}


def test_parse_zero():
    assert P("0").is_zero()


def test_parse_unknown_variable():
    with pytest.raises(UnknownVariableError):
        P("x+z")


def test_parse_error_position():
    with pytest.raises(ParseError) as ei:
        P("x++y")
    assert "position" in str(ei.value)


def test_parse_unbalanced():
    with pytest.raises(ParseError):
        P("(x+y")


def test_parse_zero_denominator():
    with pytest.raises(ParseError):
        P("(1/0)*x")


def nested(src, depth):
    return "(" * depth + src + ")" * depth


def test_parse_nesting_at_the_bound():
    # a rational literal is not a nesting level
    assert polyring.MAX_NESTING == 100
    assert P(nested("x", 100)) == P("x")
    assert P(nested("(1/2)*x", 100)) == P("(1/2)*x")


def test_parse_nesting_past_the_bound_is_an_error():
    # each open parenthesis is four frames of the recursive descent, so
    # without the bound some 250 of them overflow the default stack limit
    for depth in (101, 300):
        with pytest.raises(ParseError) as ei:
            P(nested("x", depth))
        assert ei.value.pos == 100
        assert str(ei.value).startswith("parentheses nested deeper than 100 at position 100")


@pytest.mark.parametrize("src, pos", [("x\u00b2", 1), ("x^\u00b2", 2), ("\u00b2", 0),
                                      ("x+y\u00b2", 3), ("\u0663*x", 0)])
def test_parse_non_ascii_digit_is_an_error_at_its_position(src, pos):
    # str.isdigit accepts these digits, int() does not
    with pytest.raises(ParseError) as ei:
        P(src)
    assert ei.value.pos == pos


@pytest.mark.parametrize("src, pos", [
    ("{n}*x^2", 0),      # an integer atom
    ("x^{n}", 2),        # an exponent after ^
    ("x{n}", 1),         # an exponent right after a name
    ("({n}/3)*x", 1),    # the numerator of a rational literal
    ("(3/{n})*x", 3),    # its denominator
])
def test_parse_literal_past_the_digit_limit_is_an_error(src, pos):
    # int() refuses a digit run past Python's limit (4300 by default)
    with pytest.raises(ParseError) as ei:
        P(src.format(n="7" * 5000))
    assert ei.value.pos == pos
    assert str(ei.value).startswith("integer literal of 5000 digits, more than 4300 at")


def test_parse_literal_at_the_digit_limit():
    assert P("7" * 4300 + "*x") == int("7" * 4300) * P("x")
    assert P(f"({'7' * 4300}/{'3' * 4300})") == P("(7/3)")


# ---- parsing: digit exponents and juxtaposition ---------------------------


def test_compact_digit_suffix_is_exponent():
    assert P("x2") == P("x^2")


def test_compact_juxtaposition():
    assert P("2xy") == P("2*x*y")
    assert P("x2y3") == P("x^2*y^3")


def test_compact_singular_style():
    got = P("x2+ty", TXY)
    assert got == P("x^2+t*y", TXY)


def test_compact_longest_prefix_match():
    tb = VarTable(["a", "a1"])
    # the run "a1" resolves to the variable a1, not a^1
    p = parse_poly("a1", tb)
    assert by_exponents(p) == {(0, 1): 1}


def test_compact_multicharacter_names():
    tb = VarTable(["l1", "a1", "x"])
    p = parse_poly("l1*a1+x", tb)
    assert by_exponents(p) == {(1, 1, 0): 1, (0, 0, 1): 1}


def test_compact_group_juxtaposition():
    assert P("2(x+y)") == P("2*(x+y)")


def test_compact_unresolvable():
    with pytest.raises(UnknownVariableError):
        P("xz")


# ---- arithmetic -----------------------------------------------------------


def test_add_cancellation():
    assert (P("x+y") + P("-x-y")).is_zero()


def test_mixed_scalar_ops():
    assert P("x") + 1 == P("x+1")
    assert 2 * P("x") == P("2*x")
    assert 1 - P("x") == P("1-x")


def test_pow_zero_is_one():
    assert P("x+y") ** 0 == P("1")


def test_pow_negative_rejected():
    with pytest.raises(ValueError):
        P("x") ** -1


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_product_by_a_monomial_is_the_general_product(data):
    """A product with a monomial of coefficient 1, on either side, shifts
    every monomial; it equals the general term-by-term product."""
    table = TXY
    mono = st.tuples(*[st.integers(0, 3)] * len(table))
    coeffs = st.fractions(-4, 4, max_denominator=4).filter(bool)
    p = Poly(table, data.draw(st.dictionaries(mono, coeffs, max_size=5)))
    m = Poly(table, {data.draw(mono): 1})
    general = Poly.reduced(table, polyring._product(p.terms, m.terms, table.codec.zero),
                           p.den * m.den)
    assert p * m == general and m * p == general


def test_product_by_a_monomial_keeps_the_degree_bound():
    x, y = P("x"), P("y")
    top = P(f"x^{CAP - 1}+y")
    assert by_exponents(top * x) == {(CAP, 0): 1, (1, 1): 1}
    assert by_exponents(y * P(f"x^{CAP - 1}")) == {(CAP - 1, 1): 1}
    with pytest.raises(DegreeBoundError, match=str(CAP)):
        top * (x * y)
    with pytest.raises(DegreeBoundError, match=str(CAP)):
        x * P(f"x^{CAP}")


def test_table_mismatch_raises():
    with pytest.raises(TableMismatchError):
        P("x") + P("x", TXY)


@st.composite
def _multiples(draw):
    """A term map, a nonzero scalar, a shift and a term map to add, over
    monomials of degree at most 3 in x, y, all packed in XY's codec."""
    codec = XY.codec
    mono = st.tuples(st.integers(0, 2), st.integers(0, 1)).map(codec.pack)
    coeffs = st.integers(-3, 3).filter(bool)
    out = draw(st.dictionaries(mono, coeffs, max_size=6))
    g = draw(st.dictionaries(mono, coeffs, max_size=6))
    shift = codec.pack(draw(st.tuples(st.integers(0, 1), st.integers(0, 1)))) - codec.zero
    return out, draw(coeffs), shift, g


@settings(max_examples=200, deadline=None)
@given(_multiples())
@example(({XY.codec.pack((1, 0)): 2}, -1, 0, {XY.codec.pack((1, 0)): 2}))  # all cancel
# (x^2 + 2xy + 5) + x * (x - 2y + 3): x^2 grows, xy cancels, x is new
@example((P("x^2+2*x*y+5").terms, 1, XY.codec.pack((1, 0)) - XY.codec.zero,
          P("x-2*y+3").terms))
def test_add_multiple_drops_zero_sums_and_lists_new_monomials(case):
    out, c, shift, g = case
    want = dict(out)
    for m, v in g.items():
        want[m + shift] = want.get(m + shift, 0) + c * v
    want = {m: v for m, v in want.items() if v}
    plain, listed, created = dict(out), dict(out), []
    polyring._add_multiple(plain, c, shift, g)
    polyring._add_multiple(listed, c, shift, g, created)
    assert plain == listed == want
    assert created == [m + shift for m in g if m + shift not in out]


# ---- degrevlex order ------------------------------------------------------


def test_degrevlex_degree_first():
    assert degrevlex_key((2, 0)) > degrevlex_key((0, 1))


def test_degrevlex_tie_break():
    # among degree 3 in x,y: x^2*y > x*y^2 (smaller power of the last variable wins)
    assert degrevlex_key((2, 1)) > degrevlex_key((1, 2))


def test_degrevlex_first_variable_largest():
    # t > x > y in the t,x,y table
    assert degrevlex_key((1, 0, 0)) > degrevlex_key((0, 1, 0)) > degrevlex_key((0, 0, 1))


def test_leading_monomial():
    p = P("x*y^2+x^2*y+y^3")
    assert p.leading_monomial() == (2, 1)


# ---- exponents --------------------------------------------------------------


def test_exponents_follow_terms_and_unpack_once(monkeypatch):
    table = VarTable(["x", "y"])  # fresh, so no monomial text is kept yet
    p = P("x^2*y+3*x+1", table)
    assert sorted(map(table.codec.unpack, p.terms)) == [(0, 0), (1, 0), (2, 1)]
    calls = []
    real = Codec.unpack
    monkeypatch.setattr(Codec, "unpack", lambda self, m: calls.append(m) or real(self, m))
    assert evaluate(p, [1, 2]) == 6
    assert evaluate(p, [2, 1]) == 11
    assert differentiate(p, "x") == P("2*x*y+3", table)
    transplant(p, TXY)
    # the evaluation plan unpacks each monomial once; differentiate reads
    # one field and transplant none
    assert sorted(calls) == sorted(p.terms)
    assert p.variables_used() == ["x", "y"]
    # render unpacks each monomial at most once per table
    calls.clear()
    q = P("2*x^2*y-x+y", table)
    assert render(p) == "x^2*y+3*x+1"
    assert render(q) == "2*x^2*y-x+y"
    assert render(p + q) == "3*x^2*y+2*x+y+1"
    assert sorted(calls) == sorted({*p.terms, *q.terms})
    render(P("x^2*y", VarTable(["x", "y"])))  # an equal table keeps its own texts
    assert len(calls) == len({*p.terms, *q.terms}) + 1


# ---- degree bound ---------------------------------------------------------

CAP = 2 ** 15 - 1


def test_degree_bound_through_parse():
    assert XY.codec.cap == CAP
    assert by_exponents(P(f"x^{CAP}")) == {(CAP, 0): 1}
    assert P(f"x^{CAP - 1}*y").top_degree() == CAP
    for src in [f"x^{CAP + 1}", f"x^{CAP}*y", f"(x*y)^{CAP // 2 + 1}"]:
        with pytest.raises(DegreeBoundError, match=str(CAP)):
            P(src)


def test_degree_bound_through_products():
    half = P(f"x^{CAP // 2}")
    assert by_exponents(half * half * P("y")) == {(CAP - 1, 1): 1}
    with pytest.raises(DegreeBoundError, match=str(CAP)):
        half * half * P("x*y")
    assert by_exponents(P("x*y") ** (CAP // 2)) == {(CAP // 2, CAP // 2): 1}
    # checked before any expansion
    with pytest.raises(DegreeBoundError):
        P("x+y") ** (CAP + 1)


def test_degree_bound_through_tuples_and_transplant():
    assert Poly(XY, {(CAP, 0): 1}) == P(f"x^{CAP}")
    with pytest.raises(DegreeBoundError):
        Poly(XY, {(CAP, 1): 1})
    half = P(f"x^{CAP // 2}")
    assert transplant(half, TXY, {"x": P("x*y", TXY)}) == P(f"x^{CAP // 2}*y^{CAP // 2}", TXY)
    with pytest.raises(DegreeBoundError):
        transplant(half + P("y"), TXY, {"x": P("t*x*y", TXY)})


def test_tuple_exponents_are_checked():
    for bad in [(1,), (1, 0, 0), (-1, 2)]:
        with pytest.raises(ValueError):
            Poly(XY, {bad: 1})


# ---- substitute -----------------------------------------------------------


def test_substitute_shift():
    p = P("x^2")
    q = substitute(p, {"x": P("x+y")})
    assert q == P("x^2+2*x*y+y^2")


def test_substitute_simultaneous():
    p = P("x*y")
    q = substitute(p, {"x": P("y"), "y": P("x")})
    assert q == P("x*y")
    q2 = substitute(P("x^2+y"), {"x": P("y"), "y": P("x")})
    assert q2 == P("y^2+x")


def test_substitute_with_constant():
    assert substitute(P("x^2+y"), {"x": 2}) == P("4+y")


def test_substitute_wrong_table():
    with pytest.raises(TableMismatchError):
        substitute(P("x"), {"x": P("x", TXY)})


def test_substitute_unknown_name():
    with pytest.raises(KeyError):
        substitute(P("x"), {"z": P("y")})


def test_substitute_empty_returns_same_object():
    p = P("x*y+1")
    assert substitute(p, {}) is p


# ---- divide_by_variable ---------------------------------------------------


def test_divide_exact():
    assert divide_by_variable(P("x^2+x*y"), "x") == P("x+y")


def test_divide_failure_names_monomial():
    with pytest.raises(NotDivisibleError) as ei:
        divide_by_variable(P("x^2+y"), "x")
    assert "y" in str(ei.value)


# ---- evaluate -------------------------------------------------------------


def test_evaluate_exact():
    p = P("x^2+(1/2)*y")
    assert evaluate(p, [Fraction(1, 3), 2]) == Fraction(1, 9) + 1


def test_evaluate_wrong_arity():
    with pytest.raises(ValueError):
        evaluate(P("x"), [1, 2, 3])
    with pytest.raises(ValueError):
        evaluate(P("x"), scale_point([1, 2, 3]))


def _term_sum(p, point):
    """p at point as a plain Fraction sum over its terms."""
    total = Fraction(0)
    for m, c in p.terms.items():
        exps = p.table.codec.unpack(m)
        term = Fraction(c, p.den)
        for v, e in zip(point, exps):
            term *= Fraction(v) ** e
        total += term
    return total


@pytest.mark.parametrize("src", [
    "x^3*y-(2/3)*x*y+5", "(1/2)*t^2*y^2+(3/4)*x-(1/6)", "0", "7", "(5/3)"])
def test_evaluation_plan_built_once(src, monkeypatch):
    """The plan is built on the first evaluation and serves every later
    point: zero coordinates, negative and non-integral ones."""
    p = P(src, TXY)
    built = []
    real = polyring._evaluation_plan
    monkeypatch.setattr(polyring, "_evaluation_plan",
                        lambda q: built.append(q) or real(q))
    for point in ([Fraction(-3, 2), Fraction(1, 3), Fraction(5, 7)],
                  [0, 0, 0],
                  [Fraction(1, 2), 0, -3],
                  [2, -1, 4],
                  [0, Fraction(2, 9), Fraction(-4, 3)]):
        got = evaluate(p, point)
        assert type(got) is Fraction
        assert got == _term_sum(p, point)
    assert len(built) == 1 and built[0] is p


# ---- differentiate --------------------------------------------------------


def test_differentiate():
    assert differentiate(P("x^3+x*y"), "x") == P("3*x^2+y")
    assert differentiate(P("x^3"), "y").is_zero()


# ---- normalize ------------------------------------------------------------


def test_normalize_clears_denominators():
    p = P("(1/2)*x+(1/3)*y")
    assert normalize(p) == P("3*x+2*y")


def test_normalize_strips_content():
    assert normalize(P("4*x+6*y")) == P("2*x+3*y")


def test_normalize_sign():
    assert normalize(P("-x+y")) == P("x-y")


def test_normalize_idempotent():
    p = normalize(P("-(6/35)*x^2+(9/14)*y"))
    assert normalize(p) == p


# ---- transplant -----------------------------------------------------------


def test_transplant_to_larger_table():
    p = P("x^2+y")
    q = transplant(p, TXY)
    assert q == P("x^2+y", TXY)


def test_transplant_with_mapping():
    p = P("x^2+y")
    q = transplant(p, TXY, {"y": P("t*y", TXY)})
    assert q == P("x^2+t*y", TXY)


def test_transplant_missing_variable():
    with pytest.raises(KeyError):
        transplant(P("x+y"), VarTable(["x"]))


def test_transplant_absent_variable_needs_no_image():
    tx = VarTable(["x"])
    assert transplant(P("x^2+1"), tx) == parse_poly("x^2+1", tx)


def test_transplant_wrong_table():
    with pytest.raises(TableMismatchError):
        transplant(P("x+y"), TXY, {"y": P("y")})


# ---- render ---------------------------------------------------------------


def test_render_descending_order():
    assert render(P("y+x^2+1")) == "x^2+y+1"


def test_render_rational():
    assert render(P("(1/2)*x-y")) == "(1/2)*x-y"


def test_render_zero():
    assert render(Poly.zero(XY)) == "0"


def test_render_parse_roundtrip_examples():
    for src in ["x^2+2*x*y+y^2", "-x+(3/7)*y^4", "x*y-1", "0", "42"]:
        p = P(src)
        assert P(render(p)) == p


# ---- property tests -------------------------------------------------------

names = st.sampled_from(["x", "y"])
coeffs = st.integers(-6, 6)


@st.composite
def polys(draw):
    k = draw(st.integers(0, 4))
    terms = {}
    for _ in range(k):
        e = (draw(st.integers(0, 3)), draw(st.integers(0, 3)))
        terms[e] = terms.get(e, 0) + draw(coeffs)
    return Poly(XY, terms)


@given(polys(), polys(), polys())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert (p * q) * r == p * (q * r)


@given(polys())
@settings(max_examples=60, deadline=None)
def test_render_roundtrip_property(p):
    assert parse_poly(render(p), XY) == p
    # XY's monomial texts are shared by every example; a fresh table has none
    assert render(p) == render(Poly.from_packed(VarTable(["x", "y"]), p.terms))


@given(polys(), polys())
@settings(max_examples=40, deadline=None)
def test_evaluation_is_ring_morphism(p, q):
    pt = [Fraction(2, 3), Fraction(-1, 5)]
    assert evaluate(p + q, pt) == evaluate(p, pt) + evaluate(q, pt)
    assert evaluate(p * q, pt) == evaluate(p, pt) * evaluate(q, pt)


rational_coeffs = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3]))


@st.composite
def rational_polys(draw):
    mono = st.tuples(st.integers(0, 2), st.integers(0, 2))
    return Poly(XY, draw(st.dictionaries(mono, rational_coeffs, max_size=4)))


@given(rational_polys(), rational_polys(), rational_coeffs)
@settings(max_examples=60, deadline=None)
def test_integral_coefficients_are_int(p, q, c):
    # p + p doubles halves into integers; Fraction(k, 1) inputs must come out
    # over the denominator 1
    results = [p, p + q, p + p, p - q, p * q, c * p, p * c, normalize(p),
               substitute(p, {"x": q, "y": c})]
    for r in results:
        assert all(type(v) is int for v in r.terms.values())
        integral = all(Fraction(v, r.den).denominator == 1 for v in r.terms.values())
        assert (r.den == 1) is integral


def test_halves_summing_to_one_give_int():
    half = Poly.constant(XY, Fraction(1, 2))
    assert (half + half).terms == {XY.codec.zero: 1} and (half + half).den == 1
    assert by_exponents(half + half) == {(0, 0): 1}
    assert type((half * 2).leading_coefficient()) is int


def _reference_render(p):
    """The text of p from its coefficients ``Fraction(c, p.den)`` and its
    exponent tuples, in the style of ``render``."""
    if p.is_zero():
        return "0"
    out = []
    for exps, c in sorted(by_exponents(p).items(),
                          key=lambda t: degrevlex_key(t[0]), reverse=True):
        sign = "-" if c < 0 else "+"
        c = abs(c)
        mono = "*".join(nm if e == 1 else f"{nm}^{e}"
                        for nm, e in zip(p.table.names, exps) if e)
        coeff = str(c.numerator) if c.denominator == 1 else f"({c.numerator}/{c.denominator})"
        out.append(sign + (coeff if not mono else mono if c == 1 else f"{coeff}*{mono}"))
    text = "".join(out)
    return text[1:] if text[0] == "+" else text


def _fraction_product(p, q):
    """p * q summed term by term in ``Fraction``s, built through ``Poly``."""
    out = {}
    for e1, c1 in by_exponents(p).items():
        for e2, c2 in by_exponents(q).items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return Poly(p.table, out)


def _fraction_power(p, k):
    out = Poly.constant(p.table, 1)
    for _ in range(k):
        out = _fraction_product(out, p)
    return out


def _assert_canonical(p):
    assert p.den > 0 and all(type(c) is int and c for c in p.terms.values())
    assert math.gcd(p.den, *p.terms.values()) == 1
    assert render(p) == _reference_render(p)


@given(rational_polys(), rational_polys(), rational_coeffs.filter(bool),
       st.integers(0, 3))
@settings(max_examples=80, deadline=None)
def test_every_result_is_in_lowest_terms(p, q, c, k):
    """Each operation, and each level of a difference chain, gives int
    numerators over a positive denominator with no common factor, equal to
    the same polynomial built in ``Fraction``s through ``Poly(table,
    terms)``, and rendered as the coefficients ``Fraction(c, den)`` render."""
    fp, fq = by_exponents(p), by_exponents(q)
    x = Poly.variable(XY, "x")
    xyt = VarTable(["x", "y", "t"])
    subst = {}  # x -> q, y -> c
    for (e0, e1), v in fp.items():
        for e, w in by_exponents(_fraction_power(q, e0)).items():
            subst[e] = subst.get(e, 0) + v * c ** e1 * w
    moved = {(e0, 0, e1): v * c ** e1 for (e0, e1), v in fp.items()}  # y -> c*t
    routes = [
        (p + q, Poly(XY, {e: fp.get(e, 0) + fq.get(e, 0) for e in {*fp, *fq}})),
        (p - q, Poly(XY, {e: fp.get(e, 0) - fq.get(e, 0) for e in {*fp, *fq}})),
        (p * q, _fraction_product(p, q)),
        (p ** k, _fraction_power(p, k)),
        (c * p, Poly(XY, {e: c * v for e, v in fp.items()})),
        (p * c, Poly(XY, {e: v * c for e, v in fp.items()})),
        (differentiate(p, "x"),
         Poly(XY, {(e0 - 1, e1): v * e0 for (e0, e1), v in fp.items() if e0})),
        (divide_by_variable(x * p, "x"), p),
        (substitute(p, {"x": q, "y": c}), Poly(XY, subst)),
        (transplant(p, xyt, {"y": c * Poly.variable(xyt, "t")}), Poly(xyt, moved)),
    ]
    for got, want in routes:
        _assert_canonical(got)
        _assert_canonical(want)
        assert got == want
    assert (p - p).is_zero() and (p - p).den == 1 and p - p == Poly.zero(XY)
    f = PolyMap(XY, [p + x ** 2, q], s=0)
    for level in difference_chain(f, f.chart_for(standard_collection(2, 3), (2, 1), 3)).levels:
        for g in level:
            _assert_canonical(g)


# ---- substitution against sympy ---------------------------------------------

small_coeffs = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 3))


def _rand_poly(draw, table, max_terms=3):
    mono = st.tuples(*[st.integers(0, 2)] * len(table))
    terms = draw(st.dictionaries(mono, small_coeffs, max_size=max_terms))
    return Poly(table, terms)


def _image(draw, table):
    """A replacement over ``table``: a constant, one variable, or a polynomial."""
    kind = draw(st.sampled_from(["constant", "variable", "poly"]))
    if kind == "constant":
        return draw(st.integers(-2, 2) | small_coeffs)
    if kind == "variable":
        return Poly.variable(table, draw(st.sampled_from(table.names)))
    return _rand_poly(draw, table)


def _sympy_expr(sympy, p):
    syms = sympy.symbols(list(p.table.names))
    return sum((sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*[x ** e for x, e in zip(syms, exps)])
                for exps, c in by_exponents(p).items()), sympy.Integer(0))


def _sympy_image(sympy, img):
    if isinstance(img, Poly):
        return _sympy_expr(sympy, img)
    img = Fraction(img)
    return sympy.Rational(img.numerator, img.denominator)


def _sympy_subs(sympy, p, mapping):
    """sympy's simultaneous substitution of ``mapping`` into p, expanded."""
    subs = {sympy.Symbol(nm): _sympy_image(sympy, img) for nm, img in mapping.items()}
    return sympy.expand(_sympy_expr(sympy, p).subs(subs, simultaneous=True))


@st.composite
def _substitutions(draw):
    table = VarTable(["x", "y", "z"][:draw(st.integers(2, 3))])
    p = _rand_poly(draw, table, max_terms=4)
    chosen = draw(st.lists(st.sampled_from(table.names), unique=True, max_size=len(table)))
    return p, {nm: _image(draw, table) for nm in chosen}


@st.composite
def _transplants(draw):
    source = VarTable(["x", "y", "z"][:draw(st.integers(2, 3))])
    target = VarTable(draw(st.permutations([*source.names, "t", "w"])))
    p = _rand_poly(draw, source, max_terms=4)
    chosen = draw(st.lists(st.sampled_from(source.names), unique=True,
                           max_size=len(source) - 1))
    return p, target, {nm: _image(draw, target) for nm in chosen}


@settings(max_examples=60, deadline=None)
@given(_substitutions())
def test_substitute_matches_sympy(case):
    sympy = pytest.importorskip("sympy")
    p, mapping = case
    got = _sympy_expr(sympy, substitute(p, mapping))
    assert sympy.expand(got - _sympy_subs(sympy, p, mapping)) == 0


@settings(max_examples=60, deadline=None)
@given(_transplants())
def test_transplant_matches_sympy(case):
    sympy = pytest.importorskip("sympy")
    p, target, mapping = case
    got = transplant(p, target, mapping)
    assert got.table == target
    assert sympy.expand(_sympy_expr(sympy, got) - _sympy_subs(sympy, p, mapping)) == 0


@st.composite
def _shared_substitutions(draw):
    """One mapping, its first image with a denominator, and several
    polynomials to push through it, the zero polynomial among them."""
    table = VarTable(["x", "y", "z"][:draw(st.integers(2, 3))])
    chosen = draw(st.lists(st.sampled_from(table.names), unique=True,
                           min_size=1, max_size=len(table)))
    mapping = {nm: _image(draw, table) for nm in chosen}
    mapping[chosen[0]] = (_rand_poly(draw, table) + 1) * Fraction(1, draw(st.integers(2, 5)))
    polys = [_rand_poly(draw, table, max_terms=4) for _ in range(draw(st.integers(1, 4)))]
    polys.insert(draw(st.integers(0, len(polys))), Poly.zero(table))
    return table, mapping, polys


@settings(max_examples=60, deadline=None)
@given(_shared_substitutions())
@example((XY, {"x": P("(1/2)*x+(2/3)*y"), "y": Fraction(1, 3)},
          [P("x^2*y+(3/4)*x*y^2"), Poly.zero(XY), P("x^2-y+1")]))
def test_reused_substitution_matches_fresh_and_sympy(case):
    """One Substitution, reused for every polynomial, twice over (the second
    pass reads only kept expansions), gives what a fresh one and sympy give."""
    sympy = pytest.importorskip("sympy")
    table, mapping, polys = case
    shared = Substitution(table, mapping)
    for p in [*polys, *reversed(polys)]:
        got = substitute(p, shared)
        assert got == substitute(p, mapping) == transplant(p, table, shared)
        assert sympy.expand(_sympy_expr(sympy, got) - _sympy_subs(sympy, p, mapping)) == 0


def test_substitution_over_another_table_is_refused():
    shared = Substitution(TXY, {"x": P("t+y", TXY)})
    with pytest.raises(TableMismatchError):
        substitute(P("x"), shared)


@st.composite
def _evaluations(draw):
    """A polynomial with int and Fraction coefficients, possibly zero, and
    two points with zero, negative and non-integral entries."""
    table = VarTable(["x", "y", "z"][:draw(st.integers(1, 3))])
    mono = st.tuples(*[st.integers(0, 3)] * len(table))
    scalars = st.integers(-4, 4) | small_coeffs
    p = Poly(table, draw(st.dictionaries(mono, scalars, max_size=5)))
    return p, [[draw(scalars) for _ in table.names] for _ in range(2)]


@settings(max_examples=100, deadline=None)
@given(_evaluations())
@example((Poly.zero(TXY), [[Fraction(1, 2), 0, -3], [1, 2, 3]]))
@example((P("x^3*y-(2/3)*x*y+5"),
          [[Fraction(-3, 2), Fraction(1, 3)], [Fraction(2, 5), -7]]))
def test_evaluate_matches_sympy(case):
    """Each point against sympy, given as it is and scaled once; the second
    evaluation reuses the polynomial's evaluation plan."""
    sympy = pytest.importorskip("sympy")
    p, points = case
    for point in points:
        got = evaluate(p, point)
        assert type(got) is Fraction
        assert evaluate(p, scale_point(point)) == got
        subs = {sympy.Symbol(nm): _sympy_image(sympy, v)
                for nm, v in zip(p.table.names, point)}
        assert sympy.Rational(got.numerator, got.denominator) == _sympy_expr(sympy, p).subs(subs)


def test_substitute_into_zero_polynomial():
    zero = Poly.zero(XY)
    assert substitute(zero, {"x": P("(1/2)*x+(2/3)*y")}) == zero
    assert substitute(zero, {"x": Fraction(1, 3), "y": P("(1/5)*y^2")}) == zero


# ---- packed operators against sympy, over 1 to 12 variables -----------------


@st.composite
def _wide_cases(draw):
    """Two polynomials over a table of 1-12 variables, one of its variables
    and a small power."""
    n = draw(st.integers(1, 12))
    table = VarTable([f"x{i}" for i in range(1, n + 1)])
    mono = st.tuples(*[st.integers(0, 3)] * n)
    scalars = st.integers(-3, 3) | small_coeffs
    p, q = (Poly(table, draw(st.dictionaries(mono, scalars, max_size=4)))
            for _ in range(2))
    return p, q, draw(st.sampled_from(table.names)), draw(st.integers(0, 3))


@settings(max_examples=60, deadline=None)
@given(_wide_cases())
def test_packed_operators_match_sympy(case):
    sympy = pytest.importorskip("sympy")
    p, q, name, k = case
    sp, sq = _sympy_expr(sympy, p), _sympy_expr(sympy, q)
    v = sympy.Symbol(name)
    assert sympy.expand(_sympy_expr(sympy, p * q) - sp * sq) == 0
    assert sympy.expand(_sympy_expr(sympy, p ** k) - sp ** k) == 0
    assert sympy.expand(_sympy_expr(sympy, differentiate(p, name))
                        - sympy.diff(sp, v)) == 0
    i = p.table.index(name)
    if all(exps[i] for exps in by_exponents(p)):
        assert sympy.expand(_sympy_expr(sympy, divide_by_variable(p, name)) * v - sp) == 0
    else:
        with pytest.raises(NotDivisibleError) as ei:
            divide_by_variable(p, name)
        # the named monomial is a term of p that lacks the variable
        (exps, c), = by_exponents(parse_poly(ei.value.monomial, p.table)).items()
        assert exps[i] == 0 and by_exponents(p)[exps] == c
    vp = Poly.variable(p.table, name) * p
    assert divide_by_variable(vp, name) == p


@settings(max_examples=60, deadline=None)
@given(_wide_cases())
def test_render_order_is_descending_degrevlex(case):
    p = case[0]
    pieces = re.findall(r"[+-]?[^+-]+", render(p)) if not p.is_zero() else []
    got = [parse_poly(t.lstrip("+"), p.table).leading_monomial() for t in pieces]
    assert got == sorted(by_exponents(p), key=degrevlex_key, reverse=True)


@settings(max_examples=60, deadline=None)
@given(_wide_cases())
def test_equal_tables_pack_alike(case):
    p, q = case[:2]
    fresh = VarTable(list(p.table.names))
    assert fresh is not p.table
    again = parse_poly(render(p), fresh)
    assert again == p and again.terms == p.terms
    # render over the shared table, whose memo q and earlier examples filled,
    # gives the text of a fresh equal table, whose memo is empty
    render(q)
    assert (render(Poly.from_packed(VarTable(list(p.table.names)), p.terms, p.den))
            == render(p))
