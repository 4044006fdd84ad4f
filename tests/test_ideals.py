"""Tests for chart equations, Buchberger bases, dimension and membership."""

import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import multipoint.ideals as ideals_mod
from multipoint.atlas import covering_collection, standard_collection
from multipoint.divdiff import PolyMap
from multipoint.ideals import (
    IdealHandle,
    chart_equations,
    contains,
    diagonal_fiber_dimension,
    dimension,
    expected_dimension,
    groebner,
    is_unit_ideal,
    kr_equations,
    _normal_form,
    _entry,
    _reduced_basis,
    _repack,
    _spoly,
)
from multipoint.polyring import (
    Codec,
    DegreeBoundError,
    Poly,
    VarTable,
    _add_multiple,
    degrevlex_key,
    normalize,
    parse_poly,
    primitive_terms,
)

XY = VarTable(["x", "y"])
XY_CODEC = XY.codec


def P(src, table=XY):
    return parse_poly(src, table)


def by_exponents(p):
    """The term map of p keyed by exponent tuples, read through ``unpack``,
    each coefficient ``Fraction(c, p.den)`` (equal to its int when integral)."""
    unpack = p.table.codec.unpack
    return {unpack(m): Fraction(c, p.den) for m, c in p.terms.items()}


def handle(*srcs, table=XY):
    return IdealHandle([P(s, table) for s in srcs])


def trifold():
    return PolyMap.from_strings(("t", "x", "y"),
                                ("t", "x^2+t*y", "y^2-t*x", "x^3+y^3+x*y"))


# ---- integer input ---------------------------------------------------------


def test_normalized_terms_clear_denominators():
    p = P("(1/2)*x+(1/3)*y")
    assert by_exponents(normalize(p)) == {(1, 0): 3, (0, 1): 2}


def test_normalized_terms_strip_content_and_sign():
    assert by_exponents(normalize(P("-4*x-6*y"))) == {(1, 0): 2, (0, 1): 3}


# ---- s-polynomials and reduction -------------------------------------------


def packed(src):
    return normalize(P(src)).terms


def test_normal_form_reduces_to_zero_in_ideal():
    basis = [_entry(packed("x")), _entry(packed("y"))]
    assert _normal_form(packed("3*x+5*y"), basis, XY_CODEC) == {}


def test_normal_form_keeps_reduced_part():
    basis = [_entry(packed("x^2"))]
    out = _normal_form(packed("x^2+x+1"), basis, XY_CODEC)
    assert by_exponents(Poly.from_packed(XY, out)) == {(1, 0): 1, (0, 0): 1}


def test_reducer_memo_follows_an_appended_basis():
    # one memo across calls while the basis grows at its end, as in a run
    basis = [_entry(packed("x^2-y"))]
    p = packed("x*y^2+x^2+y")
    xy2 = XY_CODEC.pack((1, 2))
    memo = {}
    first = _normal_form(p, basis, XY_CODEC, memo)
    assert first == _normal_form(p, basis, XY_CODEC)
    assert by_exponents(Poly.from_packed(XY, first)) == {(1, 2): 1, (0, 1): 2}
    assert memo[xy2] == (None, 1)  # no divisor among the one entry
    basis.append(_entry(packed("y^2+1")))
    second = _normal_form(p, basis, XY_CODEC, memo)
    assert second == _normal_form(p, basis, XY_CODEC)
    # x*y^2 gained a divisor from the appended entry: x - 2y, up to a unit
    assert by_exponents(Poly.from_packed(XY, second)) == {(1, 0): 1, (0, 1): -2}
    assert memo[xy2] == (1, 2)
    assert _normal_form(p, basis, XY_CODEC, memo) == second


def _normal_form_by_max(p, basis, codec, returned=None):
    """The reduction loop as it was before the head heap: each head is
    ``max(work)``, and the joint content of ``work`` and ``out`` is stripped
    after every scaled step.  ``returned`` collects each monomial that a
    step cancelled and a later step put back before it headed one."""
    zero, guards = codec.zero, codec.guards
    work, out, cancelled = dict(p), {}, set()
    while work:
        m = max(work)
        c = work[m]
        hit = next((i for i, (lm, _, _) in enumerate(basis)
                    if not (m + zero - lm) & guards), None)
        if hit is None:
            out[m] = c
            del work[m]
            continue
        lm, lc, g = basis[hit]
        d = math.gcd(c, lc)
        a, b = lc // d, c // d
        if a != 1:
            for k in work:
                work[k] *= a
            for k in out:
                out[k] *= a
        before = set(work)
        _add_multiple(work, -b, m - lm, g)
        cancelled |= before - set(work) - {m}
        if returned is not None:
            returned.extend(sorted(cancelled & (set(work) - before)))
        cancelled -= set(work)
        joint = math.gcd(*work.values(), *out.values())
        if abs(a) > 1 and joint > 1:
            work = {k: v // joint for k, v in work.items()}
            out = {k: v // joint for k, v in out.items()}
    return primitive_terms(out)


XYZ = VarTable(["x", "y", "z"])
# 3xy^2 reduced by 2xy - z + 2 cancels the 3y of p, which 2x^2 - y puts back
CANCEL_AND_RETURN = (XYZ.codec, [P("2*x^2-y", XYZ).terms, P("2*x*y-z+2", XYZ).terms],
                     P("3*x*y^2+3*x^2+3*y-3*z", XYZ).terms)
# the same shape with coprime leading coefficients above 2**64
BIG_COPRIME = (XYZ.codec, [P(f"{2**64 + 13}*x^2-y", XYZ).terms,
                           P(f"{2**65 + 7}*x*y-z+{2**65 + 7}", XYZ).terms],
               P(f"{2**66 + 1}*x*y^2+3*x^2+{2**66 + 1}*y-3*z", XYZ).terms)


@st.composite
def _reductions(draw):
    """Up to three reducers and a polynomial over 1-3 variables, packed; in
    half the cases every leading coefficient is above 2**64, pairwise
    coprime, and so are the polynomial's coefficients."""
    codec = VarTable(["x", "y", "z"][:draw(st.integers(1, 3))]).codec
    big = draw(st.booleans())

    def terms(size, degree, coeffs):
        monos = draw(st.lists(_exponents(codec.n, degree), min_size=1,
                              max_size=size, unique=True))
        return {codec.pack(e): draw(coeffs) for e in monos}

    small = st.integers(-3, 3).filter(bool)
    basis = [terms(3, 2, small) for _ in range(draw(st.integers(1, 3)))]
    if big:
        lcs = [draw(st.integers(2**64, 2**70)) for _ in basis]
        assume(all(math.gcd(a, b) == 1
                   for i, a in enumerate(lcs) for b in lcs[i + 1:]))
        for t, lc in zip(basis, lcs):
            t[max(t)] = lc * draw(st.sampled_from([1, -1]))
    p = terms(5, 4, st.integers(-2**70, 2**70).filter(bool) if big else small)
    return codec, basis, p


def test_cancel_and_return_cases_put_a_monomial_back():
    for codec, basis, p in (CANCEL_AND_RETURN, BIG_COPRIME):
        returned = []
        _normal_form_by_max(p, [_entry(t) for t in basis], codec, returned)
        assert returned == [codec.pack((0, 1, 0))]


@settings(max_examples=300, deadline=None)
@given(_reductions())
@example(CANCEL_AND_RETURN)
@example(BIG_COPRIME)
def test_normal_form_matches_the_max_loop(case):
    """The heap loop, with and without a memo, against the loop it replaced;
    the memo is shared while the basis grows at its end, as in a run."""
    codec, basis, p = case
    entries = [_entry(t) for t in basis]
    memo = {}
    for k in range(1, len(entries) + 1):
        want = _normal_form_by_max(p, entries[:k], codec)
        assert _normal_form(p, entries[:k], codec) == want
        assert _normal_form(p, entries[:k], codec, memo) == want


# ---- groebner --------------------------------------------------------------


def test_groebner_closed_pair():
    h = handle("x^2", "x*y")
    basis = groebner(h)
    assert [str(b) for b in basis] == ["x^2", "x*y"]


def test_groebner_linear_elimination():
    h = handle("x+y", "x-y")
    basis = groebner(h)
    assert [str(b) for b in basis] == ["x", "y"]


def test_groebner_unit_ideal():
    h = handle("x", "x+1")
    assert [str(b) for b in groebner(h)] == ["1"]
    assert is_unit_ideal(h)


def test_groebner_textbook_example():
    # classic: basis of <x^2+y^2-1, x*y-1> needs an extra element
    h = handle("x^2+y^2-1", "x*y-1")
    basis = groebner(h)
    strs = [str(b) for b in basis]
    assert "x^2+y^2-1" in strs
    assert "x*y-1" in strs
    assert "y^3+x-y" in strs  # the completed S-polynomial
    # every S-polynomial of the returned basis reduces to zero
    entries = [_entry(b.terms) for b in basis]
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            s = _spoly(entries[i], entries[j], XY_CODEC)
            assert _normal_form(s, entries, XY_CODEC) == {}


def test_groebner_input_reduces_to_zero():
    h = handle("x^2+y^2-1", "x*y-1", "x^3-y")
    basis = groebner(h)
    for g in h.generators:
        assert contains(h, g)


def test_groebner_reduced_property():
    # no leading monomial may divide any monomial of another basis element
    h = handle("x^2+y^2-1", "x*y-1")
    basis = [b.terms for b in groebner(h)]
    lms = [max(t) for t in basis]
    for i, t in enumerate(basis):
        for m in t:
            for j, lm in enumerate(lms):
                if i != j:
                    assert not XY_CODEC.divides(lm, m)


def test_groebner_cached():
    h = handle("x+y")
    assert groebner(h) is not groebner(h)  # defensive copies
    assert h._basis is not None


def test_ideal_handle_validation():
    with pytest.raises(ValueError):
        IdealHandle([])
    with pytest.raises(ValueError):
        IdealHandle([P("x"), P("x", VarTable(["x"]))])


# ---- contains --------------------------------------------------------------


def test_contains_simple():
    h = handle("x", "y")
    assert contains(h, P("x+y"))
    assert contains(h, P("x^2+3*x*y"))
    assert not contains(h, P("x+1"))


def test_contains_power_boundary():
    h = handle("x^2")
    assert not contains(h, P("x"))
    assert contains(h, P("x^3+x^2*y"))


def test_contains_zero_ideal():
    h = handle("0")
    assert contains(h, P("0"))
    assert not contains(h, P("x"))


# ---- dimension -------------------------------------------------------------


def test_dimension_zero_ideal():
    assert dimension(handle("0")) == 2


def test_dimension_unit():
    assert dimension(handle("1")) == -1


def test_dimension_hypersurface():
    assert dimension(handle("x^2+y^2-1")) == 1


def test_dimension_point():
    assert dimension(handle("x", "y")) == 0


def test_dimension_union_of_axes():
    assert dimension(handle("x*y")) == 1


def test_dimension_three_vars():
    T = VarTable(["x", "y", "z"])
    assert dimension(IdealHandle([P("x*y", T), P("x*z", T)])) == 2
    assert dimension(IdealHandle([P("x", T)])) == 2
    assert dimension(IdealHandle([P("x", T), P("y", T), P("z", T)])) == 0


# ---- kr equations ----------------------------------------------------------


def test_kr_equations_trifold_r2():
    f = trifold()
    cc = standard_collection(2, 2)
    eqs = kr_equations(f, 2, cc)
    assert len(eqs) == 2
    chart1 = eqs[0]
    assert chart1.chart.alpha == (1,)
    tb = chart1.chart.table
    want = [
        "a1*t+l1+2*x",
        "a1^2*l1+2*a1*y-t",
        "a1^3*l1^2+3*a1^2*l1*y+a1*l1+a1*x+3*a1*y^2+l1^2+3*l1*x+3*x^2+y",
    ]
    assert list(chart1.generators) == [parse_poly(w, tb) for w in want]


def test_chart_equations_build_projections_on_first_read(monkeypatch):
    calls = []
    real = ideals_mod.projection_to_Xr

    def counting(chart):
        calls.append(chart)
        return real(chart)

    monkeypatch.setattr(ideals_mod, "projection_to_Xr", counting)
    eqs = chart_equations(trifold(), 2, standard_collection(2, 2), (1,))
    assert calls == []
    proj = eqs.projections
    assert calls == [eqs.chart]
    assert eqs.projections is proj
    assert len(calls) == 1
    assert proj == tuple(tuple(v) for v in real(eqs.chart))


def test_kr_equations_generator_count():
    f = trifold()
    cc = standard_collection(2, 3)
    eqs = kr_equations(f, 3, cc)
    assert len(eqs) == 6
    for e in eqs:
        assert len(e.generators) == 2 * 3  # (r-1)*(p-s)


def test_kr_equations_identity_unit():
    f = PolyMap.from_strings(("x", "y"), ("x", "y"))
    cc = standard_collection(2, 2)
    for e in kr_equations(f, 2, cc):
        assert is_unit_ideal(e.handle())


def test_kr_equations_generators_normalized():
    f = trifold()
    cc = standard_collection(2, 2)
    for e in kr_equations(f, 2, cc):
        for g in e.generators:
            assert normalize(g) == g


def test_expected_dimension():
    f = trifold()
    assert expected_dimension(f, 2) == 3 * 2 - 4 * 1
    assert expected_dimension(f, 3) == 3 * 3 - 4 * 2


# ---- trifold dimensions (golden regression) ---------------------------------


def test_trifold_k2_chart1_dimension():
    f = trifold()
    cc = standard_collection(2, 2)
    eqs = kr_equations(f, 2, cc)
    assert dimension(eqs[0].handle()) == 2


def test_trifold_k3_chart11_dimension():
    f = trifold()
    cc = standard_collection(2, 3)
    eqs = {e.chart.alpha: e for e in kr_equations(f, 3, cc)}
    assert dimension(eqs[(1, 1)].handle()) == 1


def test_trifold_k3_chart12_dimension():
    f = trifold()
    cc = standard_collection(2, 3)
    eqs = {e.chart.alpha: e for e in kr_equations(f, 3, cc)}
    assert dimension(eqs[(1, 2)].handle()) == 2


# ---- trifold bases (pinned) -------------------------------------------------


def _trifold_r3_bases():
    return {e.chart.alpha: groebner(e.handle())
            for e in kr_equations(trifold(), 3, standard_collection(2, 3))}


@pytest.fixture(scope="module")
def trifold_r3_bases():
    """Reduced bases of the six trifold-cone r=3 charts, keyed by alpha."""
    return _trifold_r3_bases()


def assert_pinned_trifold_r3(bases):
    # digest of the bases as computed before the pair heap and key cache
    assert list(bases) == [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)]
    assert [len(b) for b in bases.values()] == [38, 16, 34, 16, 36, 24]
    lines = []
    for alpha, basis in bases.items():
        lines.append("U(%s)" % ",".join(map(str, alpha)))
        lines.extend(str(g) for g in basis)
    text = "\n".join(lines) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "aa245ee0b3ad7f91394ec5a0d1acf49d13603ead483d70789682b5b33e03b2c1")


def test_trifold_r3_bases_pinned(trifold_r3_bases):
    assert_pinned_trifold_r3(trifold_r3_bases)


def test_trifold_r3_basis_coefficients_are_int(trifold_r3_bases):
    coeffs = [c for basis in trifold_r3_bases.values()
              for g in basis for c in g.terms.values()]
    assert coeffs and all(type(c) is int for c in coeffs)


# ---- independent oracle: sympy ----------------------------------------------


def _monic(terms: dict) -> dict:
    lc = terms[max(terms, key=degrevlex_key)]
    return {m: Fraction(c) / lc for m, c in terms.items()}


def _to_sympy(p: Poly):
    sympy = pytest.importorskip("sympy")
    syms = sympy.symbols(list(p.table.names))
    return sympy.Poly.from_dict(
        {m: sympy.Rational(c.numerator, c.denominator)
         for m, c in by_exponents(p).items()}, *syms, domain="QQ")


def _sympy_groebner(gens):
    """sympy's reduced grevlex basis, symbols in table order."""
    sympy = pytest.importorskip("sympy")
    syms = sympy.symbols(list(gens[0].table.names))
    return sympy.groebner([_to_sympy(g) for g in gens], *syms,
                          order="grevlex")


def _sympy_monic(basis) -> list[dict]:
    # sympy's own monic() divides by the lex leading coefficient
    return [_monic({m: Fraction(int(c.p), int(c.q)) for m, c in p.terms()})
            for p in basis.polys]


@pytest.mark.parametrize("alpha", [(1, 2), (2, 2)])
def test_trifold_r3_basis_matches_sympy(trifold_r3_bases, alpha):
    eqs = chart_equations(trifold(), 3, standard_collection(2, 3), alpha)
    want = _sympy_monic(_sympy_groebner(eqs.generators))
    assert [_monic(by_exponents(g)) for g in trifold_r3_bases[alpha]] == want


def _int_poly(n):
    mono = st.tuples(*[st.integers(0, 3)] * n).filter(lambda m: sum(m) <= 3)
    return st.dictionaries(mono, st.integers(-3, 3).filter(bool),
                           min_size=1, max_size=4)


@st.composite
def _int_poly_pairs(draw):
    n = draw(st.integers(2, 3))
    return n, draw(_int_poly(n)), draw(_int_poly(n))


@settings(max_examples=60, deadline=None)
@given(_int_poly_pairs())
# S(x^2+y, x*y+1) = y*(x^2+y) - x*(x*y+1) = y^2 - x
@example((2, {(2, 0): 1, (0, 1): 1}, {(1, 1): 1, (0, 0): 1}))
def test_spoly_cancels_leading_terms(case):
    n, f, g = case
    table = VarTable(["x", "y", "z"][:n])
    codec = table.codec
    ef, eg = _entry(Poly(table, f).terms), _entry(Poly(table, g).terms)
    (lmf, lcf, _), (lmg, lcg, _) = ef, eg
    lmf, lmg = codec.unpack(lmf), codec.unpack(lmg)
    lcm = tuple(max(a, b) for a, b in zip(lmf, lmg))
    d = math.gcd(lcf, lcg)

    def shifted(lm, c, terms):
        shift = tuple(a - b for a, b in zip(lcm, lm))
        return Poly(table, {shift: c}) * Poly(table, terms)

    s = by_exponents(Poly.from_packed(table, _spoly(ef, eg, codec)))
    assert s == by_exponents(shifted(lmf, lcg // d, f) - shifted(lmg, lcf // d, g))
    assert lcm not in s


@st.composite
def _small_ideals(draw):
    n = draw(st.integers(2, 3))
    gens = draw(st.lists(_int_poly(n), min_size=2, max_size=3))
    mults = draw(st.lists(_int_poly(n), min_size=len(gens),
                          max_size=len(gens)))
    other = draw(_int_poly(n))
    return n, gens, mults, other


@settings(max_examples=40, deadline=None)
@given(_small_ideals())
def test_groebner_and_contains_match_sympy(case):
    assert_agrees_with_sympy(case)


def assert_agrees_with_sympy(case):
    n, gens, mults, other = case
    table = VarTable(["x", "y", "z"][:n])
    gens = [Poly(table, g) for g in gens]
    h = IdealHandle(gens)
    oracle = _sympy_groebner(gens)
    assert [_monic(by_exponents(g)) for g in groebner(h)] == _sympy_monic(oracle)
    combo = Poly.zero(table)
    for q, g in zip(mults, gens):
        combo = combo + Poly(table, q) * g
    assert contains(h, combo)
    other = Poly(table, other)
    assert contains(h, other) == oracle.contains(_to_sympy(other))
    # normal forms modulo a Groebner basis are unique up to the unit that
    # fraction-free reduction leaves
    remainder = {m: Fraction(int(c.p), int(c.q))
                 for m, c in oracle.reduce(_to_sympy(other))[1].terms() if c}
    got = by_exponents(Poly.from_packed(table, _normal_form(
        normalize(other).terms,
        [_entry(g.terms) for g in groebner(h)], table.codec)))
    assert bool(got) == bool(remainder)
    if got:
        assert _monic(got) == _monic(remainder)


# ---- packed monomials -------------------------------------------------------


@st.composite
def _exponents(draw, n, budget):
    """An exponent vector of length n and total degree at most budget."""
    e = []
    for _ in range(n):
        e.append(draw(st.integers(0, budget)))
        budget -= e[-1]
    return tuple(draw(st.permutations(e)))


@st.composite
def _codec_cases(draw):
    n = draw(st.integers(1, 12))
    codec = Codec(n, draw(st.sampled_from([2, 3, 5, 8, 16])))
    a = draw(_exponents(codec.n, codec.cap))
    b = draw(_exponents(codec.n, codec.cap))
    c = draw(_exponents(codec.n, codec.cap - sum(a)))
    return codec, a, b, c


@settings(max_examples=300, deadline=None)
@given(_codec_cases())
@example((Codec(2, 3), (3, 0), (0, 3), (0, 0)))  # lcm x^3*y^3 above cap 3
@example((Codec(3, 3), (2, 0, 1), (1, 2, 0), (0, 0, 0)))  # lcm of degree 5
@example((Codec(2, 16), (32766, 0), (0, 1), (1, 0)))  # lcm of degree cap
def test_codec_matches_tuple_monomials(case):
    codec, a, b, c = case
    pa, pb, pc = codec.pack(a), codec.pack(b), codec.pack(c)
    assert codec.unpack(pa) == a
    assert (pa < pb) == (degrevlex_key(a) < degrevlex_key(b))
    assert (pa == pb) == (a == b)
    assert codec.divides(pa, pb) == all(x <= y for x, y in zip(a, b))
    ac = tuple(x + y for x, y in zip(a, c))
    assert codec.divides(pa, codec.pack(ac))
    assert codec.divides(codec.pack(ac), pa) == (not any(c))
    assert pa + (pc - codec.pack((0,) * codec.n)) == codec.pack(ac)
    lcm = tuple(map(max, a, b))
    if sum(lcm) <= codec.cap:
        assert codec.lcm(pa, pb) == codec.pack(lcm)
    else:
        with pytest.raises(DegreeBoundError):
            codec.lcm(pa, pb)


@st.composite
def _exponent_cases(draw):
    """A codec, or its ``widened()`` copy, and a vector up to its cap."""
    codec = Codec(draw(st.integers(1, 12)), draw(st.sampled_from([2, 3, 5, 8, 16])))
    if draw(st.booleans()):
        codec = codec.widened()
    return codec, draw(_exponents(codec.n, codec.cap))


@settings(max_examples=300, deadline=None)
@given(_exponent_cases())
@example((Codec(2, 16), (32767, 0)))  # total degree cap in the first field
@example((Codec(3, 16), (0, 0, 32767)))  # and in the last
@example((Codec(3, 3).widened(), (0, 31, 0)))
def test_exponent_reads_one_field(case):
    codec, e = case
    m = codec.pack(e)
    assert [codec.exponent(m, i) for i in range(codec.n)] == list(e)


@pytest.mark.parametrize("w", [2, 3, 16])
def test_codec_refuses_degree_above_cap(w):
    codec = Codec(3, w)
    assert codec.cap == 2 ** (w - 1) - 1
    top = (codec.cap - codec.cap // 2, 0, codec.cap // 2)
    assert codec.unpack(codec.pack(top)) == top
    with pytest.raises(DegreeBoundError):
        codec.pack((codec.cap - codec.cap // 2, 1, codec.cap // 2))


def test_narrow_width_restarts_to_the_same_bases(monkeypatch):
    widths = []
    real = _repack

    def counting(terms, src, dst):
        widths.append(dst.w)
        return real(terms, src, dst)

    monkeypatch.setattr(ideals_mod, "_repack", counting)
    bases = {}
    for e in kr_equations(trifold(), 3, standard_collection(2, 3)):
        table = e.chart.table
        polys = [normalize(g).terms for g in e.generators]
        # the narrowest fields the inputs fit in
        degree = max(max(t) >> table.codec.shift for t in polys)
        narrow = Codec(len(table), degree.bit_length() + 1)
        raw, codec = _reduced_basis([real(t, table.codec, narrow) for t in polys],
                                    narrow)
        assert codec.w > narrow.w  # a pair's lcm overflowed and the run started over
        bases[e.chart.alpha] = [Poly.from_packed(table, real(t, codec, table.codec))
                                for t in raw]
    assert_pinned_trifold_r3(bases)
    assert widths
    widths.clear()
    # degree 2 starts at 3 bits (cap 3); the pair (x*y-1, y^3+x-y) has an
    # lcm of degree 4
    case = (2, [{(2, 0): 1, (0, 2): 1, (0, 0): -1}, {(1, 1): 1, (0, 0): -1}],
            [{(1, 0): 2}, {(0, 3): -1, (1, 0): 1}],
            {(0, 3): 1, (1, 0): 1, (0, 0): 2})
    gens = [Poly(XY, g) for g in case[1]]
    narrow = Codec(2, 3)
    raw, codec = _reduced_basis([real(normalize(g).terms, XY.codec, narrow)
                                 for g in gens], narrow)
    assert widths == [6, 6] and codec.w == 6
    assert ([_monic(by_exponents(Poly.from_packed(XY, real(t, codec, XY.codec))))
             for t in raw] == _sympy_monic(_sympy_groebner(gens)))
    # membership and the normal form of the same ideal, at the table's width
    assert_agrees_with_sympy(case)
    widths.clear()
    # the pair (x^20000+y, y^20000+x) has an lcm of degree 40000, above the
    # cap 32767 of the table's 16-bit fields
    h = handle("x^20000+y", "y^20000+x")
    assert [str(g) for g in groebner(h)] == ["x^20000+y", "y^20000+x"]
    assert widths == [32, 32, 16, 16]
    assert contains(h, P("x^20001+y^20001+2*x*y"))
    assert not contains(h, P("x^20001+y^20001+x*y"))


def test_basis_above_the_degree_bound_is_refused():
    # the wider run finds an element of degree 40000, which the table's
    # layout cannot hold
    T = VarTable(["x", "y", "z"])
    h = IdealHandle([P("x^20000*y+z", T), P("x*y^20000+z", T)])
    with pytest.raises(DegreeBoundError, match="32767"):
        groebner(h)


# ---- diagonal fiber --------------------------------------------------------


def test_diagonal_fiber_corank2_r2():
    f = PolyMap.from_strings(("x", "y"), ("x^2", "y^2", "x*y"))
    cc = covering_collection(2, 2, "default")
    assert diagonal_fiber_dimension(f, 2, (0, 0), cc) == 1


def test_diagonal_fiber_corank2_r3():
    f = PolyMap.from_strings(("x", "y"), ("x^2", "y^2", "x*y"))
    cc = covering_collection(2, 3, "default")
    assert diagonal_fiber_dimension(f, 3, (0, 0), cc) == 2


def test_diagonal_fiber_corank1():
    f = PolyMap.from_strings(("x", "y"), ("x", "y^2"))
    cc = covering_collection(1, 2, "default")
    assert diagonal_fiber_dimension(f, 2, (0, 0), cc) == 0


def test_order_below_two_is_rejected():
    f = PolyMap.from_strings(("x", "y"), ("x^2", "y^2", "x*y"))
    cc = covering_collection(2, 2, "default")
    with pytest.raises(ValueError, match="order r must be >= 2"):
        chart_equations(f, 1, cc, ())
    with pytest.raises(ValueError, match="order r must be >= 2"):
        kr_equations(f, 1, cc)


def test_diagonal_fiber_point_arity():
    f = PolyMap.from_strings(("x", "y"), ("x^2", "y^2", "x*y"))
    cc = covering_collection(2, 2, "default")
    with pytest.raises(ValueError):
        diagonal_fiber_dimension(f, 2, (0,), cc)
