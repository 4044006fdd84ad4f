"""Tests for difference chains and the corank-one oracle."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multipoint.atlas import (
    build_chart,
    collection_from_text,
    covering_collection,
    index_bound,
    multi_indices,
    standard_collection,
    vandermonde_collection,
)
from multipoint import divdiff
from multipoint.divdiff import (
    MapFormError,
    PolyMap,
    classical_corank1,
    corank1_translate,
    difference_chain,
    level_shift,
    _divide_by_binomial,
)
from multipoint.ideals import chart_equations
from multipoint.polyring import (
    DegreeBoundError,
    NotDivisibleError,
    Poly,
    PolyError,
    VarTable,
    divide_by_variable,
    normalize,
    parse_poly,
    substitute,
    transplant,
)

TRIFOLD_VARS = ("t", "x", "y")
TRIFOLD_COORDS = ("t", "x^2+t*y", "y^2-t*x", "x^3+y^3+x*y")


def trifold():
    return PolyMap.from_strings(TRIFOLD_VARS, TRIFOLD_COORDS)


def cp(chart, src):
    return parse_poly(src, chart.table)


# ---- PolyMap ---------------------------------------------------------------


def test_polymap_auto_params():
    f = trifold()
    assert f.s == 1 and f.n == 3 and f.p == 4
    assert f.param_names == ("t",)
    assert f.fiber_names == ("x", "y")


def test_polymap_identity_prefix_full_means_no_params():
    f = PolyMap.from_strings(("x", "y"), ("x", "y"))
    assert f.s == 0 and f.fiber_dim == 2


def test_polymap_explicit_params_validated():
    with pytest.raises(MapFormError):
        PolyMap.from_strings(("t", "x"), ("t*t", "x^2"), s=1)
    with pytest.raises(MapFormError):
        PolyMap.from_strings(("x", "y"), ("x", "y"), s=2)


def test_polymap_no_fiber_rejected():
    with pytest.raises(MapFormError):
        PolyMap.from_strings(("x",), ("x",), s=1)


def test_polymap_empty_rejected():
    with pytest.raises(MapFormError):
        PolyMap(VarTable(["x"]), [])


def test_polymap_specialize():
    f = trifold()
    g = f.specialize([Fraction(2)])
    assert g.s == 0
    tb = g.table
    assert tb.names == ("x", "y")
    assert g.coords[0] == parse_poly("x^2+2*y", tb)
    assert g.coords[1] == parse_poly("y^2-2*x", tb)


def test_charts_of_one_map_share_one_table():
    f = trifold()
    cc = standard_collection(2, 3)
    r3 = [f.chart_for(cc, alpha, 3) for alpha in multi_indices(2, 3)]
    assert all(chart.table is r3[0].table for chart in r3)
    # another order has other coordinates, so a table of its own
    r2 = [f.chart_for(cc, alpha, 2) for alpha in multi_indices(2, 2, 3)]
    assert all(chart.table is r2[0].table for chart in r2)
    assert r2[0].table is not r3[0].table
    # a second map with equal names shares nothing, but its tables compare equal
    other = trifold().chart_for(cc, (1, 1), 3)
    assert other.table is not r3[0].table and other.table == r3[0].table
    # rendering over the shared table fills one memo, which an equal table
    # reproduces from scratch
    texts = [str(g) for chart in r3 for g in difference_chain(f, chart).levels[-1]]
    fresh = [str(Poly.from_packed(VarTable(r3[0].table.names), g.terms, g.den))
             for chart in r3 for g in difference_chain(f, chart).levels[-1]]
    assert texts == fresh


def test_build_chart_checks_a_given_table():
    cc = standard_collection(2, 3)
    chart = build_chart(cc, (1, 2), 2, 3, 1)
    again = build_chart(cc, (2, 1), 2, 3, 1, table=chart.table)
    assert again.table is chart.table
    with pytest.raises(ValueError):
        build_chart(cc, (2,), 2, 2, 1, table=chart.table)


# ---- difference chains -----------------------------------------------------


def test_trifold_level1_chart1():
    f = trifold()
    cc = standard_collection(2, 2)
    chart = f.chart_for(cc, (1,), 2)
    chain = difference_chain(f, chart)
    want = [
        "a1*t+l1+2*x",
        "a1^2*l1+2*a1*y-t",
        "a1^3*l1^2+3*a1^2*l1*y+a1*l1+a1*x+3*a1*y^2+l1^2+3*l1*x+3*x^2+y",
    ]
    assert list(chain.levels[0]) == [cp(chart, w) for w in want]


def test_trifold_level2_chart11():
    f = trifold()
    cc = standard_collection(2, 3)
    chart = f.chart_for(cc, (1, 1), 3)
    chain = difference_chain(f, chart)
    assert len(chain.levels) == 2
    assert chain.levels[1][0] == cp(chart, "a2*t+1")
    assert chain.levels[1][1] == cp(
        chart, "a1^2+2*a1*a2*l1+2*a1*a2*l2+a2^2*l1*l2+a2^2*l2^2+2*a2*y")


def test_identity_map_level1_is_unit():
    f = PolyMap.from_strings(("x", "y"), ("x", "y"))
    cc = standard_collection(2, 2)
    for alpha in multi_indices(2, 2, 2):
        chart = f.chart_for(cc, alpha, 2)
        chain = difference_chain(f, chart)
        consts = [g for g in chain.levels[0] if g.is_constant() and not g.is_zero()]
        assert consts


def test_chain_level_variable_scope():
    # level j must not involve level j+1 coordinates
    f = trifold()
    cc = standard_collection(2, 3)
    chart = f.chart_for(cc, (2, 1), 3)
    chain = difference_chain(f, chart)
    level1_vars = set(v for g in chain.levels[0] for v in g.variables_used())
    assert "l2" not in level1_vars and "a2" not in level1_vars


def test_telescoping_identity_symbolic():
    f = trifold()
    cc = standard_collection(2, 3)
    for alpha in multi_indices(2, 3, 3):
        chart = f.chart_for(cc, alpha, 3)
        chain = difference_chain(f, chart)
        lam2 = Poly.variable(chart.table, "l2")
        prev_names = ["l1", *chart.a_names[0]]
        shift = {nm: Poly.variable(chart.table, nm) + d
                 for nm, d in zip(prev_names, chart.nu[1])}
        for g_prev, g in zip(chain.levels[0], chain.levels[1]):
            assert lam2 * g == substitute(g_prev, shift) - g_prev


FIBER3_COORDS = ("x^2+y*z", "y^2-x*z", "z^2+x*y")
# four rational forms on the fiber of the trifold: its charts go up to r = 4
RATIONAL_FORMS = "1,0\n2\n0,1\n1\n1/2,1\n1\n1,-1/3\n2\n"


def _map_and_collection(kind, r):
    if kind == "default":
        return trifold, covering_collection(2, r)
    if kind == "vandermonde":
        return (lambda: PolyMap.from_strings(("x", "y", "z"), FIBER3_COORDS),
                vandermonde_collection(3, r))
    return trifold, collection_from_text(RATIONAL_FORMS)


def _fresh_chain(make, cc, alpha, r):
    f = make()
    return difference_chain(f, f.chart_for(cc, alpha, r))


@pytest.mark.parametrize("r", [2, 3, 4])
@pytest.mark.parametrize("kind", ["default", "vandermonde", "rational"])
def test_shared_shifts_give_the_fresh_chains(kind, r):
    """Every chart's chain from one map, whose level shifts and their
    expansions are shared by all its charts, equals the chain from a map of
    its own; the map keeps one shift per level and form."""
    make, cc = _map_and_collection(kind, r)
    shared = make()
    for alpha in multi_indices(cc.n, r, cc.ell):
        chain = difference_chain(shared, shared.chart_for(cc, alpha, r))
        assert chain.levels == _fresh_chain(make, cc, alpha, r).levels
    assert len(shared._shifts) == sum(index_bound(cc.n, cc.ell, j) for j in range(1, r))


def test_shifts_kept_per_collection():
    """Two collections at one order on one map share the charts' table but
    not their shifts: the same multi-index means other forms."""
    f = trifold()
    ccs = [standard_collection(2, 3), vandermonde_collection(2, 3)]
    for cc in ccs:
        for alpha in multi_indices(2, 3, 3):
            chain = difference_chain(f, f.chart_for(cc, alpha, 3))
            assert chain.levels == _fresh_chain(trifold, cc, alpha, 3).levels
    assert len(f._chart_tables) == 1 and len(f._shifts) == 2 * (3 + 2)


def _recursive_levels(f, chart):
    """Levels 1..r-1 by the defining recursion, whole rational polynomials
    at each step: divide_by_variable(substitute(g, level_shift) - g, lambda_j)."""
    levels = [[transplant(c, chart.table) for c in f.fiber_coords]]
    for j in range(1, chart.r):
        shift = level_shift(chart, j)
        lam = chart.lambda_names[j - 1]
        levels.append([divide_by_variable(substitute(g, shift) - g, lam)
                       for g in levels[-1]])
    return tuple(tuple(level) for level in levels[1:])


@st.composite
def _chain_cases(draw):
    """A map with rational coefficients, with or without a parameter, and one
    chart of order 2..4 from the default, vandermonde or a rational
    collection."""
    kind = draw(st.sampled_from(["default", "vandermonde", "rational"]))
    r = draw(st.integers(2, 4))
    fiber = ("x", "y", "z") if kind == "vandermonde" else ("x", "y")
    cc = {"default": lambda: covering_collection(2, r),
          "vandermonde": lambda: vandermonde_collection(3, r),
          "rational": lambda: collection_from_text(RATIONAL_FORMS)}[kind]()
    s = draw(st.integers(0, 1))
    table = VarTable(["t"][:s] + list(fiber))
    mono = st.lists(st.sampled_from(table.names), max_size=3).map(
        lambda names: tuple(names.count(nm) for nm in table.names))
    coeffs = st.fractions(-3, 3, max_denominator=3).filter(bool)
    coords = [Poly.variable(table, nm) for nm in table.names[:s]]
    for _ in range(draw(st.integers(1, 3 if kind != "vandermonde" else 2))):
        coords.append(Poly(table, draw(st.dictionaries(mono, coeffs, max_size=4))))
    f = PolyMap(table, coords, s=s)
    alpha = draw(st.sampled_from(list(multi_indices(cc.n, r, cc.ell))))
    return f, cc, alpha, r


@given(_chain_cases())
@settings(max_examples=60, deadline=None)
def test_integer_chain_is_the_recursion(case):
    """The one-pass integer chain equals the level-by-level recursion in
    rationals; each component is reduced over a positive denominator, and
    the generators are the normalized levels."""
    f, cc, alpha, r = case
    chart = f.chart_for(cc, alpha, r)
    want = _recursive_levels(f, chart)
    chain = difference_chain(f, chart)
    for level in chain.levels:
        for g in level:
            assert g.den > 0 and all(type(c) is int for c in g.terms.values())
            assert math.gcd(g.den, *g.terms.values()) == 1
    assert chain.levels == want
    eqs = chart_equations(f, r, cc, alpha)
    assert eqs.generators == tuple(normalize(g) for level in want for g in level)


def test_hand_built_chain_scales_its_levels():
    f = trifold()
    chart = f.chart_for(standard_collection(2, 3), (2, 1), 3)
    built = difference_chain(f, chart)
    by_hand = divdiff.DifferenceChain(f=f, chart=chart, levels=built.levels)
    assert len(by_hand.levels) == len(built.levels) == 2
    assert by_hand.levels is built.levels


@pytest.mark.parametrize("extra", ["one", "gamma"])
def test_nu_without_lambda_factor_is_refused(monkeypatch, extra):
    """A level shift whose nu has a term without lambda_j leaves a
    difference that lambda_j does not divide: nu + 1 puts that term off
    gamma^E, nu + gamma puts it on gamma^E."""
    real = divdiff.level_shift

    def bent(chart, j):
        return {nm: img + (1 if extra == "one" else Poly.variable(chart.table, nm))
                for nm, img in real(chart, j).items()}

    monkeypatch.setattr(divdiff, "level_shift", bent)
    f = trifold()
    with pytest.raises(NotDivisibleError):
        difference_chain(f, f.chart_for(covering_collection(2, 3), (1, 1), 3))


def test_chain_degree_bound():
    """On chart U(1) the image of y has degree 2, so y^16384 lifts to degree
    32768, one above the bound, and the chain refuses it before expanding."""
    f = PolyMap.from_strings(("x", "y"), ("y^16384", "x^2"))
    chart = f.chart_for(covering_collection(2, 2), (1,), 2)
    with pytest.raises(DegreeBoundError, match="32768"):
        difference_chain(f, chart)


def test_chain_chart_mismatch():
    f = trifold()
    cc = standard_collection(2, 2)
    wrong = build_chart(cc, (1,), 2, 2)  # default names x,y but no param t
    with pytest.raises(MapFormError):
        difference_chain(f, wrong)


def test_unfolding_parameters_pass_through():
    # slicing at t=t0 commutes with taking differences
    f = trifold()
    t0 = Fraction(3, 2)
    cc = standard_collection(2, 3)
    for alpha in multi_indices(2, 3, 3):
        chart = f.chart_for(cc, alpha, 3)
        chain = difference_chain(f, chart)
        g = f.specialize([t0])
        chart0 = g.chart_for(cc, alpha, 3)
        chain0 = difference_chain(g, chart0)
        for lv, lv0 in zip(chain.levels, chain0.levels):
            for a, b in zip(lv, lv0):
                sliced = transplant_to(a, chart0.table, {"t": t0})
                assert sliced == b


def transplant_to(p, table, mapping):
    from multipoint.polyring import transplant
    return transplant(p, table, mapping)


# ---- binomial division -----------------------------------------------------


def test_divide_by_binomial_power():
    tb = VarTable(["y", "y1"])
    p = parse_poly("y1^3-y^3", tb)
    assert _divide_by_binomial(p, "y1", "y") == parse_poly("y1^2+y1*y+y^2", tb)


def test_divide_by_binomial_remainder_detected():
    tb = VarTable(["y", "y1"])
    with pytest.raises(PolyError):
        _divide_by_binomial(parse_poly("y1^2+1", tb), "y1", "y")


def test_divide_by_binomial_zero():
    tb = VarTable(["y", "y1"])
    assert _divide_by_binomial(Poly.zero(tb), "y1", "y").is_zero()


# ---- classical corank-one oracle -------------------------------------------


def test_classical_fold():
    f = PolyMap.from_strings(("x", "y"), ("x", "y^2"))
    levels = classical_corank1(f, 2)
    tb = levels[0][0].table
    assert levels[0] == [parse_poly("y+y1", tb)]


def test_classical_cusp_two_levels():
    f = PolyMap.from_strings(("x", "y"), ("x", "y^3"))
    levels = classical_corank1(f, 3)
    tb = levels[0][0].table
    assert levels[0] == [parse_poly("y^2+y*y1+y1^2", tb)]
    assert levels[1] == [parse_poly("y+y1+y2", tb)]


def test_classical_constant_component():
    f = PolyMap.from_strings(("x", "y"), ("x", "7"), s=1)
    levels = classical_corank1(f, 3)
    assert all(g.is_zero() for level in levels for g in level)


def test_classical_normal_form_enforced():
    f = PolyMap.from_strings(("x", "y"), ("x^2", "y^2"), s=0)
    with pytest.raises(MapFormError):
        classical_corank1(f, 2)


def test_classical_multiple_components():
    f = PolyMap.from_strings(("x", "y"), ("x", "y^2", "x*y"))
    levels = classical_corank1(f, 2)
    tb = levels[0][0].table
    assert levels[0] == [parse_poly("y+y1", tb), parse_poly("x", tb)]


# ---- corank-one translation ------------------------------------------------


def test_translate_fold():
    f = PolyMap.from_strings(("x", "y"), ("x", "y^2"))
    cc = standard_collection(1, 2)
    chart = f.chart_for(cc, (1,), 2)
    chain = difference_chain(f, chart)
    assert list(chain.levels[0]) == [cp(chart, "2*y+l1")]
    translated = corank1_translate(chain)
    classical = classical_corank1(f, 2)
    assert translated[0] == classical[0]


def test_translate_matches_classical_deeper():
    f = PolyMap.from_strings(("x", "y"), ("x", "y^3+x*y"))
    cc = standard_collection(1, 3)
    chart = f.chart_for(cc, (1, 1), 3)
    chain = difference_chain(f, chart)
    translated = corank1_translate(chain)
    classical = classical_corank1(f, 3)
    for lt, lc in zip(translated, classical):
        assert [normalize(g) for g in lt] == [normalize(g) for g in lc]


def test_translate_requires_fiber_dim_1():
    f = trifold()
    cc = standard_collection(2, 2)
    chart = f.chart_for(cc, (1,), 2)
    chain = difference_chain(f, chart)
    with pytest.raises(MapFormError):
        corank1_translate(chain)


def test_translate_zero_map():
    f = PolyMap.from_strings(("x", "y"), ("x", "0"), s=1)
    cc = standard_collection(1, 3)
    chart = f.chart_for(cc, (1, 1), 3)
    chain = difference_chain(f, chart)
    translated = corank1_translate(chain)
    assert all(g.is_zero() for level in translated for g in level)
