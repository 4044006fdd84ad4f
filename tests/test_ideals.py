"""Tests for chart equations, Buchberger bases, dimension and membership."""

from fractions import Fraction

import pytest

from multipoint.atlas import covering_collection, standard_collection
from multipoint.divdiff import PolyMap
from multipoint.ideals import (
    ChartEquations,
    IdealHandle,
    contains,
    diagonal_fiber_dimension,
    dimension,
    expected_dimension,
    groebner,
    is_unit_ideal,
    kr_equations,
    _buchberger,
    _normal_form,
    _entry,
    _spoly,
    _to_int_terms,
)
from multipoint.polyring import Poly, VarTable, normalize, parse_poly

XY = VarTable(["x", "y"])


def P(src, table=XY):
    return parse_poly(src, table)


def handle(*srcs, table=XY):
    return IdealHandle([P(s, table) for s in srcs])


def trifold():
    return PolyMap.from_strings(("t", "x", "y"),
                                ("t", "x^2+t*y", "y^2-t*x", "x^3+y^3+x*y"))


# ---- integer conversion ----------------------------------------------------


def test_to_int_terms_clears_denominators():
    p = P("(1/2)*x+(1/3)*y")
    assert _to_int_terms(p) == {(1, 0): 3, (0, 1): 2}


def test_to_int_terms_strips_content_and_sign():
    assert _to_int_terms(P("-4*x-6*y")) == {(1, 0): 2, (0, 1): 3}


# ---- s-polynomials and reduction -------------------------------------------


def test_spoly_cancels_leading_terms():
    f = _entry(_to_int_terms(P("x^2+y")))
    g = _entry(_to_int_terms(P("x*y+1")))
    s = _spoly(f, g)
    # S = y*(x^2+y) - x*(x*y+1) = y^2 - x
    assert s == {(0, 2): 1, (1, 0): -1}


def test_normal_form_reduces_to_zero_in_ideal():
    basis = [_entry(_to_int_terms(P("x"))), _entry(_to_int_terms(P("y")))]
    assert _normal_form(_to_int_terms(P("3*x+5*y")), basis) == {}


def test_normal_form_keeps_reduced_part():
    basis = [_entry(_to_int_terms(P("x^2")))]
    out = _normal_form(_to_int_terms(P("x^2+x+1")), basis)
    assert out == {(1, 0): 1, (0, 0): 1}


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
    entries = [_entry(_to_int_terms(b)) for b in basis]
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            assert _normal_form(_spoly(entries[i], entries[j]), entries) == {}


def test_groebner_input_reduces_to_zero():
    h = handle("x^2+y^2-1", "x*y-1", "x^3-y")
    basis = groebner(h)
    for g in h.generators:
        assert contains(h, g)


def test_groebner_reduced_property():
    # no leading monomial may divide any monomial of another basis element
    h = handle("x^2+y^2-1", "x*y-1")
    basis = [_to_int_terms(b) for b in groebner(h)]
    from multipoint.ideals import _divides
    from multipoint.polyring import degrevlex_key
    lms = [max(t, key=degrevlex_key) for t in basis]
    for i, t in enumerate(basis):
        for m in t:
            for j, lm in enumerate(lms):
                if i != j:
                    assert not _divides(lm, m)


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


def test_diagonal_fiber_point_arity():
    f = PolyMap.from_strings(("x", "y"), ("x^2", "y^2", "x*y"))
    cc = covering_collection(2, 2, "default")
    with pytest.raises(ValueError):
        diagonal_fiber_dimension(f, 2, (0,), cc)
