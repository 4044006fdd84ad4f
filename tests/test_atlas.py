"""Tests for covering collections, multi-indices, charts and projections."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multipoint.atlas import (
    CollectionError,
    CoveringCollection,
    LinearForm,
    build_atlas,
    build_chart,
    chart_count,
    collection_from_text,
    covering_collection,
    expected_form_count,
    index_bound,
    multi_indices,
    standard_collection,
    projection_to_Xr,
    vandermonde_collection,
    _adjugate,
)
from multipoint.polyring import (
    Poly,
    common_denominator,
    divide_by_variable,
    parse_poly,
    substitute,
)


def chart_poly(chart, src):
    return parse_poly(src, chart.table)


# ---- linear forms and inverses --------------------------------------------


def test_linear_form_rejects_zero():
    with pytest.raises(CollectionError):
        LinearForm((0, 0))


def test_linear_form_numeric():
    f = LinearForm((1, 2))
    assert (f.numerators, f.denominator) == ((1, 2), 1)
    assert f.scaled_at([1, 3]) == 7
    g = LinearForm((Fraction(-1, 2), Fraction(2, 3)))
    assert (g.numerators, g.denominator) == ((-3, 4), 6)
    # 6 * (-1/2 * 4 + 2/3 * 3) = 6 * 0, and 6 * (-1/2 * 2 + 2/3 * 1) = -2
    assert g.scaled_at([4, 3]) == 0
    assert g.scaled_at([2, 1]) == -2
    # one lowest-terms layout, so forms compare by value
    assert g.coeffs == (Fraction(-1, 2), Fraction(2, 3))
    assert LinearForm((Fraction(2, 2), 2)) == f != LinearForm((2, 4))


def rational_inverse(rows):
    """Exact inverse over Q by Gauss-Jordan on Fractions; None if singular.

    The reference for ``_adjugate`` and the collections' inverses.
    """
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


def lowest_terms_rows(rows):
    """A rational matrix as integer rows over the lcm of its denominators."""
    nums, q = common_denominator(v for row in rows for v in row)
    width = len(rows[0])
    return tuple(tuple(nums[k:k + width]) for k in range(0, len(nums), width)), q


def test_invert_oracle():
    assert _adjugate([[1, 1], [2, 2]]) is None
    # the second needs a row swap at the first column
    for rows in ([[1, 2], [3, 4]], [[2]], [[0, 1, 2], [1, 0, 3], [4, -3, 8]]):
        adj, d = _adjugate(rows)
        n = len(rows)
        product = [[sum(adj[i][k] * rows[k][j] for k in range(n)) for j in range(n)]
                   for i in range(n)]
        assert product == [[d * int(i == j) for j in range(n)] for i in range(n)]


@st.composite
def small_matrices(draw):
    n = draw(st.integers(1, 5))
    entry = st.integers(-3, 3)
    return [[draw(entry) for _ in range(n)] for _ in range(n)]


@given(small_matrices())
@settings(max_examples=300, deadline=None)
def test_adjugate_matches_rational_inverse(rows):
    # entries in -3..3 make singular matrices and zero pivots common
    want = rational_inverse(rows)
    got = _adjugate(rows)
    if want is None:
        assert got is None
    else:
        adj, d = got
        assert [[Fraction(a, d) for a in row] for row in adj] == want


@st.composite
def rational_collections(draw):
    n = draw(st.sampled_from([2, 3]))
    ell = draw(st.integers(2, 3))
    m = expected_form_count(n, ell)
    coeff = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6))
    forms = [LinearForm(draw(st.lists(coeff, min_size=n, max_size=n)
                             .filter(any)))
             for _ in range(m)]
    companions = [draw(st.permutations([j for j in range(m) if j != i]))[:n - 1]
                  for i in range(m)]
    return n, ell, forms, companions


@given(rational_collections())
@settings(max_examples=150, deadline=None)
def test_inverses_match_rational_inverse(case):
    n, ell, forms, companions = case
    independent = all(
        rational_inverse([forms[i].coeffs for i in subset]) is not None
        for subset in itertools.combinations(range(len(forms)), n))
    if not independent:
        with pytest.raises(CollectionError, match="linearly dependent"):
            CoveringCollection(n, ell, forms, companions)
        return
    cc = CoveringCollection(n, ell, forms, companions)
    for i in range(len(forms)):
        assert cc.inverses[i] == lowest_terms_rows(rational_inverse(cc.matrix(i)))


@pytest.mark.parametrize("cc", [
    vandermonde_collection(3, 4),
    collection_from_text("1,0\n2\n-1/2,1\n1\n"),
    # forms over denominators 1, 1, 1, 6 and 12
    collection_from_text("1,0,0\n2,3\n0,1,0\n3,4\n0,0,1\n4,5\n"
                         "1,1/2,1/3\n5,1\n1,-1/3,1/4\n1,2\n"),
])
def test_inverses_are_integer_rows_over_q(cc):
    # rows / q times the stacked matrix is the identity, for every form
    n = cc.n
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(len(cc.forms)):
        rows, q = cc.inverses[i]
        assert all(isinstance(c, int) for row in rows for c in row)
        matrix = cc.matrix(i)
        product = [[sum(Fraction(rows[a][k], q) * matrix[k][b] for k in range(n))
                    for b in range(n)] for a in range(n)]
        assert product == identity
    assert any(q != 1 for _, q in cc.inverses)


# ---- collections -----------------------------------------------------------


def test_standard_n2_ell3():
    cc = standard_collection(2, 3)
    assert [f.coeffs for f in cc.forms] == [(1, 0), (0, 1), (1, 1)]
    assert cc.companions == ((1,), (0,), (0,))


def test_standard_n1():
    cc = standard_collection(1, 5)
    assert len(cc.forms) == 1
    assert cc.companions == ((),)


def test_standard_out_of_range():
    with pytest.raises(CollectionError):
        standard_collection(3, 3)
    with pytest.raises(CollectionError):
        standard_collection(2, 4)


def test_form_count_formula():
    assert expected_form_count(2, 3) == 3
    assert expected_form_count(3, 3) == 5
    assert expected_form_count(1, 9) == 1


def test_vandermonde_n3_ell3_all_triples_independent():
    cc = vandermonde_collection(3, 3)
    assert len(cc.forms) == 5
    for subset in itertools.combinations(range(5), 3):
        assert _adjugate([cc.forms[i].numerators for i in subset]) is not None


def test_vandermonde_companions_cyclic():
    cc = vandermonde_collection(3, 3)
    assert cc.companions[0] == (1, 2)
    assert cc.companions[4] == (0, 1)


def test_collection_validation_catches_dependence():
    forms = [LinearForm((1, 0)), LinearForm((0, 1)), LinearForm((2, 0))]
    with pytest.raises(CollectionError):
        CoveringCollection(2, 3, forms, [(1,), (0,), (1,)])


def test_collection_validation_catches_bad_companion_matrix():
    # forms fine pairwise, but a form may not be its own companion
    forms = [LinearForm((1, 0)), LinearForm((0, 1)), LinearForm((1, 1))]
    with pytest.raises(CollectionError):
        CoveringCollection(2, 3, forms, [(0,), (0,), (0,)])


def test_collection_wrong_count():
    with pytest.raises(CollectionError):
        CoveringCollection(2, 3, [LinearForm((1, 0))], [()])


def test_covering_collection_default_strategy():
    cc = covering_collection(2, 3, "default")
    assert [f.coeffs for f in cc.forms] == [(1, 0), (0, 1), (1, 1)]
    cc2 = covering_collection(3, 3, "default")
    assert len(cc2.forms) == 5


def test_covering_collection_unknown_strategy():
    with pytest.raises(CollectionError):
        covering_collection(2, 3, "mystery")


# ---- collection files ------------------------------------------------------


def test_collection_file_roundtrip():
    text = """

# the standard three forms
1,0
2
0,1
1
1,1
1
"""
    cc = collection_from_text(text)
    assert cc.n == 2 and cc.ell == 3
    assert cc.companions == ((1,), (0,), (0,))


def test_collection_file_bad_coeff_names_line():
    with pytest.raises(CollectionError) as ei:
        collection_from_text("1,q\n2\n0,1\n1\n1,1\n1\n", source="forms.txt")
    assert "forms.txt:1" in str(ei.value)


def test_collection_file_arity_mismatch_names_line():
    with pytest.raises(CollectionError) as ei:
        collection_from_text("1,0\n2\n0,1,1\n1\n1,1\n1\n", source="f")
    assert "f:3" in str(ei.value)


def test_collection_file_missing_companions():
    with pytest.raises(CollectionError):
        collection_from_text("1,0\n2\n0,1\n")


def test_collection_file_n1():
    cc = collection_from_text("1\n\n")
    assert cc.n == 1 and len(cc.forms) == 1


def test_collection_file_rational_coeffs():
    cc = collection_from_text("1,0\n2\n0,1\n1\n1/2,1\n1\n")
    assert cc.forms[2].coeffs == (Fraction(1, 2), 1)


# ---- multi-indices ---------------------------------------------------------


def test_multi_indices_n2_r3():
    assert multi_indices(2, 3, 3) == [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)]


def test_multi_indices_n2_r2():
    assert multi_indices(2, 2, 2) == [(1,), (2,)]


def test_multi_indices_n1_r4():
    assert multi_indices(1, 4, 4) == [(1, 1, 1)]


def test_multi_indices_default_ell():
    assert multi_indices(2, 3) == multi_indices(2, 3, 3)


def test_multi_indices_rejects_small_ell():
    with pytest.raises(ValueError):
        multi_indices(2, 3, 2)


def test_chart_count_formula():
    assert chart_count(2, 3) == 6
    assert chart_count(1, 4) == 1
    assert chart_count(3, 3) == 15
    for n in (1, 2, 3):
        for r in (2, 3, 4):
            assert chart_count(n, r) == len(multi_indices(n, r))


def test_index_bound_pattern():
    assert [index_bound(2, 3, i) for i in (1, 2)] == [3, 2]


# ---- charts ----------------------------------------------------------------


def test_chart_table_layout():
    cc = standard_collection(2, 3)
    chart = build_chart(cc, (1, 1), 2, 3, params=1, param_names=("t",),
                        base_names=("x", "y"))
    assert chart.table.names == ("t", "x", "y", "l1", "a1", "l2", "a2")


def test_chart_nu_identity_form():
    cc = standard_collection(2, 2)
    chart = build_chart(cc, (1,), 2, 2)
    assert chart.nu[0][0] == chart_poly(chart, "l1")
    assert chart.nu[0][1] == chart_poly(chart, "l1*a1")


def test_chart_nu_swapped_form():
    cc = standard_collection(2, 2)
    chart = build_chart(cc, (2,), 2, 2)
    assert chart.nu[0][0] == chart_poly(chart, "l1*a1")
    assert chart.nu[0][1] == chart_poly(chart, "l1")


def test_chart_nu_third_form_systematic():
    cc = standard_collection(2, 3)
    chart = build_chart(cc, (3, 1), 2, 3)
    # L = x+y with companion x: the inverse sends (1, a) to (a, 1-a)
    assert chart.nu[0][0] == chart_poly(chart, "l1*a1")
    assert chart.nu[0][1] == chart_poly(chart, "l1-l1*a1")


def test_chart_nu_divisible_by_lambda():
    cc = vandermonde_collection(3, 3)
    chart = build_chart(cc, (4, 2), 3, 3)
    for level, nu in enumerate(chart.nu, start=1):
        lam = chart.lambda_names[level - 1]
        for component in nu:
            divide_by_variable(component, lam)


@pytest.mark.parametrize("cc, alpha", [
    (vandermonde_collection(3, 3), (5, 3)),
    # inverses over q = 30, 2 and 2 at levels 1, 2 and 3
    (vandermonde_collection(3, 4), (7, 5, 3)),
])
def test_chart_matrix_recovers_level_coordinates(cc, alpha):
    # applying the stacked matrix to nu must give (lambda, lambda*a_k)
    r = len(alpha) + 1
    chart = build_chart(cc, alpha, cc.n, r)
    for level in range(1, r):
        rows = cc.matrix(chart.alpha[level - 1] - 1)
        lam = Poly.variable(chart.table, chart.lambda_names[level - 1])
        expected = [lam] + [lam * Poly.variable(chart.table, nm)
                            for nm in chart.a_names[level - 1]]
        for row, want in zip(rows, expected):
            acc = Poly.zero(chart.table)
            for c, comp in zip(row, chart.nu[level - 1]):
                acc = acc + comp * c
            assert acc == want
    assert any(cc.inverses[a - 1][1] != 1 for a in alpha)


def test_chart_alpha_out_of_range():
    cc = standard_collection(2, 3)
    with pytest.raises(CollectionError):
        build_chart(cc, (4, 1), 2, 3)
    with pytest.raises(CollectionError):
        build_chart(cc, (1, 3), 2, 3)


def test_chart_wrong_alpha_length():
    cc = standard_collection(2, 3)
    with pytest.raises(CollectionError):
        build_chart(cc, (1,), 2, 3)


def test_chart_name_collision():
    cc = standard_collection(2, 2)
    with pytest.raises(CollectionError):
        build_chart(cc, (1,), 2, 2, base_names=("l1", "y"))


def test_chart_fiber_dim_mismatch():
    cc = standard_collection(2, 2)
    with pytest.raises(CollectionError):
        build_chart(cc, (1,), 3, 2)


def test_chart_n1_has_no_a_block():
    cc = standard_collection(1, 4)
    chart = build_chart(cc, (1, 1, 1), 1, 4, params=1)
    assert chart.table.names == ("t", "x", "l1", "l2", "l3")


def test_chart_exceptional_divisor():
    cc = standard_collection(2, 3)
    chart = build_chart(cc, (1, 2), 2, 3)
    assert chart.exceptional == chart_poly(chart, "l2")


def test_chart_naming():
    cc = standard_collection(2, 3)
    assert build_chart(cc, (1, 2), 2, 3).name() == "U(1,2)"


def test_build_atlas_order():
    cc = standard_collection(2, 3)
    atlas = build_atlas(cc, 2, 3)
    assert [c.alpha for c in atlas] == multi_indices(2, 3, 3)


# ---- projections -----------------------------------------------------------


def test_projection_r2_chart1():
    cc = standard_collection(2, 2)
    chart = build_chart(cc, (1,), 2, 2)
    proj = projection_to_Xr(chart)
    assert proj[0] == [chart_poly(chart, "x"), chart_poly(chart, "y")]
    assert proj[1] == [chart_poly(chart, "x+l1"), chart_poly(chart, "y+l1*a1")]


def test_projection_r3_chart_11():
    cc = standard_collection(2, 3)
    chart = build_chart(cc, (1, 1), 2, 3)
    proj = projection_to_Xr(chart)
    assert proj[1] == [chart_poly(chart, "x+l1"), chart_poly(chart, "y+l1*a1")]
    assert proj[2] == [
        chart_poly(chart, "x+l1+l2"),
        chart_poly(chart, "y+(l1+l2)*(a1+l2*a2)"),
    ]


def test_projection_r3_chart_12():
    cc = standard_collection(2, 3)
    chart = build_chart(cc, (1, 2), 2, 3)
    proj = projection_to_Xr(chart)
    assert proj[2] == [
        chart_poly(chart, "x+l1+l2*a2"),
        chart_poly(chart, "y+(l1+l2*a2)*(a1+l2)"),
    ]


def test_projection_n1_cumulative_sums():
    cc = standard_collection(1, 4)
    chart = build_chart(cc, (1, 1, 1), 1, 4)
    proj = projection_to_Xr(chart)
    assert proj[1] == [chart_poly(chart, "x+l1")]
    assert proj[2] == [chart_poly(chart, "x+l1+l2")]
    assert proj[3] == [chart_poly(chart, "x+l1+l2+l3")]


def test_projection_collapses_at_zero_lambda():
    cc = vandermonde_collection(2, 4)
    for alpha in multi_indices(2, 4, 4):
        chart = build_chart(cc, alpha, 2, 4)
        proj = projection_to_Xr(chart)
        zeros = {nm: Poly.zero(chart.table) for nm in chart.lambda_names}
        for j in range(1, 4):
            for comp, base in zip(proj[j], proj[0]):
                assert substitute(comp, zeros) == base


def test_projection_round_trip_first_level():
    # applying the level-1 stacked matrix to x^(1)-x recovers (l1, l1*a)
    cc = vandermonde_collection(3, 2)
    for alpha in multi_indices(3, 2, 2):
        chart = build_chart(cc, alpha, 3, 2)
        proj = projection_to_Xr(chart)
        delta = [b - a for b, a in zip(proj[1], proj[0])]
        rows = cc.matrix(alpha[0] - 1)
        lam = Poly.variable(chart.table, "l1")
        expected = [lam] + [lam * Poly.variable(chart.table, nm)
                            for nm in chart.a_names[0]]
        for row, want in zip(rows, expected):
            acc = Poly.zero(chart.table)
            for c, comp in zip(row, delta):
                acc = acc + comp * c
            assert acc == want
