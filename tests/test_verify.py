"""Checks for the property suites, including deliberate sabotage.

The positive cases run each suite on small maps where the properties are
known to hold.  The negative controls corrupt a difference chain and make
sure the corruption is reported, not silently absorbed.
"""

import dataclasses
import itertools
import operator
from fractions import Fraction

import pytest

from multipoint.atlas import (
    TupleEncoding,
    build_atlas,
    collection_from_text,
    covering_collection,
    projection_to_Xr,
)
from multipoint.divdiff import DifferenceChain, PolyMap, difference_chain
from multipoint import verify
from multipoint.ideals import chart_equations, kr_equations
from multipoint.polyring import Poly, evaluate
from multipoint.verify import (
    CheckRun,
    SampleConfig,
    check_corank1,
    check_diagonal_kernel,
    check_overlap,
    check_strict_points,
    check_telescoping,
    rand_polymap,
    telescoping_failures,
)

import random


def family():
    return PolyMap.from_strings(["t", "x", "y"],
                                ["t", "x^2+t*y", "y^2", "x*y-t*x"], s="auto")


def fold():
    return PolyMap.from_strings(["x", "y"], ["x", "y^2"], s="auto")


CFG = SampleConfig(seed=11, trials=5)


class TestSampleConfig:
    def test_defaults(self):
        cfg = SampleConfig()
        assert cfg.trials >= 1 and cfg.seed == 0

    def test_rejects_bad_trials(self):
        with pytest.raises(ValueError):
            SampleConfig(trials=0)

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            SampleConfig(coeff_bound=0)
        with pytest.raises(ValueError):
            SampleConfig(degree_bound=0)


class TestTelescoping:
    def test_family_all_charts(self):
        rep = check_telescoping(
            CheckRun(kr_equations(family(), 3, covering_collection(2, 3)), CFG))
        assert rep.passed
        assert rep.trials == 6 * 2 * 3

    def test_fold(self):
        rep = check_telescoping(
            CheckRun(kr_equations(fold(), 2, covering_collection(1, 2)), CFG))
        assert rep.passed and rep.trials == 1

    def test_corrupt_flag_reports_failure(self):
        eqs = kr_equations(family(), 3, covering_collection(2, 3))
        rep = check_telescoping(CheckRun(eqs, CFG), _corrupt=True)
        assert not rep.passed
        assert len(rep.failures) == 1
        desc, expected, actual = rep.failures[0]
        assert "level 1" in desc and expected != actual
        # the corruption is a copy: the shared equations stay intact
        assert check_telescoping(CheckRun(eqs, CFG)).passed

    def test_dropped_term_reported(self):
        f = family()
        cc = covering_collection(2, 3)
        chart = f.chart_for(cc, (2, 1), 3)
        chain = difference_chain(f, chart)
        victim = chain.levels[1][0]
        mono, coeff = victim.leading_monomial(), victim.leading_coefficient()
        broken = victim - Poly(victim.table, {mono: coeff})
        levels = list(list(lv) for lv in chain.levels)
        levels[1][0] = broken
        bad = DifferenceChain(f=f, chart=chart,
                              levels=tuple(tuple(lv) for lv in levels))
        rows = telescoping_failures(bad)
        assert rows and all("U(2,1)" in d for d, _, _ in rows)

    def test_intact_chain_clean(self):
        f = family()
        chart = f.chart_for(covering_collection(2, 3), (2, 1), 3)
        assert telescoping_failures(difference_chain(f, chart)) == []

    def test_corrupt_shift_memo_is_caught(self):
        """A corrupted difference quotient in the map's kept level-1 shift,
        the memo the chain reads, corrupts the next chart that picks the
        same form.  The product it came from is corrupted alike, so the
        map's shift agrees with itself; telescoping reads the shifts of its
        own copy of the map, so it still reports the chart."""
        f = family()
        cc = covering_collection(2, 3)
        chart_equations(f, 3, cc, (1, 1))
        shift = f._shifts[(cc, 3, 1, 1)]
        lam = shift.table.codec.offsets[shift.table.index("l1")]
        e, quotient = next((e, q) for e, q in shift._quotients.items() if q)
        m = next(iter(quotient))
        # the quotient's term at m is the product's term at m * lambda_1
        quotient[m] *= 2
        shift._products[e][m + lam] *= 2
        bad = chart_equations(f, 3, cc, (1, 2))
        fresh = family()
        want = difference_chain(fresh, fresh.chart_for(cc, (1, 2), 3))
        assert bad.chain.levels[0] != want.levels[0]
        rep = check_telescoping(CheckRun([bad], CFG))
        assert rep.failures
        assert all(d.startswith("U(1,2) level 1 ") for d, _, _ in rep.failures)


class TestDiagonalKernel:
    def test_family(self):
        rep = check_diagonal_kernel(
            CheckRun(kr_equations(family(), 2, covering_collection(2, 3)), CFG))
        assert rep.passed and rep.trials == 3 * 3

    def test_fold(self):
        rep = check_diagonal_kernel(
            CheckRun(kr_equations(fold(), 2, covering_collection(1, 2)), CFG))
        assert rep.passed and rep.trials == 1

    def test_vandermonde_forms(self):
        cc = covering_collection(2, 3, "vandermonde")
        rep = check_diagonal_kernel(CheckRun(kr_equations(family(), 2, cc), CFG))
        assert rep.passed

    def test_order_three_charts_check_each_first_index_once(self):
        # level 1 depends on alpha[0] only: six order-3 charts, three checked
        rep = check_diagonal_kernel(
            CheckRun(kr_equations(family(), 3, covering_collection(2, 3)), CFG))
        assert rep.passed and rep.trials == 3 * 3

    def test_broken_level_one_names_the_order_r_chart(self):
        eqs = kr_equations(family(), 3, covering_collection(2, 3))
        chain = eqs[0].chain
        levels = [list(lv) for lv in chain.levels]
        levels[0][0] = levels[0][0] + 1
        broken = DifferenceChain(f=chain.f, chart=chain.chart,
                                 levels=tuple(tuple(lv) for lv in levels))
        eqs[0] = dataclasses.replace(eqs[0], chain=broken)
        rep = check_diagonal_kernel(CheckRun(eqs, CFG))
        assert [d for d, _, _ in rep.failures] == ["U(1,1) component 1"]


class TestStrictPoints:
    def test_family_r2(self):
        rep = check_strict_points(
            CheckRun(kr_equations(family(), 2, covering_collection(2, 3)), CFG))
        assert rep.passed and rep.trials > 0

    def test_family_r3(self):
        rep = check_strict_points(CheckRun(
            kr_equations(family(), 3, covering_collection(2, 3)),
            SampleConfig(seed=2, trials=3)))
        assert rep.passed and rep.trials > 0

    def test_fold_builtin_witnesses(self):
        # y -> -y fixes (x, y^2), so antipodal double points are manufactured
        rep = check_strict_points(
            CheckRun(kr_equations(fold(), 2, covering_collection(1, 2)), CFG))
        assert rep.passed
        assert rep.trials > CFG.trials

    def test_explicit_witness(self):
        wit = [((1,), [Fraction(1), Fraction(3), Fraction(-6)])]
        rep = check_strict_points(CheckRun(
            kr_equations(fold(), 2, covering_collection(1, 2)),
            SampleConfig(seed=1, trials=2), wit))
        assert rep.passed

    def test_witness_on_exceptional_locus_skipped(self):
        wit = [((1,), [Fraction(1), Fraction(3), Fraction(0)])]
        rep = check_strict_points(CheckRun(
            kr_equations(fold(), 2, covering_collection(1, 2)),
            SampleConfig(seed=1, trials=2), wit))
        assert rep.passed and rep.skipped >= 1

    def test_witness_for_unknown_chart_is_failure(self):
        wit = [((9,), [Fraction(0)] * 3)]
        rep = check_strict_points(CheckRun(
            kr_equations(fold(), 2, covering_collection(1, 2)),
            SampleConfig(seed=1, trials=2), wit))
        assert not rep.passed

    def test_deterministic(self):
        cc = covering_collection(2, 3)
        a = check_strict_points(CheckRun(kr_equations(family(), 2, cc), CFG))
        b = check_strict_points(CheckRun(kr_equations(family(), 2, cc), CFG))
        assert (a.trials, a.skipped, a.failures) == (b.trials, b.skipped, b.failures)


class TestChartCoordsFromTuple:
    """``TupleEncoding`` against ``Chart.project``, the map it inverts."""

    def test_roundtrip_through_projection(self):
        """project agrees with the symbolic projection, and the inverse
        recovers the chart point from the projected tuple when its points
        are distinct; a repeated point makes a difference vanish, so the
        inverse gives None."""
        rng = random.Random(5)
        for n, r, strategy in itertools.product(
                (1, 2, 3), (2, 3, 4), ("default", "vandermonde")):
            cc = covering_collection(n, r, strategy)
            for chart in build_atlas(cc, n, r, params=1):
                point = [Fraction(rng.randint(1, 9), rng.randint(1, 5))
                         for _ in chart.table.names]
                tup = chart.project(point)
                assert tup == [[evaluate(c, point) for c in proj]
                               for proj in projection_to_Xr(chart)]
                strict = len(set(map(tuple, tup))) == len(tup)
                assert (TupleEncoding(cc, tup, point[:1]).coords(chart)
                        == (point if strict else None))

    @pytest.mark.parametrize("text, r", [
        ("1,0\n2\n0,1\n1\n1/2,1\n1\n", 2),
        ("1,0\n2\n0,1\n1\n1/2,1\n1\n", 3),
        ("1,1,1\n2,3\n1/2,1,2\n3,4\n1/3,1,3\n4,5\n1/4,1,4\n5,1\n1/5,1,5\n1,2\n", 3),
    ])
    def test_rational_forms_roundtrip(self, text, r):
        """Forms with non-integral coefficients, so the codec works over a
        form denominator q != 1 (the default and vandermonde collections
        have integral forms): projecting the encoding of a random rational
        tuple gives the tuple back, and so does evaluating the symbolic
        projection at it, over inverses with denominators."""
        cc = collection_from_text(text)
        assert any(form.denominator != 1 for form in cc.forms)
        assert any(q != 1 for _, q in cc.inverses)
        rng = random.Random(11)

        def draw():
            return Fraction(rng.randint(-9, 9), rng.randint(1, 5))

        for chart in build_atlas(cc, cc.n, r, params=1):
            symbolic = projection_to_Xr(chart)
            encoded = 0
            for _ in range(6):
                params = [draw()]
                tup = [[draw() for _ in range(cc.n)] for _ in range(r)]
                coords = TupleEncoding(cc, tup, params).coords(chart)
                if coords is None:  # a chosen form vanishes on a difference
                    continue
                encoded += 1
                assert coords[:1] == params
                assert chart.project(coords) == tup
                assert tup == [[evaluate(c, coords) for c in proj] for proj in symbolic]
            assert encoded >= 4, chart.name()

    @pytest.mark.parametrize("cc, r", [
        *[(covering_collection(n, r, strategy), r)
          for n, r, strategy in itertools.product(
              (1, 2, 3), (2, 3, 4), ("default", "vandermonde"))],
        (collection_from_text("1,0\n2\n0,1\n1\n1/2,1\n1\n"), 2),
        (collection_from_text("1,0\n2\n0,1\n1\n1/2,1\n1\n"), 3),
        (collection_from_text(
            "1,1,1\n2,3\n1/2,1,2\n3,4\n1/3,1,3\n4,5\n1/4,1,4\n5,1\n1/5,1,5\n1,2\n"), 3),
    ])
    def test_prefix_shared_encoding_is_the_one_chart_encoding(self, cc, r):
        """One TupleEncoding over the whole atlas, read in a shuffled chart
        order, gives on every chart what a one-chart encoding gives, None
        included; the last tuple moves x^(1) along the kernel of form 1, so
        every chart with alpha[0] = 1 misses it."""
        rng = random.Random(r * 10 + cc.n)
        charts = build_atlas(cc, cc.n, r, params=1)
        rng.shuffle(charts)

        def draw():
            return Fraction(rng.randint(-9, 9), rng.randint(1, 5))

        tuples = [[[draw() for _ in range(cc.n)] for _ in range(r)] for _ in range(4)]
        c = cc.forms[0].coeffs
        kernel = [-c[1], c[0], *[0] * (cc.n - 2)] if cc.n > 1 else [0]
        vanishing = [list(pt) for pt in tuples[0]]
        vanishing[1] = [b + k for b, k in zip(vanishing[0], kernel)]
        assert sum(map(operator.mul, c, kernel)) == 0
        seen = 0
        for tup in [*tuples, vanishing]:
            params = [draw()]
            shared = TupleEncoding(cc, tup, params)
            for chart in charts:
                coords = shared.coords(chart)
                assert coords == TupleEncoding(cc, tup, params).coords(chart)
                if coords is not None:
                    seen += 1
                    assert chart.project(coords) == tup
        on_form_1 = [shared.coords(chart) for chart in charts if chart.alpha[0] == 1]
        assert on_form_1 and all(coords is None for coords in on_form_1)
        assert seen > 0

    def test_encoding_refuses_another_collection(self):
        cc = covering_collection(2, 3)
        chart = build_atlas(covering_collection(2, 3, "vandermonde"), 2, 3)[0]
        with pytest.raises(ValueError):
            TupleEncoding(cc, [[Fraction(0)] * 2, [Fraction(1)] * 2]).coords(chart)

    def test_unrepresentable_tuple(self):
        f = family()
        cc = covering_collection(2, 3)
        chart = f.chart_for(cc, (2,), 2)
        # second form is y; a tuple moving only in x is invisible to it
        tup = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))]
        assert TupleEncoding(cc, tup, [Fraction(0)]).coords(chart) is None


class TestOverlap:
    def test_family_r2(self):
        rep = check_overlap(
            CheckRun(kr_equations(family(), 2, covering_collection(2, 3)), CFG))
        assert rep.passed and rep.trials > 0

    def test_family_r3(self):
        rep = check_overlap(CheckRun(
            kr_equations(family(), 3, covering_collection(2, 3)),
            SampleConfig(seed=4, trials=3)))
        assert rep.passed and rep.trials > 0

    def test_single_chart_map(self):
        rep = check_overlap(
            CheckRun(kr_equations(fold(), 2, covering_collection(1, 2)), CFG))
        assert rep.passed

    # strict double point of the t=0 member of family(): (1,0) and (-1,0)
    WITNESS = [((1,), [Fraction(0), Fraction(1), Fraction(0),
                       Fraction(-2), Fraction(0)])]

    def test_explicit_witness_transfers(self):
        eqs = kr_equations(family(), 2, covering_collection(2, 3))
        rep = check_overlap(CheckRun(eqs, SampleConfig(seed=1, trials=2), self.WITNESS))
        assert rep.passed

    def test_one_run_carries_its_witness_to_both_point_suites(self, monkeypatch):
        """A witness supplied to a run is one more trial of strict-points and
        of overlap, which judge one sample, drawn once."""
        eqs = kr_equations(family(), 2, covering_collection(2, 3))
        cfg = SampleConfig(seed=1, trials=2)
        plain = CheckRun(eqs, cfg)
        base = [check_strict_points(plain), check_overlap(plain)]
        draws = []
        real = verify._strict_configurations
        monkeypatch.setattr(verify, "_strict_configurations",
                            lambda *a: draws.append(a) or real(*a))
        run = CheckRun(eqs, cfg, self.WITNESS)
        reps = [check_strict_points(run), check_overlap(run)]
        assert len(draws) == 1
        for rep, without in zip(reps, base):
            assert rep.passed and rep.trials == without.trials + 1

    def test_witness_on_exceptional_locus_skipped(self):
        eqs = kr_equations(fold(), 2, covering_collection(1, 2))
        cfg = SampleConfig(seed=1, trials=2)
        wit = [((1,), [Fraction(1), Fraction(3), Fraction(0)])]
        base = check_overlap(CheckRun(eqs, cfg))
        rep = check_overlap(CheckRun(eqs, cfg, wit))
        assert rep.passed and rep.trials == base.trials
        assert rep.skipped == base.skipped + 1

    def test_zeroed_equations_fail(self):
        # generators that vanish everywhere agree across charts, so only a
        # comparison with the tuple's images can see that they are wrong
        eqs = [dataclasses.replace(ce, generators=(Poly.zero(ce.chart.table),))
               for ce in kr_equations(family(), 3, covering_collection(2, 3))]
        cfg = SampleConfig(seed=4, trials=3)
        rep = check_overlap(CheckRun(eqs, cfg))
        assert (rep.trials, rep.skipped) == (18, 19)
        assert len(rep.failures) == 71
        assert rep.failures[0][1:] == ("generators vanish: False",
                                       "generators vanish: True")
        assert not check_strict_points(CheckRun(eqs, cfg)).passed
        # one run shared by both suites gives the same reports
        run = CheckRun(eqs, cfg)
        shared = check_overlap(run)
        assert (shared.trials, shared.skipped, shared.failures) == (
            rep.trials, rep.skipped, rep.failures)
        alone = check_strict_points(CheckRun(eqs, cfg))
        strict = check_strict_points(run)
        assert (strict.trials, strict.skipped, strict.failures) == (
            alone.trials, alone.skipped, alone.failures)


@pytest.mark.parametrize("make, r, n, cfg", [
    (family, 2, 2, CFG),
    (family, 3, 2, SampleConfig(seed=2, trials=3)),
    (fold, 2, 1, CFG),  # with its antipodal witnesses
])
def test_point_suites_draw_the_same_configurations(make, r, n, cfg):
    eqs = kr_equations(make(), r, covering_collection(n, r))
    strict = check_strict_points(CheckRun(eqs, cfg))
    overlap = check_overlap(CheckRun(eqs, cfg))
    assert strict.passed and overlap.passed
    assert strict.trials == overlap.trials > 0


@pytest.mark.parametrize("make, r, n", [(family, 3, 2), (fold, 2, 1)])
def test_point_suites_scale_each_point_once(make, r, n, monkeypatch):
    """Every evaluation in the point suites gets a point scaled before it:
    one per judged chart point and one per source point of a draw."""
    scaled, evaluated = [], []
    real_scale, real_evaluate = verify.scale_point, verify.evaluate

    def scale(point):
        scaled.append(real_scale(point))
        return scaled[-1]

    def evaluate_scaled(p, point):
        assert any(point is s for s in scaled)
        evaluated.append(p)
        return real_evaluate(p, point)

    monkeypatch.setattr(verify, "scale_point", scale)
    monkeypatch.setattr(verify, "evaluate", evaluate_scaled)
    eqs = kr_equations(make(), r, covering_collection(n, r))
    run = CheckRun(eqs, CFG)
    assert check_strict_points(run).passed
    assert check_overlap(run).passed
    assert 0 < len(scaled) <= len(evaluated)


class TestCorank1Suite:
    def test_random_normal_forms(self):
        rep = check_corank1(CheckRun((), SampleConfig(seed=9, trials=10)))
        assert rep.passed and rep.trials == 10

    def test_deterministic(self):
        cfg = SampleConfig(seed=9, trials=6)
        assert (check_corank1(CheckRun((), cfg)).failures
                == check_corank1(CheckRun((), cfg)).failures)


class TestRandPolymap:
    def test_shape(self):
        rng = random.Random(0)
        f = rand_polymap(rng, 3, 4, 2, CFG)
        assert f.n == 3 and f.p == 4 and f.s == 2
        assert f.param_names == ("t1", "t2")

    def test_rejects_bad_split(self):
        rng = random.Random(0)
        with pytest.raises(ValueError):
            rand_polymap(rng, 2, 3, 2, CFG)
        with pytest.raises(ValueError):
            rand_polymap(rng, 2, 0, 1, CFG)
