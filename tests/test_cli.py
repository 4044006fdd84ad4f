"""End to end checks of the command line: exit codes, formats, determinism."""

import dataclasses
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import time
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from multipoint import cli, divdiff, ideals, verify
from multipoint.atlas import chart_count, covering_collection
from multipoint.cli import RunSpec, build_parser, main, run
from multipoint.divdiff import PolyMap
from multipoint.ideals import kr_equations
from multipoint.polyring import DegreeBoundError, Poly, VarTable, parse_poly

SRC = Path(__file__).resolve().parent.parent / "src"
FAMILY = ["--vars", "t,x,y", "--map", "t;x2+ty;y2;xy-tx"]
QUADRIC = ["--vars", "x,y,z", "--map", "x2+yz;y2-xz;z2+xy"]


def capture(argv):
    parser = build_parser()
    spec = RunSpec.from_args(parser.parse_args(argv))
    out = io.StringIO()
    code = run(spec, out)
    return code, out.getvalue()


class _Built(Exception):
    """Raised in place of building a chart's equations."""


@pytest.fixture
def admitted(monkeypatch):
    """``with admitted(): ...`` asserts that a run gets as far as building
    chart equations, which are not built."""
    def build(*args):
        raise _Built

    monkeypatch.setattr(cli, "chart_equations", build)
    return lambda: pytest.raises(_Built)


class TestExitCodes:
    def test_success(self, capsys):
        assert main(["eqs", *FAMILY, "-r", "2"]) == 0

    def test_unknown_variable(self, capsys):
        assert main(["eqs", "--vars", "x,y", "--map", "x;w", "-r", "2"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_chart(self, capsys):
        assert main(["eqs", *FAMILY, "-r", "2", "--chart", "9"]) == 2

    def test_check_unknown_chart(self, capsys):
        assert main(["check", *FAMILY, "-r", "3", "--chart", "9,9"]) == 2
        assert "--chart: no chart (9, 9)" in capsys.readouterr().err

    def test_params_too_large(self, capsys):
        assert main(["eqs", "--vars", "x,y", "--map", "x;y2",
                     "-r", "2", "--params", "2"]) == 2

    def test_missing_map_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["eqs", "--vars", "x,y", "-r", "2"])
        assert exc.value.code == 2

    def test_map_starting_with_minus(self, capsys):
        assert main(["eqs", "--vars", "x,y", "--map", "-x2+y;y3"]) == 0
        split = capsys.readouterr().out
        assert main(["eqs", "--vars", "x,y", "--map=-x2+y;y3"]) == 0
        assert split == capsys.readouterr().out
        assert split.startswith("map (x, y) -> (-x^2+y; y^3)")

    @pytest.mark.parametrize("argv", [
        ["eqs", "--map", "--vars", "x,y"],
        ["eqs", "--vars", "x,y", "--map"],
    ])
    def test_map_without_value_is_usage_error(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_bad_suite_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["check", *FAMILY, "--suite", "bogus"])
        assert exc.value.code == 2

    def test_check_passes(self, capsys):
        assert main(["check", *FAMILY, "-r", "2", "--trials", "3"]) == 0

    def test_corrupt_check_fails(self, capsys):
        assert main(["check", *FAMILY, "-r", "2", "--suite", "telescoping",
                     "--corrupt"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_internal_error(self, monkeypatch, capsys):
        def broken(spec, f, cc, out):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli.COMMANDS, "eqs", broken)
        assert main(["eqs", *FAMILY]) == 3
        assert "internal error: RuntimeError: boom" in capsys.readouterr().err

    def test_value_error_from_a_bug_is_internal(self, monkeypatch, capsys):
        def broken(spec, f, cc, out):
            raise ValueError("boom")

        monkeypatch.setitem(cli.COMMANDS, "eqs", broken)
        assert main(["eqs", *FAMILY]) == 3
        assert "internal error: ValueError: boom" in capsys.readouterr().err

    def test_zero_trials(self, capsys):
        assert main(["check", *FAMILY, "-r", "2", "--trials", "0"]) == 2
        assert capsys.readouterr().err.startswith("error: --trials:")

    def test_trials_above_the_bound(self, monkeypatch, capsys):
        built = []
        monkeypatch.setattr(cli, "chart_equations", lambda *a: built.append(a))
        argv = ["check", "--vars", "x,y", "--map", "x2;y2", "-r", "2",
                "--suite", "strict", "--trials"]
        assert main([*argv, "100000000"]) == 2
        assert main([*argv, str(cli.MAX_TRIALS + 1)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --trials: 100000000 is more than {cli.MAX_TRIALS}")
        assert built == []  # refused before any chart is built
        monkeypatch.undo()
        assert main([*argv, str(cli.MAX_TRIALS)]) == 0

    def test_points_above_the_budget(self, admitted, capsys):
        argv = ["check", "--vars", "x,y,z", "--map", "x2+yz;y2-xz;z2+xy", "-r", "4"]
        # 105 charts: strict-points judges 1000 * 105 points, overlap 1000 * 105 * 104
        assert main([*argv, "--trials", "1000"]) == 2
        assert capsys.readouterr().err == (
            f"error: --trials: 1000 trials on 105 charts judge 11025000 chart "
            f"points, more than {cli.MAX_POINTS}\n")
        # admitted, so the charts are built: the default 25 trials (275625
        # points), strict-points alone (1000 * 105) and a suite that judges
        # no points
        for extra in ([], ["--trials", "1000", "--suite", "strict"],
                      ["--trials", "1000", "--suite", "telescoping"]):
            with admitted():
                capture([*argv, *extra])

    def test_budget_admits_the_benchmark_checks(self, admitted):
        pool = json.loads((SRC.parent / "bench" / "reference.json").read_text())
        checks = [inv["argv"] for group in pool["workloads"]["corpus"]["groups"]
                  for inv in group if inv["argv"][0] == "check"]
        assert checks
        parser = build_parser()
        for argv in checks:
            spec = RunSpec.from_args(parser.parse_args(cli._glue_map_value(parser, argv)))
            with admitted():
                run(spec, io.StringIO())

    @pytest.mark.parametrize("argv, judged", [
        # even in every fiber variable: 3 antipodal witnesses per chart,
        # 27 strict points, each on the 2 other charts but one skipped
        (["--vars", "x,y,z", "--map", "x2;y2;z2", "-r", "2", "--trials", "6"], 27 + 53),
        (["--vars", "x,y", "--map", "x2;y2", "-r", "2", "--trials", "1"], None),
        ([*FAMILY, "-r", "2", "--trials", "4"], None),
        (["--vars", "x,y,z", "--map", "x2+yz;y2-xz;z2+xy", "-r", "3", "--trials", "2"],
         None),
    ])
    def test_budget_covers_the_points_judged(self, argv, judged, monkeypatch):
        budgets, points = [], []
        real_budget, real_judge = cli.judged_points, verify._judge
        monkeypatch.setattr(cli, "judged_points",
                            lambda *a: budgets.append(real_budget(*a)) or budgets[-1])
        monkeypatch.setattr(verify, "_judge",
                            lambda *a: points.append(a) or real_judge(*a))
        capture(["check", *argv, "--suite", "strict", "--suite", "overlap"])
        assert len(budgets) == 1 and budgets[0] >= len(points) > 0
        if judged is not None:
            assert len(points) == judged

    @pytest.mark.parametrize("argv, built", [
        # 105 charts, none read by the corank-one oracle
        (["--vars", "x,y,z", "--map", "x2+yz;y2-xz;z2+xy", "-r", "4",
          "--suite", "corank1"], 0),
        (["--vars", "x,y,z", "--map", "x2+yz;y2-xz;z2+xy", "-r", "3",
          "--suite", "corank1", "--suite", "kernel"], 15),
    ])
    def test_charts_built_only_for_suites_that_read_them(self, argv, built,
                                                         monkeypatch):
        calls = []
        real = cli.chart_equations
        monkeypatch.setattr(cli, "chart_equations",
                            lambda *a: calls.append(a) or real(*a))
        code, text = capture(["check", *argv, "--trials", "2"])
        assert code == 0 and "corank1: pass (2 trials, 0 failures)" in text
        assert len(calls) == built

    def test_antipodal_variable_decided_once_per_run(self, monkeypatch):
        # once for the point budget and once for the sampler, not once per chart
        calls = []
        real = verify.antipodal_variable

        def counted(f):
            calls.append(f)
            return real(f)

        monkeypatch.setattr(verify, "antipodal_variable", counted)
        code, _ = capture(["check", "--vars", "x,y,z", "--map", "x2;y2;z2",
                           "-r", "2", "--trials", "6"])
        assert code == 0 and len(calls) == 2

    def test_dim_without_fiber_target(self, capsys):
        # no generators: the zero ideal, whose dimension is the chart's
        assert main(["dim", "--vars", "t,x", "--map", "t", "--params", "1"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1:] == ["chart U(1): dimension 3, expected 3, correct"]

    def test_closed_stdout_exits_quietly(self):
        # stdout is a pipe whose reader is already gone, as after `| head`
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
        r, w = os.pipe()
        os.close(r)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "multipoint.cli", "eqs", *FAMILY,
                 "-r", "3"], stdout=w, stderr=subprocess.PIPE, env=env,
                timeout=60)
        finally:
            os.close(w)
        assert proc.returncode == 141
        assert proc.stderr == b""


class TestEqs:
    def test_text_shape(self):
        code, text = capture(["eqs", *FAMILY, "-r", "2"])
        assert code == 0
        assert "chart U(1)" in text and "chart U(2)" in text
        assert "away from l1 = 0" in text
        assert text.count("= 0") >= 8

    def test_chart_filter(self):
        _, text = capture(["eqs", *FAMILY, "-r", "2", "--chart", "2"])
        assert "U(2)" in text and "U(1)" not in text

    def test_json_generators_reparse(self):
        code, text = capture(["eqs", *FAMILY, "-r", "3", "--format", "json"])
        assert code == 0
        payload = json.loads(text)
        assert payload["schema"] == "kr-eqs/1"
        assert (payload["n"], payload["p"], payload["params"]) == (3, 4, 1)
        f = PolyMap.from_strings(["t", "x", "y"],
                                 ["t", "x2+ty", "y2", "xy-tx"],
                                 s="auto")
        direct = {eqs.chart.alpha: eqs
                  for eqs in kr_equations(f, 3, covering_collection(2, 3))}
        assert len(payload["charts"]) == 6
        for entry in payload["charts"]:
            table = VarTable(entry["vars"])
            eqs = direct[tuple(entry["alpha"])]
            parsed = [parse_poly(src, table) for src in entry["generators"]]
            assert parsed == list(eqs.generators)
            assert entry["exceptional"] == "l2"
            assert len(entry["projections"]) == 3
            for proj in entry["projections"]:
                assert len(proj) == 2

    @pytest.mark.parametrize("fmt", [[], ["--format", "json"]])
    def test_one_chart_alive_at_a_time(self, fmt, monkeypatch):
        built = []

        def build(*args):
            alive = [ref().chart.alpha for ref in built if ref() is not None]
            assert alive == [], f"still alive: {alive}"
            eqs = ideals.chart_equations(*args)
            built.append(weakref.ref(eqs))
            return eqs

        monkeypatch.setattr(cli, "chart_equations", build)
        code, _ = capture(["eqs", *TRIFOLD, *fmt])
        assert code == 0
        assert len(built) == 6

    @pytest.mark.parametrize("fmt", [[], ["--format", "json"]])
    def test_failure_on_a_later_chart_writes_nothing(self, fmt, monkeypatch, capsys):
        calls = []

        def build(*args):
            calls.append(args[3])
            if len(calls) == 2:
                raise DegreeBoundError(40000, 32767)
            return ideals.chart_equations(*args)

        monkeypatch.setattr(cli, "chart_equations", build)
        assert main(["eqs", *TRIFOLD, *fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "total degree 40000 exceeds the bound 32767" in captured.err
        assert len(calls) == 2


class TestCheck:
    def test_chart_filter(self):
        argv = ["check", *FAMILY, "-r", "3", "--suite", "telescoping"]
        assert "(36 trials," in capture(argv)[1]
        assert "(6 trials," in capture([*argv, "--chart", "1,1"])[1]

    def test_each_chain_built_once(self, monkeypatch):
        calls = {"ideals": 0, "verify": 0}

        def counted(module):
            original = module.difference_chain

            def wrapper(*args, **kwargs):
                calls[module.__name__.rsplit(".", 1)[1]] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, "difference_chain", wrapper)

        counted(ideals)
        counted(verify)
        code, _ = capture(["check", *FAMILY, "-r", "3", "--trials", "5",
                           "--seed", "3"])
        assert code == 0
        # one chain per chart for the suites, five for corank1's own maps
        assert calls == {"ideals": 6, "verify": 5}

    def test_level_zero_moved_once_per_order(self, monkeypatch):
        """The chains and the telescoping check's copy of the map each move
        the map's coordinates onto the order's chart table once, not once
        per chart (105 charts, 315 moves each); the kernel's own moves are
        the only ones ``verify`` makes."""
        calls = {divdiff: 0, verify: 0}
        for module in calls:
            def counted(*args, _module=module, _real=module.transplant):
                calls[_module] += 1
                return _real(*args)

            monkeypatch.setattr(module, "transplant", counted)
        code, out = capture(["check", *QUADRIC, "-r", "4", "--suite", "telescoping",
                             "--trials", "2"])
        assert code == 0 and out == "telescoping: pass (945 trials, 0 failures)\n"
        assert calls == {divdiff: 6, verify: 0}

    def test_no_fraction_level_for_eqs_or_dim(self, monkeypatch):
        """eqs, in either format, and dim build every chain component as
        int terms over a positive denominator in lowest terms."""
        chains = []
        real = ideals.difference_chain
        monkeypatch.setattr(ideals, "difference_chain",
                            lambda *args: chains.append(real(*args)) or chains[-1])
        for argv in (["eqs", *FAMILY, "-r", "3"],
                     ["eqs", *FAMILY, "-r", "3", "--format", "json"],
                     ["dim", *FAMILY, "-r", "2"]):
            del chains[:]
            code, out = capture(argv)
            assert code == 0 and out and chains
            for g in (g for chain in chains for level in chain.levels for g in level):
                assert g.den > 0 and all(type(c) is int for c in g.terms.values())
                assert math.gcd(g.den, *g.terms.values()) == 1

    def test_no_symbolic_projection(self, monkeypatch):
        # the point suites project each draw numerically with Chart.project
        calls = []
        real = ideals.projection_to_Xr

        def counting(chart):
            calls.append(chart)
            return real(chart)

        monkeypatch.setattr(ideals, "projection_to_Xr", counting)
        code, out = capture(["check", *FAMILY, "-r", "3", "--trials", "5",
                             "--seed", "3", "--suite", "all"])
        assert code == 0 and "strict-points: pass" in out
        assert calls == []


class TestSharedSample:
    """strict-points and overlap judge one sample per check run, drawn by
    the first of them and by no other suite."""

    ARGV = ["check", *FAMILY, "-r", "3", "--trials", "4", "--seed", "2"]

    def blocks(self, argv):
        """Each suite's summary line with its failure rows, by suite name."""
        code, out = capture(argv)
        blocks = {}
        for line in out.splitlines():
            if line.startswith(" "):
                blocks[name] += line + "\n"
            else:
                name = line.split(":")[0]
                blocks[name] = line + "\n"
        return code, blocks

    @pytest.fixture
    def draws(self, monkeypatch):
        calls = []
        real = verify._strict_configurations

        def counted(*args):
            calls.append(args[0])
            return real(*args)

        monkeypatch.setattr(verify, "_strict_configurations", counted)
        return calls

    @pytest.mark.parametrize("suites, draws_made", [
        (["strict"], 1),
        (["overlap"], 1),
        (["strict", "overlap"], 1),
        (["overlap", "strict"], 1),
        (["all"], 1),
        (["telescoping", "kernel"], 0),
    ])
    def test_one_draw_and_the_same_counts(self, suites, draws_made, draws):
        alone = {nm: self.blocks([*self.ARGV, "--suite", suite])[1][nm]
                 for suite, nm in [("strict", "strict-points"), ("overlap", "overlap")]}
        draws.clear()
        argv = [*self.ARGV, *[arg for nm in suites for arg in ("--suite", nm)]]
        code, blocks = self.blocks(argv)
        assert code == 0 and len(draws) == draws_made
        for nm, block in blocks.items():
            if nm in alone:
                assert block == alone[nm]
        assert "overlap: pass (24 trials, 0 failures, " in alone["overlap"]

    def test_zeroed_equations_keep_their_counts(self, monkeypatch, draws):
        # the zeroed-equations control of test_verify, through cmd_check
        def zeroed(*args):
            ce = real(*args)
            return dataclasses.replace(ce, generators=(Poly.zero(ce.chart.table),))

        real = cli.chart_equations
        monkeypatch.setattr(cli, "chart_equations", zeroed)
        code, out = capture(["check", *FAMILY, "-r", "3", "--trials", "3",
                             "--seed", "4"])
        assert code == 1 and len(draws) == 1
        assert "overlap: FAIL (18 trials, 71 failures, 19 skipped)" in out
        assert "strict-points: FAIL (18 trials, " in out

    def test_each_run_draws_its_own(self, draws):
        first = capture(self.ARGV)
        second = capture(self.ARGV)
        assert first == second and first[0] == 0
        assert len(draws) == 2 and draws[0] is not draws[1]


class TestAtlasBound:
    """A run without --chart refuses an atlas over MAX_CHARTS, and --chart
    entries are checked without building the atlas."""

    def run_fast(self, argv, flag, capsys):
        # cap the address space, so that code which does build the atlas
        # fails with MemoryError (exit 3) instead of exhausting the host
        soft, hard = resource.getrlimit(resource.RLIMIT_AS)
        with open("/proc/self/statm") as fh:
            used = int(fh.read().split()[0]) * resource.getpagesize()
        resource.setrlimit(resource.RLIMIT_AS, (used + (256 << 20), hard))
        try:
            start = time.perf_counter()
            code = main(argv)
            elapsed = time.perf_counter() - start
        finally:
            resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
        assert code == 2
        assert elapsed < 1.0
        assert capsys.readouterr().err.startswith(f"error: {flag}")

    def test_order_refused(self, capsys):
        # fiber 2 at order 9 has 9! = 362880 charts; fiber 3 at order 4,
        # the largest atlas the tests and the benchmark build, has 105
        assert chart_count(3, 4) <= cli.MAX_CHARTS < chart_count(2, 9)
        self.run_fast(["eqs", "--vars", "t,x,y", "--map",
                       "t;x2+ty;y2-tx;x3+y3+xy", "-r", "9"], "-r/--order:", capsys)

    def test_degree_above_the_bound_refused(self, capsys):
        # a packed monomial holds total degree 32767 at most
        self.run_fast(["eqs", "--vars", "x", "--map", "x^40000", "-r", "2"],
                      "--map: total degree 40000 exceeds the bound 32767", capsys)

    def test_chart_out_of_range_at_large_order(self, capsys):
        # fiber 3 at order 9 has 34459425 charts; none is built
        self.run_fast(["eqs", "--vars", "x,y,z", "--map", "x2+yz;y2-xz;z2+xy",
                       "-r", "9", "--chart", "99,1,1,1,1,1,1,1"], "--chart: no chart",
                      capsys)


def test_repeated_suite_runs_once():
    argv = ["check", "--vars", "t,x,y", "--map", "t;x2+ty;y2-tx;x3+y3+xy",
            "-r", "2", "--trials", "2", "--suite", "kernel"]
    once = capture(argv)
    assert once[1].count("diagonal-kernel") == 1
    assert capture([*argv, "--suite", "kernel"]) == once
    assert (capture([*argv, "--suite", "strict", "--suite", "kernel"])
            == capture([*argv, "--suite", "strict"]))


@pytest.mark.parametrize("argv", [
    ["check", *FAMILY, "-r", "3", "--trials", "3"],
    ["eqs", *FAMILY, "-r", "3"],
])
def test_repeated_chart_counts_once(argv):
    once = capture([*argv, "--chart", "1,1"])
    assert capture([*argv, "--chart", "1,1", "--chart", "1,1"]) == once
    assert capture([*argv, "--chart", "2,1", "--chart", "1,1",
                    "--chart", "2,1"]) == capture([*argv, "--chart", "2,1",
                                                   "--chart", "1,1"])


class TestDim:
    def test_identity_both_charts_empty(self):
        code, text = capture(["dim", "--vars", "x,y", "--map", "x;y", "-r", "2"])
        assert code == 0
        assert text.count("empty (unit ideal)") == 2

    def test_json(self):
        _, text = capture(["dim", "--vars", "x,y", "--map", "x;y",
                           "-r", "2", "--format", "json"])
        payload = json.loads(text)
        assert payload["schema"] == "kr-dim/1"
        assert [c["empty"] for c in payload["charts"]] == [True, True]
        assert [c["dimension"] for c in payload["charts"]] == [-1, -1]


class TestCharts:
    def test_count_six(self):
        _, text = capture(["charts", *FAMILY, "-r", "3"])
        assert text.startswith("6 charts")
        assert text.count("away from l2") == 6

    def test_json_count_one_dimensional(self):
        _, text = capture(["charts", "--vars", "x,y", "--map", "x;y3+xy",
                           "-r", "4", "--format", "json"])
        payload = json.loads(text)
        assert payload["schema"] == "kr-charts/1"
        assert payload["count"] == 1
        assert payload["charts"][0]["alpha"] == [1, 1, 1]


class TestCollectionFile:
    def test_file_collection(self, tmp_path):
        path = tmp_path / "forms.txt"
        path.write_text("# order two plane collection\n"
                        "1,0\n2\n"
                        "0,1\n1\n")
        code, text = capture(["eqs", *FAMILY, "-r", "2",
                              "--collection", str(path)])
        assert code == 0 and "chart U(2)" in text

    def test_file_collection_matches_builtin(self, tmp_path):
        path = tmp_path / "forms.txt"
        path.write_text("1,0\n2\n0,1\n1\n")
        builtin = capture(["eqs", *FAMILY, "-r", "2"])
        from_file = capture(["eqs", *FAMILY, "-r", "2",
                             "--collection", str(path)])
        assert builtin == from_file

    def test_order_exceeds_file_collection(self, tmp_path, capsys):
        path = tmp_path / "forms.txt"
        path.write_text("1,0\n2\n0,1\n1\n")
        assert main(["eqs", *FAMILY, "-r", "3",
                     "--collection", str(path)]) == 2

    def test_missing_file(self, capsys):
        assert main(["eqs", *FAMILY, "-r", "2",
                     "--collection", "/nonexistent/forms.txt"]) == 2

    def test_dependent_forms_outside_every_stacked_matrix(self, tmp_path, capsys):
        # forms 1, 2 and 4 span a plane; no form's stacked matrix holds all three
        path = tmp_path / "forms.txt"
        path.write_text("1,0,0\n2,3\n0,1,0\n3,4\n0,0,1\n4,5\n"
                        "1,1,0\n5,1\n1,2,3\n1,2\n")
        assert main(["charts", "--vars", "x,y,z", "--map", "x2;y2;z2", "-r", "2",
                     "--collection", str(path)]) == 2
        assert "forms 1, 2, 4 are linearly dependent" in capsys.readouterr().err


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["eqs", *FAMILY, "-r", "3"],
        ["eqs", *FAMILY, "-r", "3", "--format", "json"],
        ["dim", *FAMILY, "-r", "2"],
        ["check", *FAMILY, "-r", "2", "--trials", "3", "--seed", "5"],
    ])
    def test_byte_identical(self, argv):
        assert capture(argv) == capture(argv)

    def test_no_color_under_capture(self):
        _, text = capture(["eqs", *FAMILY, "-r", "2"])
        assert "\x1b[" not in text

    def test_color_only_on_tty(self, monkeypatch):
        from multipoint.cli import _styler

        class FakeTty(io.StringIO):
            def isatty(self):
                return True

        monkeypatch.delenv("MULTIPOINT_NO_COLOR", raising=False)
        assert _styler(FakeTty())("hi", "32") == "\x1b[32mhi\x1b[0m"
        monkeypatch.setenv("MULTIPOINT_NO_COLOR", "1")
        assert _styler(FakeTty())("hi", "32") == "hi"


TRIFOLD = ["--vars", "t,x,y", "--map", "t;x2+ty;y2-tx;x3+y3+xy", "-r", "3"]
FIBER3 = ["--vars", "x,y,z", "--map", "x2+yz;y2-xz;z2+xy", "-r", "3",
          "--collection", "vandermonde"]


class TestPinnedOutput:
    """Stdout digests of outputs that print nu and the projections, and of
    check runs over every suite (the second takes the antipodal-witness
    path)."""

    @pytest.mark.parametrize("argv, digest", [
        (["charts", *TRIFOLD],
         "605093fc56c16076b47ce1a061e0b7f46de67d22543700370ae9b7dab6783343"),
        (["charts", *FIBER3],
         "53eeec2e1a6478cebe85f4a6f52788feefa50bca3b080b68ef9c79eb4448f970"),
        (["dim", *TRIFOLD],
         "408c22a5c93dca915ea8382e3f5d28dd2e1ffbecda50f25bfe0cba47f8159fc4"),
        (["charts", *TRIFOLD, "--format", "json"],
         "7033132740ddbc6e0880198ffc26e7a0b4702af5217577201f103e56e222c2d9"),
        (["eqs", *TRIFOLD],
         "0d675a89b7f9467c3a8553e362982896e5d492fd81a0b9e5e0a3703f57950877"),
        (["charts", *FIBER3, "--format", "json"],
         "27769462033a691d32e688f552843d134fd5a55b6c05e92f16512632133597e4"),
        (["eqs", *FIBER3],
         "702e5854f0626e07fe2a4f03a4c1400ef00147c57cb1770fcf0f7ca280bbd50b"),
        (["check", *FAMILY, "-r", "3", "--trials", "5", "--seed", "3"],
         "bbef176936dc08c47b19661d858fa299faea9eca4d75ebd7c2edf7c976312879"),
        (["check", "--vars", "x,y", "--map", "x;y2", "-r", "2", "--trials", "5"],
         "e2f8e0677ff201d8a51096d9a2cdfa6f8318125eced29ed4fe78859fcec36376"),
        (["check", *FIBER3, "--trials", "3"],
         "33af15001274c0e516dc3f16aa9d59c3a3be07c50c410e2887c53aa748fc386d"),
        # three encoded levels, two of them kept per alpha prefix
        (["check", "--vars", "t,x,y", "--map", "t;x2+ty;y2-tx;x3+y3+xy", "-r", "4",
          "--suite", "overlap", "--suite", "strict", "--trials", "2"],
         "68d1865e86562ea51b802487c5ec3c14d55f9e6d31c362af6c0886de0301cb9d"),
        # depth-3 recursion of the projections, the second over inverses
        # with denominators 30, 2 and 2
        (["charts", "--vars", "t,x,y", "--map", "t;x2+ty;y2-tx;x3+y3+xy", "-r", "4",
          "--format", "json"],
         "395f93c0e1dcf961e5bf2bb3e021df8531464e4d3ad20ae91fd35589923f0805"),
        (["charts", "--vars", "x,y,z", "--map", "x2+yz;y2-xz;z2+xy", "-r", "4",
          "--collection", "vandermonde", "--chart", "7,5,3", "--chart", "1,1,1",
          "--format", "json"],
         "d2cf4718fd73946a9bd67cc6522394b0b7bf007acb9d2e02c4f2f8bc2c81133f"),
        # forms shared at levels 2 and 3, over inverses with denominators
        (["eqs", "--vars", "x,y,z", "--map", "x2+yz;y2-xz;z2+xy", "-r", "4",
          "--collection", "vandermonde", "--chart", "1,1,1", "--chart", "2,1,1",
          "--chart", "7,5,1", "--format", "json"],
         "a87f7895258b5771bdbd88ed416b3fedb3868ff852855096dd92d4a7ec3dd676"),
        (["eqs", "--vars", "x,y,z", "--map", "x2+yz;y2-xz;z2+xy", "-r", "4",
          "--collection", "vandermonde", "--chart", "1,1,1", "--chart", "7,5,1"],
         "2a52933c3e1c3e08dadad7d6d50eb575588edf4946dd15b4db3c6e6a66263116"),
        # the whole 105-chart atlas at -r 4
        (["eqs", *QUADRIC, "-r", "4", "--collection", "vandermonde", "--format", "json"],
         "055b514d2588b63fcd97764d81683f9a3bee43fb21e196390ddecd6c6ab5d3ff"),
        (["eqs", *QUADRIC, "-r", "4", "--collection", "vandermonde"],
         "68aa5209d154d9b50d327da54c030a5e8a0e1d670509aeb1185986b941674cf1"),
    ])
    def test_stdout_digest(self, argv, digest):
        code, text = capture(argv)
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    # 3x3 inverses of forms over denominators 1, 1, 1, 6 and 12; the
    # inverses are over 1, 6, 60, 17 and 3
    RATIONAL_FIBER3 = ("1,0,0\n2,3\n0,1,0\n3,4\n0,0,1\n4,5\n"
                       "1,1/2,1/3\n5,1\n1,-1/3,1/4\n1,2\n")

    @pytest.mark.parametrize("argv, digest", [
        (["charts", "--format", "json"],
         "45789a58f770903cdf77fa1fbb5799a5799d21a7973c674ed2ec30675e000e91"),
        (["charts"],
         "33947a6f02a3f458ab96184fb5a876a095730d51b8d4a9c2245db25c6682746e"),
        (["eqs", "--format", "json"],
         "db2b386d6ab121d990196ab541608817a618df4c6d18af4c0e7635e454d67350"),
        (["check", "--trials", "2"],
         "39490617037a7f5a4d4283f84bc382b44ca950e8f577489fbaa94535ad2ec1fe"),
    ])
    def test_rational_fiber3_collection_digest(self, tmp_path, argv, digest):
        path = tmp_path / "forms.txt"
        path.write_text(self.RATIONAL_FIBER3)
        command, *flags = argv
        code, text = capture([command, *QUADRIC, "-r", "3",
                              "--collection", str(path), *flags])
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestDimFlags:
    def test_correct_and_not_correct(self):
        _, text = capture(["dim", "--vars", "t,x,y",
                           "--map", "t;x2+ty;y2-tx;x3+y3+xy", "-r", "3",
                           "--chart", "1,1", "--chart", "1,2"])
        assert "chart U(1,1): dimension 1, expected 1, correct" in text
        assert "chart U(1,2): dimension 2, expected 1, NOT correct" in text

    def test_json_correct_flag(self):
        _, text = capture(["dim", "--vars", "t,x,y",
                           "--map", "t;x2+ty;y2-tx;x3+y3+xy", "-r", "3",
                           "--format", "json"])
        payload = json.loads(text)
        by_alpha = {tuple(c["alpha"]): c for c in payload["charts"]}
        assert by_alpha[(1, 1)]["correct"] is True
        assert by_alpha[(1, 2)]["correct"] is False

    def test_json_empty_chart_has_null_correct(self):
        _, text = capture(["dim", "--vars", "x,y", "--map", "x;y",
                           "-r", "2", "--format", "json"])
        payload = json.loads(text)
        assert all(c["correct"] is None for c in payload["charts"])


class TestChartsMetadata:
    def test_levels_and_projections(self):
        _, text = capture(["charts", "--vars", "t,x,y",
                           "--map", "t;x2+ty;y2-tx;x3+y3+xy", "-r", "3",
                           "--chart", "1,1"])
        assert "level 1: form x, companions (y); nu = (l1, l1*a1)" in text
        assert "x^(2) = (x+l1+l2," in text

    def test_json_levels(self):
        _, text = capture(["charts", "--vars", "t,x,y",
                           "--map", "t;x2+ty;y2-tx;x3+y3+xy", "-r", "3",
                           "--format", "json", "--chart", "3,1"])
        entry = json.loads(text)["charts"][0]
        assert entry["levels"][0]["form"] == "x+y"
        assert entry["levels"][0]["companions"] == ["x"]
        assert len(entry["projections"]) == 3

    def test_cumulative_sums_fiber_one(self):
        _, text = capture(["charts", "--vars", "x", "--map", "x;x3", "-r", "4"])
        assert "x^(3) = (x+l1+l2+l3)" in text

    def test_rational_forms_reparse(self, tmp_path):
        path = tmp_path / "forms.txt"
        path.write_text("1,0\n2\n-1/2,1\n1\n")
        argv = ["charts", "--vars", "x,y", "--map", "x2;y2", "-r", "2",
                "--collection", str(path)]
        table = VarTable(["x", "y"])
        x, y = (parse_poly(nm, table) for nm in "xy")
        h = y - Fraction(1, 2) * x
        _, text = capture(argv)
        printed = []
        for line in text.splitlines():
            if "level 1: form " in line:
                form, rest = line.split("level 1: form ")[1].split(", companions (")
                printed += [form, rest.split("); nu")[0]]
        _, text = capture([*argv, "--format", "json"])
        for entry in json.loads(text)["charts"]:
            level = entry["levels"][0]
            printed += [level["form"], *level["companions"]]
        # U(1): form x, companion h; U(2): form h, companion x
        assert [parse_poly(src, table) for src in printed] == [x, h, h, x] * 2


class TestFlagNamedErrors:
    def check(self, argv, flag, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert flag in err, err

    def test_map_flag(self, capsys):
        self.check(["eqs", "--vars", "x,y", "--map", "x;y("], "--map", capsys)

    def test_map_nested_too_deep(self, capsys):
        # well-formed, but deeper than the parser's bound of 100
        src = "(" * 300 + "x" + ")" * 300
        self.check(["eqs", "--vars", "x", "--map", src, "-r", "2"],
                   "error: --map: parentheses nested deeper than 100", capsys)

    def test_map_literal_past_the_digit_limit(self, capsys):
        # well-formed, but longer than Python converts to an int
        self.check(["eqs", "--vars", "x", "--map", "7" * 5000 + "*x^2", "-r", "2"],
                   "error: --map: integer literal of 5000 digits, more than 4300",
                   capsys)

    @pytest.mark.parametrize("src", ["x\u00b2", "x^\u00b2"])
    def test_map_with_a_non_ascii_digit(self, src, capsys):
        self.check(["eqs", "--vars", "x", "--map", src, "-r", "2"], "--map", capsys)

    def test_vars_flag(self, capsys):
        self.check(["eqs", "--vars", "x,x", "--map", "x;x"], "--vars", capsys)

    def test_params_flag(self, capsys):
        self.check(["eqs", "--vars", "x,y", "--map", "x;y2", "--params", "9"],
                   "--params", capsys)

    def test_order_flag(self, capsys):
        self.check(["eqs", "--vars", "x,y", "--map", "x;y2", "-r", "1"],
                   "--order", capsys)

    def test_chart_flag(self, capsys):
        self.check(["eqs", "--vars", "x,y", "--map", "x;y2", "--chart", "5"],
                   "--chart", capsys)

    def test_collection_flag(self, capsys):
        self.check(["eqs", "--vars", "x,y", "--map", "x;y2",
                    "--collection", "/nope.txt"], "--collection", capsys)

    def test_collection_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "forms.bin"
        path.write_bytes(bytes(range(128, 256)))
        self.check(["eqs", "--vars", "x,y", "--map", "x;y2",
                    "--collection", str(path)], "--collection", capsys)
