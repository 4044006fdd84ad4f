"""The benchmark's own checks: ``python3 -m pytest bench/test_bench.py``.

They run real passes, about two minutes in all.
"""

import json
import shutil
import subprocess
import sys

import pytest

import harness
import hostspeed
import run
import spans

SEED = 3


@pytest.fixture(scope="module")
def cli():
    return harness.load_cli()


@pytest.fixture(scope="module")
def reference():
    return harness.load_reference()


def test_pool_entries_pass_map_as_one_argument(reference):
    for workload in harness.WORKLOADS:
        for group in reference["workloads"][workload]["groups"]:
            for entry in group:
                assert entry["rc"] == 0
                assert "--map" not in entry["argv"]
                assert sum(a.startswith("--map=") for a in entry["argv"]) == 1


def test_corrupt_telescoping_is_counted_as_failed(cli, reference):
    entry = next(group[0] for group in reference["workloads"]["corpus"]["groups"]
                 if group[0]["argv"][0] == "check")
    argv = list(entry["argv"])
    at = argv.index("--suite")
    argv[at:at + 2] = ["--suite", "telescoping"]
    rc, stdout = harness.execute(cli, harness.parse(cli, argv))
    assert rc == 0
    inv = harness.Invocation(tuple(argv), rc, harness.digest(stdout))

    tally = run.Tally()
    run.run_pass(cli, [inv], [harness.parse(cli, argv + ["--corrupt"])], tally)
    assert (tally.attempted, tally.failed) == (1, 1)


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_every_invocation_exits_zero_and_counts_repeat(cli, reference, workload):
    invocations = harness.select(reference, workload, SEED)
    specs = [harness.parse(cli, inv.argv) for inv in invocations]
    for inv, spec in zip(invocations, specs):
        rc, stdout = harness.execute(cli, spec)
        assert rc == 0, inv.argv
        assert not harness.failed(inv, rc, stdout), inv.argv

    tally = run.Tally()
    _, _, times, first = run.traced_pass(cli, invocations, specs, tally)
    second = run.traced_pass(cli, invocations, specs, tally)[3]
    assert tally.failed == 0
    assert first == second
    assert first["cli.out_bytes"] > 0
    assert_layers_fire(workload, times, first)


def assert_layers_fire(workload, times, counts):
    """The split each workload was chosen for: a wrapper that no longer sees
    its calls would read 0 and pass its time to the caller unnoticed."""
    if workload == "dim_trifold":
        assert counts["ideals.groebner_calls"] == len(harness.TRIFOLD_GOLDEN)
        assert times["ideals.groebner_s"] > 0
        assert counts["ideals.basis_elems"] > 0
        assert counts["polyring.evaluate_calls"] == 0
        assert counts["verify.trials"] == 0
        return
    assert counts["ideals.groebner_calls"] == 0
    assert times["ideals.groebner_s"] == 0
    for name in ("atlas.build_chart_calls", "divdiff.chain_calls",
                 "polyring.substitute_calls", "polyring.evaluate_calls",
                 "verify.trials"):
        assert counts[name] > 0, name
    for name in ("polyring.render_s", "polyring.evaluate_s", "verify.telescoping_s",
                 "verify.strict_s", "verify.overlap_s", "verify.kernel_s",
                 "verify.corank1_s"):
        assert times[name] > 0, name


def test_suites_that_hold_wrapped_functions_are_traced(cli, monkeypatch):
    from multipoint import verify

    monkeypatch.setitem(verify.SUITES, "strict", verify.check_strict_points)
    with spans.installed(spans.Tracer()):
        assert verify.SUITES["strict"] is verify.check_strict_points
        assert verify.SUITES["strict"].__name__ == "traced"
    assert verify.SUITES["strict"].__name__ == "check_strict_points"


def test_seed_changes_maps_not_amount_of_work(reference):
    a = harness.select(reference, "corpus", 1)
    b = harness.select(reference, "corpus", 2)
    assert a == harness.select(reference, "corpus", 1)
    assert {inv.argv for inv in a} != {inv.argv for inv in b}
    assert len(a) == len(b)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(harness.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "corpus",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    for line in done.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)


def test_times_are_scaled_by_the_readings_around_them():
    speed = hostspeed.HostSpeed()
    speed.at, speed.took = [1.0, 2.0, 5.0], [0.001, 0.002, 0.004]
    ref = hostspeed.REFERENCE_S
    # between the readings at 2 and 5: mean reading 0.003
    assert speed.scaled(2.5, 4.0) == pytest.approx(1.5 * ref / 0.003)
    # inside one gap of readings, and past the last reading
    assert speed.scaled(1.2, 1.4) == pytest.approx(0.2 * ref / 0.0015)
    assert speed.scaled(6.0, 7.0) == pytest.approx(ref / 0.004)
