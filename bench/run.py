"""The repository's benchmark.

    python3 bench/run.py --workload corpus --seed 1 --seconds 50 --trace 0

Drives ``multipoint.cli.run`` in process (one process, ``--jobs 1``) over the
invocations the seed selects from ``reference.json``, checks every output
against the digest recorded on the seed commit, and prints one JSON line
last.  ``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, with
times stated at a reference host speed (see ``hostspeed.py``);
``--trace 1`` runs one untraced pass and then traced passes, and reports the
per-layer metrics.  See README.md for the workloads and what each metric
should move.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time

import harness
import hostspeed
import spans

SETUP_REPEATS = 21
SWEEP_EVERY_S = 1.0
FAST_S = 0.1
SPANS_DIR = harness.HERE / "out"


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0


class SetupProbe:
    """``setup_s`` samples: seconds to import ``multipoint.cli`` and parse every
    invocation, each in a fresh interpreter, with the interval each ran in.
    The first call only warms the bytecode cache and is not kept."""

    def __init__(self, invocations):
        self.lines = "\n".join("\x1f".join(inv.argv) for inv in invocations)
        self.argv = [sys.executable, str(harness.HERE / "setup_probe.py"),
                     str(harness.SRC)]
        self.times: list[tuple[float, float, float]] = []  # (start, end, seconds)
        self._probe()

    def _probe(self) -> float:
        done = subprocess.run(self.argv, input=self.lines, capture_output=True,
                              text=True, timeout=120, check=True)
        return float(done.stdout)

    def take(self) -> None:
        start = time.perf_counter()
        seconds = self._probe()
        self.times.append((start, time.perf_counter(), seconds))


def run_one(cli, inv, spec, tally: Tally) -> int:
    """Run and check one invocation; stdout bytes."""
    rc, stdout = harness.execute(cli, spec)
    tally.attempted += 1
    tally.failed += harness.failed(inv, rc, stdout)
    return len(stdout.encode("utf-8"))


def run_pass(cli, invocations, specs, tally: Tally) -> tuple[float, int]:
    """One pass over the invocations; wall seconds and stdout bytes."""
    start = time.perf_counter()
    out_bytes = sum(run_one(cli, inv, spec, tally)
                    for inv, spec in zip(invocations, specs))
    return time.perf_counter() - start, out_bytes


def passes(seconds: float, one_pass) -> list:
    """Repeat ``one_pass`` while another pass of the last one's length fits."""
    deadline = time.perf_counter() + seconds
    results = []
    while True:
        results.append(one_pass())
        if time.perf_counter() + results[-1][0] > deadline:
            return results


def untraced(cli, invocations, specs, seconds, tally,
             setup: SetupProbe) -> tuple[dict, list[list[float]], hostspeed.HostSpeed]:
    """End-to-end metrics, and each invocation's latencies at the reference
    host speed.

    Cycles through the invocations: always one whole pass, then on, skipping
    each invocation whose last latency no longer fits in ``seconds``, until
    none fits.  At most every ``SWEEP_EVERY_S`` between two invocations of
    the cycle, a sweep samples once more each invocation faster than
    ``FAST_S``, so that the cheap invocations that set ``call_s_p50`` are
    sampled all through the run rather than in one stretch of it.  The
    ``setup_s`` interpreters run between invocations too, spread evenly over
    the run; their time is not counted in ``seconds``.

    Every time is scaled to the reference host speed (see ``hostspeed``).
    Each invocation's latency is the median of its samples; ``wall_s`` is
    the sum of these latencies and ``call_s_p50`` their median, and
    ``setup_s`` is the median of the interpreters' times.
    """
    speed = hostspeed.HostSpeed()
    spans_of: list[list[tuple[float, float]]] = [[] for _ in invocations]
    start = time.perf_counter()
    deadline = start + seconds
    last_sweep = start

    def last(k: int) -> float:
        began, ended = spans_of[k][-1]
        return ended - began

    def sample(k: int) -> None:
        nonlocal start, deadline
        while (len(setup.times) < SETUP_REPEATS and time.perf_counter() - start
               >= len(setup.times) * seconds / SETUP_REPEATS):
            began = time.perf_counter()
            setup.take()
            start += time.perf_counter() - began
            deadline += time.perf_counter() - began
        speed.read_if_due()
        if spans_of[k] and time.perf_counter() + last(k) > deadline:
            return
        began = time.perf_counter()
        run_one(cli, invocations[k], specs[k], tally)
        spans_of[k].append((began, time.perf_counter()))

    while not spans_of[0] or time.perf_counter() + min(map(last, range(len(invocations)))) <= deadline:
        for k in range(len(invocations)):
            sample(k)
            if time.perf_counter() - last_sweep >= SWEEP_EVERY_S:
                last_sweep = time.perf_counter()
                for j in range(len(invocations)):
                    if spans_of[j] and min(e - b for b, e in spans_of[j]) < FAST_S:
                        sample(j)
    while len(setup.times) < SETUP_REPEATS:
        setup.take()
    speed.read()
    samples = [[speed.scaled(b, e) for b, e in spans] for spans in spans_of]
    per_call = [statistics.median(s) for s in samples]
    return {
        "wall_s": sum(per_call),
        "call_s_p50": statistics.median(per_call),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(
            took * speed.scaled(b, e) / (e - b) for b, e, took in setup.times),
    }, samples, speed


def traced_pass(cli, invocations, specs, tally) -> tuple[float, spans.Tracer, dict, dict]:
    """One pass with every public function wrapped: wall, tracer, times, counts."""
    tracer = spans.Tracer()
    with spans.installed(tracer):
        wall, out_bytes = run_pass(cli, invocations, specs, tally)
    times, counts = tracer.metrics()
    counts["cli.out_bytes"] = out_bytes
    return wall, tracer, times, counts


def traced(cli, invocations, specs, seconds, tally, spans_path) -> tuple[dict, bool]:
    """Per-layer metrics, and whether every traced pass gave the same counts."""
    start = time.perf_counter()
    plain, _ = run_pass(cli, invocations, specs, tally)
    runs = passes(seconds - (time.perf_counter() - start),
                  lambda: traced_pass(cli, invocations, specs, tally))
    spans_path.parent.mkdir(exist_ok=True)
    runs[-1][1].write(spans_path)
    metrics = {name: statistics.median(times[name] for _, _, times, _ in runs)
               for name in runs[0][2]}
    metrics.update(runs[0][3])
    metrics["trace.overhead_s"] = statistics.median(run[0] for run in runs) - plain
    repeat = all(run[3] == runs[0][3] for run in runs)
    return metrics, repeat


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=harness.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        cli = harness.load_cli()
        reference = harness.load_reference()
        with open(harness.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            declared = json.load(fh)
    except (harness.ProgramMissing, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    invocations = harness.select(reference, args.workload, args.seed)
    specs = [harness.parse(cli, inv.argv) for inv in invocations]
    tally = Tally()
    label = f"{args.workload} seed {args.seed}"
    if args.trace:
        path = SPANS_DIR / f"{args.workload}-{args.seed}.spans.tsv"
        values, repeat = traced(cli, invocations, specs, args.seconds, tally, path)
        wanted = declared["per_layer"]
        print(f"{label}: traced, counts repeat across passes: {repeat}")
    else:
        setup = SetupProbe(invocations)
        values, samples, speed = untraced(cli, invocations, specs, args.seconds,
                                          tally, setup)
        wanted = declared["end_to_end"]
        repeat = True
        counts = sorted({len(s) for s in samples})
        print(f"{label}: {len(invocations)} invocations, {tally.attempted} calls, "
              f"{counts[0]}-{counts[-1]} samples each; wall_s is the sum and "
              f"call_s_p50 the median of their median latencies, at the reference host speed")
        print(f"{label}: setup_s median of {len(setup.times)} fresh interpreters "
              f"(raw [{', '.join(f'{s:.4f}' for _, _, s in setup.times)}])")
        took = sorted(speed.took)
        print(f"{label}: reference task {took[0] * 1e3:.3f}-{took[-1] * 1e3:.3f} ms, "
              f"median {statistics.median(took) * 1e3:.3f} ms, in {len(took)} readings; "
              f"times are scaled to {hostspeed.REFERENCE_S * 1e3:g} ms")
    error_rate = tally.failed / tally.attempted
    print(f"{label}: error_rate {error_rate:g} ({tally.failed} failed of "
          f"{tally.attempted} attempted)")
    for metric in wanted:
        print(f"  {metric['name']:32s} {values[metric['name']]:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": tally.failed == 0 and repeat,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
