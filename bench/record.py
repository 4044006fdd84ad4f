"""Build the benchmark's reference pool: ``python3 bench/record.py``.

Generates each workload's candidate invocations from a fixed pool seed, runs
every one in process, and writes ``reference.json`` with its argv, exit code,
stdout digest and measured time.  The candidates are timed in turn, as a
pass runs them.  Within each stratum (fiber dimension, order) candidates
are paired by measured time, and the closest pairs are kept, so that ``run.py --seed`` can swap one map of a pair for the other
without changing much how much work a pass does.

Run it only on a commit whose outputs are trusted: its digests are what
every later run is checked against.
"""

from __future__ import annotations

import json
import platform
import os
import random
import statistics
import time

import harness
import hostspeed
import run

POOL_SEED = 1811_07359
CHECK_ARGS = ("--suite", "all", "--seed", "7", "--trials", "12")
TRIFOLD = ("--vars", "t,x,y", "--map=t;x2+ty;y2-tx;x3+y3+xy", "-r", "3")

# A pair slower than this keeps one map: the maps that dominate wall_s are
# fixed, and the seed chooses among the cheap ones that set call_s_p50.
FIXED_ABOVE_S = 0.3
MEASURE_ROUNDS = 9

# (fiber dimension, order, maps per pass)
EQS_STRATA = ((1, 2, 3), (1, 3, 3), (1, 4, 3), (2, 2, 4), (2, 3, 4), (2, 4, 2),
              (3, 2, 4), (3, 3, 2))
CHECK_STRATA = ((2, 3, 8), (3, 3, 2))


def map_argv(f, s: int, r: int) -> list[str]:
    # --map=<value>: a map starting with '-' would be read as an option
    return ["--vars", ",".join(f.table.names),
            "--map=" + ";".join(str(c) for c in f.coords),
            "--params", str(s), "-r", str(r)]


def outcome(cli, argv: list[str]) -> dict:
    """Exit code and stdout digest of one invocation, which must exit 0."""
    rc, stdout = harness.execute(cli, harness.parse(cli, argv))
    if rc != 0:
        raise SystemExit(f"exit {rc}: {' '.join(argv)}")
    return {"argv": argv, "rc": rc, "sha256": harness.digest(stdout), "stdout": stdout}


def measure_in_turn(cli, entries: list[dict], speed: hostspeed.HostSpeed) -> None:
    """Set each entry's ``ref_s``: the median of its times at the reference
    host speed.  The entries run in turn, as a benchmark pass runs them: an
    invocation run between others can take a third longer than the same
    invocation repeated on its own.  Each runs at least twice, and while it
    is faster than ``run.FAST_S``, ``MEASURE_ROUNDS`` times.  Every run must
    repeat the entry's output."""
    specs = [harness.parse(cli, entry["argv"]) for entry in entries]
    spans: list[list[tuple[float, float]]] = [[] for _ in entries]
    for done in range(MEASURE_ROUNDS):
        for entry, spec, taken in zip(entries, specs, spans):
            if done >= 2 and min(e - b for b, e in taken) >= run.FAST_S:
                continue
            speed.read_if_due()
            began = time.perf_counter()
            rc, stdout = harness.execute(cli, spec)
            taken.append((began, time.perf_counter()))
            if (rc, harness.digest(stdout)) != (entry["rc"], entry["sha256"]):
                raise SystemExit(f"unstable output: {' '.join(entry['argv'])}")
    speed.read()
    for entry, taken in zip(entries, spans):
        entry["ref_s"] = round(statistics.median(speed.scaled(b, e) for b, e in taken), 6)


def matched_pairs(entries: list[dict], count: int) -> list[list[dict]]:
    """The ``count`` disjoint pairs of adjacent cost with the smallest ratio."""
    entries = sorted(entries, key=lambda e: e["ref_s"])
    gaps = sorted(range(len(entries) - 1),
                  key=lambda i: entries[i + 1]["ref_s"] / entries[i]["ref_s"])
    taken: set[int] = set()
    pairs = []
    for i in gaps:
        if i in taken or i + 1 in taken:
            continue
        taken |= {i, i + 1}
        pairs.append([entries[i], entries[i + 1]])
        if len(pairs) == count:
            return pairs
    raise SystemExit(f"only {len(pairs)} disjoint pairs, need {count}")


def corpus(cli, speed, rng: random.Random) -> list:
    """Candidates of every stratum, timed in turn together, then paired
    within each stratum."""
    from multipoint.verify import SampleConfig, rand_polymap

    cfg = SampleConfig(seed=1, trials=1, coeff_bound=3, degree_bound=3)
    strata = []  # (label, pairs wanted, candidates)
    for table, command in ((EQS_STRATA, ("eqs", "--format", "json")),
                           (CHECK_STRATA, ("check", *CHECK_ARGS))):
        for fib, r, count in table:
            entries = []
            for _ in range(4 * count):
                s = rng.randint(0, 1)
                f = rand_polymap(rng, s + fib, rng.randint(s + 1, 5), s, cfg)
                entries.append(outcome(cli, [command[0], *map_argv(f, s, r),
                                             *command[1:]]))
            strata.append((f"{command[0]} fiber {fib} order {r}", count, entries))
    measure_in_turn(cli, [e for _, _, entries in strata for e in entries], speed)
    groups = []
    for label, count, entries in strata:
        pairs = matched_pairs(entries, count)
        print(f"{label}: " + ", ".join(
            f"{a['ref_s']:.4f}/{b['ref_s']:.4f}" for a, b in pairs), flush=True)
        groups.extend(pair[:1] if pair[1]["ref_s"] > FIXED_ABOVE_S else pair
                      for pair in pairs)
    return groups


def trifold(cli, speed) -> list:
    groups = []
    for alpha, dim in harness.TRIFOLD_GOLDEN.items():
        argv = ["dim", *TRIFOLD, "--chart", ",".join(map(str, alpha)),
                "--format", "json"]
        entry = outcome(cli, argv)
        if harness.dim_of(entry["stdout"]) != dim:
            raise SystemExit(f"U{alpha}: dimension is not the golden {dim}")
        entry["golden_dim"] = dim
        groups.append([entry])
    measure_in_turn(cli, [group[0] for group in groups], speed)
    for alpha, group in zip(harness.TRIFOLD_GOLDEN, groups):
        print(f"dim U{alpha}: {group[0]['ref_s']:.3f}", flush=True)
    return groups


def main() -> None:
    cli = harness.load_cli()
    rng = random.Random(POOL_SEED)
    speed = hostspeed.HostSpeed()
    workloads = {
        "corpus": corpus(cli, speed, rng),
        "dim_trifold": trifold(cli, speed),
    }
    for groups in workloads.values():
        for group in groups:
            for entry in group:
                del entry["stdout"]
    reference = {
        "pool_seed": POOL_SEED,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workloads": {name: {"groups": groups} for name, groups in workloads.items()},
    }
    with open(harness.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
