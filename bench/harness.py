"""Shared pieces of the benchmark: loading the program, choosing a workload's
invocations from the reference pool, running one invocation in process and
checking its output against the reference.

The program is always imported from ``src/`` of the checkout that holds this
directory, never from an installed copy.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

WORKLOADS = ("corpus", "dim_trifold")

# Paper's trifold cone at r=3: Krull dimension of each chart, U(1,1)..U(3,2).
TRIFOLD_GOLDEN = {(1, 1): 1, (1, 2): 2, (2, 1): 1, (2, 2): 2, (3, 1): 1, (3, 2): 2}


class ProgramMissing(Exception):
    """The checkout holds no multipoint sources to benchmark."""


def load_cli():
    """Import ``multipoint.cli`` from this checkout's ``src/``."""
    if not (SRC / "multipoint" / "cli.py").is_file():
        raise ProgramMissing(f"no multipoint sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from multipoint import cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise ProgramMissing(f"multipoint imported from {cli.__file__}, not {SRC}")
    return cli


@dataclass(frozen=True)
class Invocation:
    """One command line plus the outcome recorded for it on the seed commit."""

    argv: tuple[str, ...]
    rc: int
    sha256: str
    golden_dim: int | None = None


def load_reference(path: Path = REFERENCE) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def select(reference: dict, workload: str, seed: int) -> list[Invocation]:
    """The workload's invocations for one seed.

    The pool groups maps whose recorded costs match; the seed picks one map
    from each group and shuffles the order, so different seeds run different
    maps while a pass does about the same amount of work.  A workload whose
    groups hold one invocation each has fixed inputs and keeps its order.
    """
    rng = random.Random(f"{workload}/{seed}")
    picked = []
    for group in reference["workloads"][workload]["groups"]:
        entry = group[rng.randrange(len(group))]
        picked.append(Invocation(argv=tuple(entry["argv"]), rc=entry["rc"],
                                 sha256=entry["sha256"],
                                 golden_dim=entry.get("golden_dim")))
    if len(picked) < sum(map(len, reference["workloads"][workload]["groups"])):
        rng.shuffle(picked)
    return picked


def parse(cli, argv) -> object:
    """Turn one command line into the program's ``RunSpec``."""
    return cli.RunSpec.from_args(cli.build_parser().parse_args(list(argv)))


def execute(cli, spec) -> tuple[int, str]:
    """Run one parsed invocation; exit code and stdout, mapped as ``cli.main`` does."""
    out = io.StringIO()
    try:
        rc = cli.run(spec, out)
    except (cli.CliError, cli.PolyError, ValueError, OSError):
        rc = 2
    except Exception:  # an internal error is a failed invocation, not a crash
        rc = 1
    return rc, out.getvalue()


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode("utf-8")).hexdigest()


def dim_of(stdout: str) -> int | None:
    """Dimension reported by a single-chart ``dim --format json`` run."""
    try:
        charts = json.loads(stdout)["charts"]
    except (ValueError, KeyError, TypeError):
        return None
    return charts[0]["dimension"] if len(charts) == 1 else None


def failed(inv: Invocation, rc: int, stdout: str) -> bool:
    """True when exit code, stdout digest or golden dimension is wrong."""
    if rc != inv.rc or digest(stdout) != inv.sha256:
        return True
    return inv.golden_dim is not None and dim_of(stdout) != inv.golden_dim
