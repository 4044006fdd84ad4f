"""Command line front end.

Subcommands:
  eqs     print the local defining equations, chart by chart
  dim     Groebner dimension of those equations in each chart
  charts  list the chart atlas: forms, companions, substitutions, projections
  check   run the property suites against a map

Charts run one after another in atlas order.  ``eqs`` holds one chart's
equations at a time, rendered and dropped before the next is built, and
writes stdout once, after the last chart, so a failure leaves it empty.  A
map that starts with '-' may follow ``--map`` split or joined (``--map=...``).
All output is a pure function of the parsed invocation, byte for byte, so
runs can be diffed or cached.  Exit codes: 0 success, 1 verification failure,
2 bad input (an integer literal past Python's 4300 digits included), 3
internal error, 141 stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from dataclasses import dataclass

from .atlas import (
    STRATEGIES,
    CoveringCollection,
    chart_count,
    collection_from_file,
    covering_collection,
    index_bound,
    multi_indices,
    projection_to_Xr,
)
from .divdiff import MapFormError, PolyMap
from .ideals import chart_equations, dimension, expected_dimension, is_unit_ideal
from .polyring import PolyError, VarTable
from .verify import SUITES, CheckRun, SampleConfig, judged_points

MAX_CHARTS = 1000  # atlas size a run without --chart may build
MAX_TRIALS = 1000  # --trials a check run may ask for: strict points per chart, corank-one maps
MAX_POINTS = 500_000  # chart points the point suites of a check run may judge


class CliError(Exception):
    """Bad input, attributed to the flag that carried it."""


@dataclass(frozen=True)
class RunSpec:
    """Everything that determines one run's output."""

    command: str
    var_names: tuple[str, ...]
    coords: tuple[str, ...]
    params: str
    order: int
    collection: str
    fmt: str
    charts: tuple[tuple[int, ...], ...]
    suites: tuple[str, ...]
    seed: int
    trials: int
    corrupt: bool = False

    @classmethod
    def from_args(cls, ns: argparse.Namespace) -> "RunSpec":
        try:
            charts = tuple(tuple(int(part) for part in spec.split(","))
                           for spec in (ns.chart or ()))
        except ValueError as exc:
            raise CliError(f"--chart: {exc}") from None
        suites = tuple(getattr(ns, "suite", ()) or ("all",))
        return cls(
            command=ns.command,
            var_names=tuple(nm.strip() for nm in ns.vars.split(",")),
            coords=tuple(src.strip() for src in ns.map.split(";")),
            params=ns.params,
            order=ns.order,
            collection=ns.collection,
            fmt=getattr(ns, "format", "text"),
            charts=charts,
            suites=suites,
            seed=getattr(ns, "seed", 0),
            trials=getattr(ns, "trials", 25),
            corrupt=getattr(ns, "corrupt", False),
        )


def _styler(stream):
    if os.environ.get("MULTIPOINT_NO_COLOR") or not stream.isatty():
        return lambda text, code: text
    return lambda text, code: f"\x1b[{code}m{text}\x1b[0m"


def _build_map(spec: RunSpec) -> PolyMap:
    if spec.order < 2:
        raise CliError(f"-r/--order: must be at least 2, got {spec.order}")
    try:
        table = VarTable(list(spec.var_names))
    except (PolyError, ValueError) as exc:
        raise CliError(f"--vars: {exc}") from None
    if spec.params == "auto":
        s = "auto"
    else:
        try:
            s = int(spec.params)
        except ValueError:
            raise CliError(
                f"--params: expected an integer or auto, got {spec.params!r}"
            ) from None
    try:
        from .polyring import parse_poly
        coords = [parse_poly(src, table) for src in spec.coords]
    except PolyError as exc:  # a syntax error, or a degree above the bound
        raise CliError(f"--map: {exc}") from None
    try:
        return PolyMap(table, coords, s=s)
    except (MapFormError, PolyError) as exc:
        raise CliError(f"--params: {exc}") from None


def _build_collection(spec: RunSpec, f: PolyMap) -> CoveringCollection:
    try:
        if spec.collection in STRATEGIES:
            return covering_collection(f.fiber_dim, spec.order, spec.collection)
        cc = collection_from_file(spec.collection)
    except (PolyError, OSError, UnicodeDecodeError) as exc:
        raise CliError(f"--collection: {exc}") from None
    if cc.n != f.fiber_dim:
        raise CliError(f"--collection: collection is for fiber dimension "
                       f"{cc.n}, map has {f.fiber_dim}")
    if cc.ell < spec.order:
        raise CliError(f"--collection: collection supports order up to "
                       f"{cc.ell}, requested {spec.order}")
    return cc


def _alphas(spec: RunSpec, f: PolyMap, cc: CoveringCollection) -> list:
    """The --chart entries, checked without building the atlas, else the
    whole atlas when it has at most ``MAX_CHARTS`` charts."""
    n, r = f.fiber_dim, spec.order
    if not spec.charts:
        count = chart_count(n, r, cc.ell)
        if count > MAX_CHARTS:
            raise CliError(f"-r/--order: order {r} over fiber dimension {n} has "
                           f"{count} charts, more than {MAX_CHARTS}; pick some "
                           f"with --chart")
        return multi_indices(n, r, cc.ell)
    bounds = [index_bound(n, cc.ell, i) for i in range(1, r)]
    picked = list(dict.fromkeys(spec.charts))  # repeats dropped, order kept
    for alpha in picked:
        if len(alpha) != len(bounds) or not all(
                1 <= a <= b for a, b in zip(alpha, bounds)):
            ranges = ", ".join(f"1..{b}" for b in bounds)
            raise CliError(f"--chart: no chart {alpha}; order {r} charts have "
                           f"{r - 1} entries in ranges {ranges}")
    return picked


def _map_header(f: PolyMap, spec: RunSpec) -> str:
    src = ", ".join(f.table.names)
    dst = "; ".join(str(c) for c in f.coords)
    return (f"map ({src}) -> ({dst})   "
            f"parameters {f.s}, order {spec.order}")


def _chart_header(chart, paint, out) -> None:
    """The chart's name, its variables and its exceptional divisor."""
    out.write(paint(f"chart {chart.name()}", "1") +
              f"  [{', '.join(chart.table.names)}]\n")
    out.write(f"  away from {chart.exceptional} = 0\n")


def _dump(payload: dict, out) -> int:
    json.dump(payload, out, indent=2)
    out.write("\n")
    return 0


# ---- eqs -------------------------------------------------------------------


def _eqs_chart(eqs) -> dict:
    chart = eqs.chart
    return {
        "alpha": list(chart.alpha),
        "vars": list(chart.table.names),
        "generators": [str(g) for g in eqs.generators],
        "projections": [[str(c) for c in proj] for proj in eqs.projections],
        "exceptional": str(chart.exceptional),
    }


def _eqs_text(eqs, paint, buf) -> None:
    chart = eqs.chart
    width = len(eqs.generators) // (chart.r - 1)  # one per fiber coordinate
    _chart_header(chart, paint, buf)
    for level in range(1, chart.r):
        buf.write(f"  level {level}:\n")
        for g in eqs.generators[(level - 1) * width:level * width]:
            buf.write(f"    {g} = 0\n")
    if any(g.is_constant() and not g.is_zero() for g in eqs.generators):
        buf.write("  unit ideal: no multiple points meet this chart\n")


def cmd_eqs(spec: RunSpec, f: PolyMap, cc: CoveringCollection, out) -> int:
    alphas = _alphas(spec, f, cc)
    if spec.fmt == "json":
        charts = [_eqs_chart(chart_equations(f, spec.order, cc, alpha))
                  for alpha in alphas]
        return _dump({"schema": "kr-eqs/1", "n": f.n, "p": f.p, "params": f.s,
                      "r": spec.order, "charts": charts}, out)
    paint, buf = _styler(out), io.StringIO()  # colors follow out, not buf
    buf.write(_map_header(f, spec) + "\n")
    for alpha in alphas:
        _eqs_text(chart_equations(f, spec.order, cc, alpha), paint, buf)
    out.write(buf.getvalue())
    return 0


# ---- dim -------------------------------------------------------------------


def cmd_dim(spec: RunSpec, f: PolyMap, cc: CoveringCollection, out) -> int:
    expected = expected_dimension(f, spec.order)

    def one(alpha):
        eqs = chart_equations(f, spec.order, cc, alpha)
        handle = eqs.handle()
        if is_unit_ideal(handle):
            return (eqs.chart, -1, True)
        return (eqs.chart, dimension(handle), False)

    rows = [one(alpha) for alpha in _alphas(spec, f, cc)]
    if spec.fmt == "json":
        return _dump({
            "schema": "kr-dim/1",
            "n": f.n,
            "p": f.p,
            "params": f.s,
            "r": spec.order,
            "expected": expected,
            "charts": [{"alpha": list(chart.alpha), "dimension": dim,
                        "empty": empty,
                        "correct": None if empty else dim == expected}
                       for chart, dim, empty in rows],
        }, out)
    paint = _styler(out)
    out.write(_map_header(f, spec) + "\n")
    for chart, dim, empty in rows:
        if empty:
            label = "empty (unit ideal)"
        elif dim == expected:
            label = f"dimension {dim}, expected {expected}, correct"
        else:
            label = f"dimension {dim}, expected {expected}, NOT correct"
        out.write(f"chart {paint(chart.name(), '1')}: {label}\n")
    return 0


# ---- charts ----------------------------------------------------------------


def cmd_charts(spec: RunSpec, f: PolyMap, cc: CoveringCollection, out) -> int:
    def describe(alpha):
        chart = f.chart_for(cc, alpha, spec.order)
        base = chart.level_tuple(0)

        def text(form):
            return str(sum(c * x for c, x in zip(form.coeffs, base)))

        levels = [{"index": a,
                   "form": text(cc.forms[a - 1]),
                   "companions": [text(cc.forms[j]) for j in cc.companions[a - 1]],
                   "nu": [str(v) for v in nu]}
                  for a, nu in zip(alpha, chart.nu)]
        proj = [[str(c) for c in copy] for copy in projection_to_Xr(chart)]
        return chart, levels, proj

    rows = [describe(alpha) for alpha in _alphas(spec, f, cc)]
    if spec.fmt == "json":
        return _dump({
            "schema": "kr-charts/1",
            "n": f.fiber_dim,
            "r": spec.order,
            "count": len(rows),
            "charts": [{"alpha": list(chart.alpha),
                        "vars": list(chart.table.names),
                        "levels": levels,
                        "projections": proj,
                        "exceptional": str(chart.exceptional)}
                       for chart, levels, proj in rows],
        }, out)
    paint = _styler(out)
    out.write(f"{len(rows)} charts at order {spec.order} "
              f"over fiber dimension {f.fiber_dim}\n")
    for chart, levels, proj in rows:
        _chart_header(chart, paint, out)
        for i, lv in enumerate(levels, start=1):
            comps = ", ".join(lv["companions"])
            nu = ", ".join(lv["nu"])
            out.write(f"  level {i}: form {lv['form']}, "
                      f"companions ({comps}); nu = ({nu})\n")
        for j, copy in enumerate(proj):
            out.write(f"  x^({j}) = ({', '.join(copy)})\n")
    return 0


# ---- check -----------------------------------------------------------------


def cmd_check(spec: RunSpec, f: PolyMap, cc: CoveringCollection, out) -> int:
    if spec.trials > MAX_TRIALS:
        raise CliError(f"--trials: {spec.trials} is more than {MAX_TRIALS}")
    try:
        cfg = SampleConfig(seed=spec.seed, trials=spec.trials)
    except ValueError as exc:
        raise CliError(f"--trials: {exc}") from None
    # repeats dropped, order kept
    names = list(SUITES) if "all" in spec.suites else list(dict.fromkeys(spec.suites))
    for nm in names:
        if nm not in SUITES:
            raise CliError(f"--suite: unknown suite {nm!r}; choose from "
                           f"{', '.join(SUITES)} or all")

    alphas = _alphas(spec, f, cc)
    points = judged_points(f, spec.order, len(alphas), cfg, names)
    if points > MAX_POINTS:
        raise CliError(f"--trials: {spec.trials} trials on {len(alphas)} charts "
                       f"judge {points} chart points, more than {MAX_POINTS}")
    run = CheckRun(lambda: [chart_equations(f, spec.order, cc, alpha)
                            for alpha in alphas], cfg)
    reports = [SUITES[nm](run, _corrupt=True) if nm == "telescoping" and spec.corrupt
               else SUITES[nm](run) for nm in names]
    paint = _styler(out)
    ok = True
    for rep in reports:
        line = rep.summary()
        out.write(paint(line, "32" if rep.passed else "31") + "\n")
        ok = ok and rep.passed
        for desc, expected, actual in rep.failures[:10]:
            out.write(f"  {desc}\n    expected {expected}\n    actual   {actual}\n")
    return 0 if ok else 1


# ---- entry -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multipoint",
        description="Local equations of iterated multiple point spaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_format=True):
        p.add_argument("--vars", required=True,
                       help="comma separated source variables, parameters first")
        p.add_argument("--map", required=True,
                       help="semicolon separated coordinate functions")
        p.add_argument("-r", "--order", type=int, default=2,
                       help="multiplicity order r (default 2)")
        p.add_argument("--params", default="auto",
                       help="number of leading parameters, or auto")
        p.add_argument("--collection", default="default",
                       help="default, vandermonde, or a file of forms")
        p.add_argument("--chart", action="append", metavar="A1,A2,...",
                       help="restrict to one chart index (repeatable)")
        if with_format:
            p.add_argument("--format", choices=("text", "json"), default="text")

    p_eqs = sub.add_parser("eqs", help="print defining equations per chart")
    common(p_eqs)
    p_dim = sub.add_parser("dim", help="Groebner dimension per chart")
    common(p_dim)
    p_charts = sub.add_parser("charts", help="list the chart atlas")
    common(p_charts)
    p_check = sub.add_parser("check", help="run property suites")
    common(p_check, with_format=False)
    p_check.add_argument("--suite", action="append",
                         choices=(*SUITES, "all"),
                         help="suite to run (repeatable, default all)")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--trials", type=int, default=25)
    p_check.add_argument("--corrupt", action="store_true",
                         help=argparse.SUPPRESS)
    return parser


COMMANDS = {"eqs": cmd_eqs, "dim": cmd_dim, "charts": cmd_charts,
            "check": cmd_check}


def run(spec: RunSpec, out=None) -> int:
    """Build the map, then the collection, then run the command; bad input
    in either is reported before the command checks its own flags."""
    out = out if out is not None else sys.stdout
    f = _build_map(spec)
    cc = _build_collection(spec, f)
    return COMMANDS[spec.command](spec, f, cc, out)


def _glue_map_value(parser: argparse.ArgumentParser, argv: list) -> list:
    """Rewrite ``--map -x2+y;y3`` as ``--map=-x2+y;y3``, since argparse reads
    a value that starts with '-' as an option; real options are left alone."""
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {opt for p in sub.choices.values()
               for opt in p._option_string_actions}
    out = []
    for tok in argv:
        if (out and out[-1] == "--map" and tok.startswith("-")
                and tok.split("=", 1)[0] not in options):
            out[-1] = f"--map={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    ns = parser.parse_args(_glue_map_value(parser, argv))
    try:
        spec = RunSpec.from_args(ns)
        rc = run(spec)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return rc
    except BrokenPipeError:
        # the reader of stdout went away (`| head`): neither bad input nor a
        # bug.  Point stdout at devnull so the flush at exit cannot raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as a shell reports a killed writer
    except (CliError, PolyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
