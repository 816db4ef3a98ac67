"""Command-line interface: ``python -m repro <command> ...``.

Each subcommand declares its arguments next to its handler in
:func:`build_parser`; ``repro <command> --help`` documents them.  What
the parsers do not show:

* Exit codes follow the Unix split: 0 for success, 1 for a detected
  failure (a violated claim, a failed verification, a regression under
  ``trend --check``), 2 for a usage error.  :func:`main` is the one
  boundary: a :class:`~repro.exceptions.ReproError` or :class:`OSError`
  escaping a handler prints one stderr line and exits 2.
* ``ledger diff`` exits 0 whenever the comparison ran (differing fields
  and the fault-injection warning are still success) and 2 on usage
  errors.  It never exits 1: a diff has no failure verdict of its own.
  ``tests/test_cli.py`` pins this contract.
* The driver observability group (``sweep`` / ``chaos`` / ``large-p``)
  is built and reported by :func:`main`.  It costs nothing when off:
  model costs, results and ledger bytes are identical with or without
  it (see docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from .exceptions import ReproError

__all__ = ["main", "build_parser"]

#: Default ``repro sweep`` grid: six shapes spanning the Theorem 3
#: regimes, small enough for the data backend to simulate in seconds but
#: wide enough that a pooled sweep exercises several workers.
DEFAULT_SWEEP_SHAPES = "16x16x16,32x8x4,64x16x4,32x32x32,96x24x6,48x24x12"
DEFAULT_SWEEP_PROCS = "4,16"

class UsageError(ReproError):
    """Command-line input that parsed but that the command cannot use."""


def _split(text: str) -> List[str]:
    """The non-empty items of a comma-separated list."""
    return [part.strip() for part in text.split(",") if part.strip()]


def _parse_shapes(text: str):
    """Parse ``"16x16x16,32x8x4"`` into ProblemShape objects."""
    from .core import ProblemShape

    shapes = []
    for part in _split(text):
        dims = part.lower().split("x")
        if len(dims) != 3 or not all(d.strip().isdigit() for d in dims):
            raise UsageError(f"shape {part!r} is not of the form N1xN2xN3")
        shapes.append(ProblemShape(*(int(d) for d in dims)))
    if not shapes:
        raise UsageError("no shapes given")
    return shapes


def _parse_procs(text: str) -> List[int]:
    """Parse ``"4,16"`` into positive processor counts."""
    try:
        procs = [int(p) for p in _split(text)]
    except ValueError as exc:
        raise UsageError(f"bad --procs: {exc}") from None
    if not procs or min(procs) < 1:
        raise UsageError(f"--procs needs positive processor counts, "
                         f"got {text!r}")
    return procs


def _ledger_arg(path: str):
    from .obs.ledger import Ledger

    return Ledger(path)


def _add_observability_flags(p: argparse.ArgumentParser) -> None:
    """The shared driver-observability flag group (zero-cost when off)."""
    g = p.add_argument_group("driver observability")
    g.add_argument("--telemetry", action="store_true",
                   help="record driver stage spans and per-worker task "
                        "spans; print the utilization digest (straggler "
                        "skew, queue waits, throughput)")
    g.add_argument("--trace-out", metavar="PATH", default=None,
                   help="write the merged driver+worker timeline as "
                        "chrome://tracing JSON (implies --telemetry)")
    g.add_argument("--telemetry-out", metavar="PATH", default=None,
                   help="write driver telemetry as JSON-lines records "
                        "(implies --telemetry)")
    g.add_argument("--profile", action="store_true",
                   help="run every task under cProfile (parent and pool "
                        "workers) and print the merged top-15 hotspot table")
    g.add_argument("--profile-out", metavar="PATH", default=None,
                   help="write the merged profile as collapsed stacks for "
                        "flamegraph.pl / speedscope (implies --profile)")
    g.add_argument("--progress", action="store_true",
                   help="heartbeat progress lines (done/total, rate, ETA) "
                        "to stderr")


def _add_workers(p: argparse.ArgumentParser) -> None:
    p.add_argument("--workers", type=int, default=1, metavar="N",
                   help="process-pool width (default 1 = serial); results "
                        "are bit-identical for any N")


def _add_ledger(p: argparse.ArgumentParser, label: str) -> None:
    p.add_argument("--ledger", metavar="PATH", default=None, type=_ledger_arg,
                   help="append records to this experiment ledger")
    p.add_argument("--label", default=label,
                   help=f"ledger record label (default {label!r})")


def _add_algorithms(p: argparse.ArgumentParser) -> None:
    p.add_argument("--algorithms", default=None, metavar="A,B,...",
                   help="comma-separated registry names (default: every "
                        "registered algorithm that applies)")


def _add_backend(p: argparse.ArgumentParser) -> None:
    p.add_argument("--backend", choices=["data", "symbolic"], default="data",
                   help="execution backend: 'data' moves real numpy blocks "
                        "and verifies the numerics; 'symbolic' moves shape "
                        "descriptors only (identical cost accounting) and "
                        "scales to production-sized P")


def _add_sources(p: argparse.ArgumentParser) -> None:
    """The ``trend``/``dashboard`` artifact sources, read by :func:`_sources`."""
    p.add_argument("--root", metavar="DIR", default=None,
                   help="directory holding repro_ledger.jsonl and the "
                        "BENCH_pr<N>.jsonl harness runs (default: the "
                        "repository root)")
    p.add_argument("--include-faulty", action="store_true",
                   help="include fault-injected ledger records (their model "
                        "costs include recovery resends)")


def _add_dims(p: argparse.ArgumentParser) -> None:
    p.add_argument("n1", type=int, help="rows of A")
    p.add_argument("n2", type=int, help="columns of A / rows of B")
    p.add_argument("n3", type=int, help="columns of B")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Tight memory-independent parallel matmul communication lower "
            "bounds (SPAA 2022) - reproduction toolkit"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_shape(p: argparse.ArgumentParser) -> None:
        _add_dims(p)
        p.add_argument("--procs", "-p", type=int, required=True, help="processor count P")

    p_bounds = sub.add_parser("bounds", help="evaluate Theorem 3 for a problem")
    p_bounds.set_defaults(handler=_cmd_bounds)
    add_shape(p_bounds)
    p_bounds.add_argument("--memory", "-m", type=float, default=None,
                          help="local memory M (words) for the Section 6.2 comparison")

    p_grid = sub.add_parser("grid", help="select the Section 5.2 optimal grid")
    p_grid.set_defaults(handler=_cmd_grid)
    add_shape(p_grid)

    p_run = sub.add_parser("run", help="execute Algorithm 1 on the simulator")
    p_run.set_defaults(handler=_cmd_run)
    add_shape(p_run)
    p_run.add_argument("--seed", type=int, default=0, help="operand RNG seed")
    _add_backend(p_run)
    p_run.add_argument("--memory", "-m", type=float, default=None,
                       help="per-processor memory limit M (words); also "
                            "enables the memory-dependent attainment gauge")
    p_run.add_argument("--trace", metavar="PATH", default=None,
                       help="write a chrome://tracing-compatible timeline JSON")
    p_run.add_argument("--metrics", metavar="PATH", default=None,
                       help="write JSON-lines span/metric/per-rank records")
    p_run.add_argument("--oracle", action="store_true",
                       help="evaluate the closed-form analytic cost oracle "
                            "instead of simulating: identical cost numbers "
                            "(cross-checked exactly in the test suite) in "
                            "milliseconds at any P; incompatible with "
                            "--trace/--metrics/--memory (no machine exists)")
    p_run.add_argument("--semiring", choices=["plus_times", "min_plus"],
                       default="plus_times",
                       help="scalar multiply-add pair for the local GEMMs "
                            "and reductions; costs are identical for every "
                            "semiring, numerics are verified against the "
                            "chosen semiring's reference product")

    p_inspect = sub.add_parser(
        "inspect", help="pretty-print a recorded JSON-lines trace"
    )
    p_inspect.set_defaults(handler=_cmd_inspect)
    p_inspect.add_argument(
        "path", help=".jsonl file written by 'run --metrics'"
    )

    p_sweep = sub.add_parser(
        "sweep",
        help="run the generic parameter sweep over registered algorithms",
    )
    p_sweep.set_defaults(handler=_cmd_sweep)
    p_sweep.add_argument("--shapes", default=DEFAULT_SWEEP_SHAPES,
                         metavar="N1xN2xN3,...",
                         help=f"comma-separated problem shapes "
                              f"(default {DEFAULT_SWEEP_SHAPES})")
    p_sweep.add_argument("--procs", default=DEFAULT_SWEEP_PROCS,
                         metavar="P,Q,...",
                         help=f"comma-separated processor counts "
                              f"(default {DEFAULT_SWEEP_PROCS})")
    _add_algorithms(p_sweep)
    _add_backend(p_sweep)
    p_sweep.add_argument("--engine", choices=["simulate", "oracle"],
                         default="simulate",
                         help="'simulate' runs the machine model; 'oracle' "
                              "evaluates the closed-form cost oracle "
                              "(identical numbers where defined)")
    p_sweep.add_argument("--seed", type=int, default=0,
                         help="operand RNG seed (per-shape streams are "
                              "derived from (seed, shape_index))")
    _add_workers(p_sweep)
    _add_ledger(p_sweep, "sweep")
    p_sweep.add_argument("--semiring", choices=["plus_times", "min_plus"],
                         default=None,
                         help="thread this semiring to every run (default: "
                              "each algorithm's own default)")
    _add_observability_flags(p_sweep)

    p_apsp = sub.add_parser(
        "apsp",
        help="all-pairs shortest paths by repeated min-plus squaring "
             "(Fox-Otto distance products with per-squaring Theorem 3 "
             "gauges)",
    )
    p_apsp.set_defaults(handler=_cmd_apsp)
    p_apsp.add_argument("--n", type=int, required=True,
                        help="number of graph vertices (the distance matrix "
                             "is n x n)")
    p_apsp.add_argument("--P", "--procs", "-p", dest="procs", type=int,
                        required=True, help="processor count P")
    p_apsp.add_argument("--seed", type=int, default=0,
                        help="digraph RNG seed")
    p_apsp.add_argument("--density", type=float, default=0.35,
                        help="edge probability of the random digraph "
                             "(default 0.35)")
    p_apsp.add_argument("--algorithm", default="fox_otto",
                        help="registry algorithm executing each distance "
                             "product (default fox_otto)")
    p_apsp.add_argument("--no-verify", action="store_true",
                        help="skip the single-node shortest-path reference "
                             "check")

    p_large = sub.add_parser(
        "large-p",
        help="production-scale attainment sweep (symbolic backend, "
             "P up to 10^5)",
    )
    p_large.set_defaults(handler=_cmd_large_p)
    _add_workers(p_large)
    p_large.add_argument("--tight-tol", type=float, default=1e-9,
                         metavar="TOL",
                         help="relative attainment tolerance (default 1e-9)")
    _add_ledger(p_large, "large-p")
    _add_observability_flags(p_large)

    p_plan = sub.add_parser(
        "plan",
        help="oracle-backed capacity planner: cheapest registry "
             "algorithm per (shape, P[, M]) query",
    )
    p_plan.set_defaults(handler=_cmd_plan)
    _add_dims(p_plan)
    p_plan.add_argument("--procs", "-p", required=True, metavar="P1,P2,...",
                        help="comma-separated processor counts to plan for")
    p_plan.add_argument("--memory", "-m", type=float, default=None,
                        help="local memory M (words); adds the Section 6.2 "
                             "memory-dependent crossover to every answer")
    p_plan.add_argument("--candidates", action="store_true",
                        help="list every admissible algorithm per query, "
                             "not just the winner")
    p_plan.add_argument("--json", metavar="PATH", default=None,
                        help="write the full answers as JSON "
                             "('-' for stdout)")
    p_plan.add_argument("--atlas", metavar="PATH", default=None,
                        help="also write the case-1/2/3 planner atlas "
                             "JSON to PATH")
    p_plan.add_argument("--atlas-limit", type=int, default=10**7,
                        metavar="P",
                        help="largest processor count in the atlas "
                             "(default 10^7)")
    _add_ledger(p_plan, "plan")

    p_chaos = sub.add_parser(
        "chaos",
        help="chaos-test registered algorithms under seeded fault "
             "schedules; exit 1 on any quadchotomy violation",
    )
    p_chaos.set_defaults(handler=_cmd_chaos)
    _add_algorithms(p_chaos)
    p_chaos.add_argument("--schedules", default=None, metavar="S,T,...",
                         help="comma-separated fault schedule names "
                              "(default: all; see docs/ROBUSTNESS.md)")
    p_chaos.add_argument("--seeds", type=int, default=4, metavar="N",
                         help="fault seeds 0..N-1 per schedule (default 4)")
    _add_backend(p_chaos)
    p_chaos.add_argument("--json", metavar="PATH", default=None,
                         help="write the full chaos report as JSON")
    _add_ledger(p_chaos, "chaos")
    _add_workers(p_chaos)
    p_chaos.add_argument("--recover", action="store_true",
                         help="also run the survivable rank-death "
                              "schedules (RecoveryConfig opted in): ABFT "
                              "algorithms reconstruct in place, the rest "
                              "checkpoint/restart")
    _add_observability_flags(p_chaos)

    p_survive = sub.add_parser(
        "survive",
        help="survivability report: kill a rank in every registered "
             "algorithm and state the recovery overhead against the "
             "Theorem 3 bound; exit 1 unless every cell reconstructs",
    )
    p_survive.set_defaults(handler=_cmd_survive)
    _add_algorithms(p_survive)
    p_survive.add_argument("--seed", type=int, default=0,
                           help="fault-model seed (default 0)")
    p_survive.add_argument("--rank", type=int, default=1,
                           help="rank to kill (default 1)")
    p_survive.add_argument("--round", type=int, default=1, dest="at_round",
                           help="network round after which the rank dies "
                                "(default 1)")
    p_survive.add_argument("--strategy", choices=["spare", "shrink"],
                           default="spare",
                           help="recovery strategy: revive the slot from a "
                                "spare (default) or shrink onto survivors")
    _add_backend(p_survive)
    _add_workers(p_survive)
    p_survive.add_argument("--json", metavar="PATH", default=None,
                           help="write the survivability report as JSON")

    p_ledger = sub.add_parser(
        "ledger", help="read the persistent experiment ledger"
    )
    lsub = p_ledger.add_subparsers(dest="ledger_command", required=True)
    l_list = lsub.add_parser("list", help="tabulate recorded runs")
    l_list.set_defaults(handler=_cmd_ledger_list)
    l_list.add_argument("--algorithm", default=None,
                        help="only records for this algorithm")
    l_list.add_argument("--label", default=None,
                        help="only records with this label")
    l_list.add_argument("--limit", type=int, default=None, metavar="N",
                        help="show only the last N matching records")
    l_show = lsub.add_parser("show", help="print one record in full")
    l_show.set_defaults(handler=_cmd_ledger_show)
    l_show.add_argument("index", type=int,
                        help="record index from 'ledger list' (negative "
                             "counts from the end)")
    l_diff = lsub.add_parser("diff", help="compare two records field by field")
    l_diff.set_defaults(handler=_cmd_ledger_diff)
    l_diff.add_argument("index_a", type=int, help="first record index")
    l_diff.add_argument("index_b", type=int, help="second record index")
    l_diff.add_argument("--allow-mixed", action="store_true",
                        help="permit comparing records from different "
                             "execution backends or semirings (wall-clock, "
                             "numerical verification and products are not "
                             "comparable across them; model costs are)")
    l_diff.add_argument("--allow-faulty", action="store_true",
                        help="silence the warning when comparing a "
                             "fault-injected record against a fault-free "
                             "one (fault-injected costs include recovery "
                             "resends, so model costs are expected to "
                             "differ)")
    for l_parser in (l_list, l_show, l_diff):
        l_parser.add_argument("--path", default=None, metavar="PATH",
                              help="ledger file (default: repro_ledger.jsonl "
                                   "at the repository root)")

    p_trend = sub.add_parser(
        "trend",
        help="judge the newest ledger sample and harness run against the "
             "previous one",
    )
    p_trend.set_defaults(handler=_cmd_trend)
    _add_sources(p_trend)
    p_trend.add_argument("--metric", action="append", default=None,
                         help="only these metrics (repeatable; default all)")
    p_trend.add_argument("--algorithm", default=None,
                         help="only ledger series for this algorithm")
    p_trend.add_argument("--case", default=None, choices=["1D", "2D", "3D"],
                         help="only ledger series in this Theorem-3 case")
    p_trend.add_argument("--all", action="store_true",
                         help="list every trajectory with its samples, "
                              "including flat ones")
    p_trend.add_argument("--json", action="store_true",
                         help="emit the full report as JSON")
    p_trend.add_argument("--check", action="store_true",
                         help="exit 1 when a ledger model metric regressed "
                              "or a harness run is not correct (default: "
                              "report only, exit 0)")

    p_dash = sub.add_parser(
        "dashboard",
        help="write the self-contained HTML observability dashboard",
    )
    p_dash.set_defaults(handler=_cmd_dashboard)
    p_dash.add_argument("--out", metavar="PATH", default=None,
                        help="output HTML file (default: dashboard.html "
                             "in the --root directory)")
    _add_sources(p_dash)
    p_dash.add_argument("--telemetry", metavar="PATH", default=None,
                        help="driver-telemetry JSONL export (default: "
                             "artifacts/telemetry_sweep.jsonl under --root, "
                             "when present)")
    p_dash.add_argument("--profile", metavar="PATH", default=None,
                        help="collapsed-stack profile (default: "
                             "artifacts/hotspots_sweep.folded under --root, "
                             "when present)")
    p_dash.add_argument("--top", type=int, default=15, metavar="N",
                        help="hotspot table depth (default 15)")

    for name in ("table1", "fig1", "fig2", "lemma2", "crossover"):
        sub.add_parser(
            name, help=f"print the {name} reproduction artifact"
        ).set_defaults(handler=_cmd_artifact)

    sub.add_parser(
        "report", help="run the quick end-to-end reproduction checks"
    ).set_defaults(handler=_cmd_report)

    return parser


def _cmd_bounds(args: argparse.Namespace) -> int:
    from .core import (
        ProblemShape,
        classify,
        compare_bounds,
        memory_independent_bound,
        min_memory_to_hold_problem,
    )

    shape = ProblemShape(args.n1, args.n2, args.n3)
    lb = memory_independent_bound(shape, args.procs)
    print(f"problem {shape}, P = {args.procs}, regime {classify(shape, args.procs)}")
    print(f"minimum words accessed by some processor (D): {lb.accessed:g}")
    print(f"data a processor may own for free:            {lb.owned:g}")
    print(f"communication lower bound (D - owned):        {lb.communicated:g}")
    print(f"leading term (tight constant):                {lb.leading:g}")
    if args.memory is not None:
        needed = min_memory_to_hold_problem(shape, args.procs)
        if args.memory < needed:
            print(f"M = {args.memory:g} cannot hold the problem "
                  f"(needs {needed:g} words/processor)")
            return 1
        cmp = compare_bounds(shape, args.procs, args.memory)
        print(f"with M = {args.memory:g}: memory-dependent bound "
              f"2mnk/(P sqrt(M)) = {cmp.memory_dependent:g}; "
              f"binding: {cmp.binding}")
    return 0


def _cmd_grid(args: argparse.Namespace) -> int:
    from .algorithms import continuous_optimal_grid, select_grid
    from .core import ProblemShape, communication_lower_bound

    shape = ProblemShape(args.n1, args.n2, args.n3)
    cont = continuous_optimal_grid(shape, args.procs)
    choice = select_grid(shape, args.procs)
    bound = communication_lower_bound(shape, args.procs)
    print(f"problem {shape}, P = {args.procs} ({choice.regime})")
    print(f"continuous optimum: {cont[0]:.3f} x {cont[1]:.3f} x {cont[2]:.3f}")
    print(f"best integer grid:  {choice.grid} "
          f"(divides dimensions: {choice.divides})")
    print(f"expression (3) cost: {choice.cost:g} words "
          f"(lower bound {bound:g}, ratio "
          f"{choice.cost / bound if bound else float('nan'):.4f})")
    return 0


def _cmd_run_oracle(args: argparse.Namespace) -> int:
    from .analysis.oracle import predict_cost
    from .core import ProblemShape
    from .exceptions import OracleUnsupportedError

    if args.trace or args.metrics or args.memory is not None:
        raise UsageError("--oracle evaluates a closed form; no machine exists "
                         "to trace, export metrics from, or bound memory on")
    shape = ProblemShape(args.n1, args.n2, args.n3)
    try:
        pred = predict_cost("alg1", shape, args.procs)
    except OracleUnsupportedError as exc:
        print(f"oracle cannot predict this configuration exactly: {exc}",
              file=sys.stderr)
        print("(drop --oracle to simulate it instead)", file=sys.stderr)
        return 1
    print(f"problem {shape}, P = {args.procs}, {pred.config}, "
          f"engine oracle (closed form; no simulation)")
    print(f"predicted words: {pred.cost.words:g}  rounds: {pred.cost.rounds}  "
          f"flops/proc: {pred.cost.flops:g}")
    bound = pred.bound
    print(f"lower bound:     {bound:g}  "
          f"(tight: {abs(pred.cost.words - bound) < 1e-9 * max(1.0, bound)})")
    print(f"attainment: {pred.attainment:.6f}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from .algorithms import run_alg1, select_grid
    from .core import ProblemShape, communication_lower_bound
    from .exceptions import MemoryLimitExceededError
    from .machine import Machine, resolve_backend

    if args.oracle:
        return _cmd_run_oracle(args)
    from .machine.semiring import resolve_semiring

    sr = resolve_semiring(args.semiring)
    shape = ProblemShape(args.n1, args.n2, args.n3)
    choice = select_grid(shape, args.procs)
    backend = resolve_backend(args.backend)
    if backend.verifies:
        rng = np.random.default_rng(args.seed)
        A = rng.random((shape.n1, shape.n2))
        B = rng.random((shape.n2, shape.n3))
    else:
        A, B = backend.operands((shape.n1, shape.n2, shape.n3))
    machine = None
    if args.memory is not None:
        machine = Machine(
            choice.grid.size, memory_limit=args.memory, backend=backend
        )
    try:
        res = run_alg1(A, B, choice.grid, machine=machine, semiring=sr)
    except MemoryLimitExceededError as exc:
        print(f"run aborted: {exc}", file=sys.stderr)
        print("(raise --memory; 'repro bounds ... -m M' shows the minimum)",
              file=sys.stderr)
        return 1
    ok = (
        bool(sr.allclose(res.C, sr.matmul_data(A, B)))
        if backend.verifies else None
    )
    bound = communication_lower_bound(shape, args.procs)
    print(f"problem {shape}, P = {args.procs}, grid {choice.grid}, "
          f"backend {backend.name}, semiring {sr.name}")
    if ok is None:
        print("numerically correct: skipped (symbolic backend moves shape "
              "descriptors, not elements)")
    else:
        print(f"numerically correct: {ok}")
    print(f"measured words: {res.cost.words:g}  rounds: {res.cost.rounds}  "
          f"flops/proc: {res.cost.flops:g}")
    print(f"lower bound:    {bound:g}  "
          f"(tight: {abs(res.cost.words - bound) < 1e-9 * max(1.0, bound)})")
    print(f"peak memory per processor: {res.peak_memory} words")
    print(f"attainment: {res.attainment.summary()}")
    try:
        if args.trace:
            from .obs import ChromeTraceExporter

            n = ChromeTraceExporter().export(
                res.machine, args.trace, attainment=res.attainment
            )
            print(f"wrote Chrome trace ({n} events) to {args.trace}")
        if args.metrics:
            from .obs import JSONLinesExporter

            n = JSONLinesExporter().export(
                res.machine, args.metrics, attainment=res.attainment
            )
            print(f"wrote {n} JSON-lines records to {args.metrics}")
    except OSError as exc:
        raise UsageError(f"cannot write export: {exc}") from None
    return 0 if ok is not False else 1


def _cmd_inspect(args: argparse.Namespace) -> int:
    from .obs import inspect_report, read_jsonl

    try:
        records = read_jsonl(args.path)
    except OSError as exc:
        raise UsageError(f"cannot read trace file: {exc}") from None
    except ValueError as exc:
        raise UsageError(f"not a JSON-lines trace (expected the "
                         f"'run --metrics' format): {exc}") from None
    print(inspect_report(records))
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .analysis.chaos import ALL_SCHEDULES, run_chaos

    schedules = _split(args.schedules) if args.schedules else None
    unknown = [s for s in schedules or () if s not in ALL_SCHEDULES]
    if unknown:
        raise UsageError(f"unknown schedule(s) {', '.join(unknown)}; known: "
                         f"{', '.join(ALL_SCHEDULES)}")
    if args.seeds < 1:
        raise UsageError(f"--seeds must be >= 1, got {args.seeds}")
    report = run_chaos(
        algorithms=args.algorithms,
        seeds=tuple(range(args.seeds)),
        schedules=schedules,
        backend=args.backend,
        ledger=args.ledger,
        label=args.label,
        workers=args.workers,
        recover=args.recover,
        **args.obs,
    )
    print(report.render())
    if args.json:
        report.write_json(args.json)
        print(f"wrote chaos report to {args.json}")
    if args.ledger is not None:
        print(f"appended completed runs to {args.ledger.path}")
    return 0 if report.ok else 1


def _cmd_survive(args: argparse.Namespace) -> int:
    from .analysis.survive import run_survive

    if args.rank < 0 or args.at_round < 0:
        raise UsageError(f"--rank and --round must be >= 0, got {args.rank} "
                         f"and {args.at_round}")
    report = run_survive(
        algorithms=args.algorithms,
        seed=args.seed,
        failure=(args.rank, args.at_round),
        strategy=args.strategy,
        backend=args.backend,
        workers=args.workers,
    )
    print(report.render())
    if args.json:
        report.write_json(args.json)
        print(f"wrote survivability report to {args.json}")
    return 0 if report.ok else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .analysis.sweep import sweep
    from .analysis.tables import format_table

    shapes = _parse_shapes(args.shapes)
    procs = _parse_procs(args.procs)
    if args.obs["progress"] is not None:
        args.obs["progress"].total = len(shapes)
    records = sweep(
        shapes, procs,
        algorithms=args.algorithms,
        seed=args.seed,
        backend=args.backend,
        engine=args.engine,
        workers=args.workers,
        ledger=args.ledger,
        label=args.label,
        semiring=args.semiring,
        **args.obs,
    )
    headers = ["algorithm", "config", "shape", "P", "words", "rounds",
               "attainment", "correct", "wall"]
    rows = [
        [r.algorithm, r.config,
         "x".join(str(d) for d in r.shape.dims), str(r.P),
         f"{r.words:g}", str(r.rounds), f"{r.gap_ratio:.6f}",
         "-" if r.correct is None else str(r.correct),
         f"{r.wall_clock:.4f}s"]
        for r in records
    ]
    print(format_table(headers, rows))
    print(f"{len(records)} records over {len(shapes)} shape(s) x "
          f"{len(procs)} processor count(s)")
    if args.ledger is not None:
        print(f"appended {len(records)} records to {args.ledger.path}")
    return 0


def _cmd_apsp(args: argparse.Namespace) -> int:
    from .analysis.tables import format_table
    from .exceptions import ShapeError
    from .workloads.apsp import random_digraph, run_apsp

    try:
        W = random_digraph(args.n, seed=args.seed, density=args.density)
        result = run_apsp(
            W, args.procs,
            algorithm=args.algorithm,
            verify=not args.no_verify,
        )
    except ShapeError as exc:
        raise UsageError(f"bad apsp problem: {exc}") from None
    except KeyError as exc:
        raise UsageError(f"unknown algorithm: {exc}") from None

    print(f"APSP n = {result.n}, P = {result.P}, "
          f"algorithm {result.algorithm}, semiring {result.semiring}, "
          f"{len(result.squarings)} squaring(s)")
    headers = ["step", "hops<=", "config", "words", "rounds", "bound",
               "ratio", "changed"]
    rows = [
        [str(rec.step), str(rec.hop_limit), rec.config,
         f"{rec.cost.words:g}", str(rec.cost.rounds),
         f"{rec.attainment.bound:g}", f"{rec.attainment.ratio:.6f}",
         str(rec.changed_entries)]
        for rec in result.squarings
    ]
    print(format_table(headers, rows))
    total = result.total_cost
    print(f"total: words {total.words:g}, rounds {total.rounds}, "
          f"flops {total.flops:g} (semiring multiply-add pairs)")
    print(f"worst per-squaring attainment ratio: "
          f"{result.worst_attainment_ratio:.6f}")
    if result.correct is None:
        print("verification: skipped")
        return 0
    print(f"verification ({result.reference_engine}): "
          f"correct={result.correct}, max |err| = {result.max_abs_error:.3g}")
    return 0 if result.correct else 1


def _cmd_large_p(args: argparse.Namespace) -> int:
    from .analysis.large_p import LARGE_P_POINTS, run_large_p_sweep
    from .exceptions import BoundViolationError

    if args.obs["progress"] is not None:
        args.obs["progress"].total = len(LARGE_P_POINTS)
    try:
        results = run_large_p_sweep(
            tight_tol=args.tight_tol,
            ledger=args.ledger,
            label=args.label,
            workers=args.workers,
            **args.obs,
        )
    except BoundViolationError as exc:
        print(f"large-P sweep failed: {exc}", file=sys.stderr)
        return 1
    print("case  shape                 P       grid              "
          "constant  words/bound   wall")
    for r in results:
        shape = "x".join(str(d) for d in r.point.shape.dims)
        print(f"{r.point.case:<5} {shape:<21} {r.point.P:<7} "
              f"{r.record.config:<17} {r.constant:<9g} {r.ratio:<13.9f} "
              f"{r.wall_clock:6.1f}s")
    if args.ledger is not None:
        print(f"appended {len(results)} records to {args.ledger.path}")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    import json
    import time

    from .analysis.plan import (
        PlanCache,
        case_atlas,
        plan_batch,
        query_fingerprint,
    )
    from .core import ProblemShape
    from .exceptions import ShapeError
    from .obs.ledger import RunRecord, environment_fingerprint, git_revision

    procs = _parse_procs(args.procs)
    shape = ProblemShape(args.n1, args.n2, args.n3)
    cache = PlanCache()
    hits = [
        query_fingerprint(shape, P, args.memory) in cache for P in procs
    ]
    start = time.perf_counter()
    try:
        results = plan_batch(
            [shape] * len(procs), procs,
            memory=[args.memory] * len(procs), cache=cache,
        )
    except ShapeError as exc:
        print(f"plan failed: {exc}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - start

    canonical = results[0].shape
    print(f"problem {shape} (canonical {canonical}), "
          f"{len(procs)} quer{'y' if len(procs) == 1 else 'ies'} "
          f"in {elapsed:.3f}s")
    print("P        regime  adm  best        config                "
          "words        attainment  binding")
    for r in results:
        if r.best is None:
            print(f"{r.P:<8} {str(r.regime):<7} {len(r.candidates):<4} "
                  f"(no admissible algorithm)")
            continue
        binding = "-" if r.crossover is None else r.crossover.binding
        print(f"{r.P:<8} {str(r.regime):<7} {len(r.candidates):<4} "
              f"{r.best.algorithm:<11} {r.best.config:<21} "
              f"{r.best.words:<12g} {r.best.attainment:<11.6g} {binding}")
        if args.candidates:
            for c in r.candidates[1:]:
                print(f"{'':21}  also: {c.algorithm:<11} {c.config:<21} "
                      f"{c.words:<12g} {c.attainment:.6g}")

    if args.json:
        payload = json.dumps(
            {"queries": [r.to_dict() for r in results]},
            indent=2,
        )
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w") as fh:
                fh.write(payload + "\n")
            print(f"wrote {len(results)} answers to {args.json}")
    if args.atlas:
        atlas = case_atlas(args.atlas_limit, cache=cache)
        with open(args.atlas, "w") as fh:
            json.dump(atlas, fh, indent=2)
            fh.write("\n")
        print(f"wrote case-1/2/3 atlas (P up to {args.atlas_limit:g}) "
              f"to {args.atlas}")
    if args.ledger is not None:
        appended = 0
        for r, hit in zip(results, hits):
            if r.best is None:
                continue
            args.ledger.append(RunRecord(
                algorithm=r.best.algorithm,
                config=r.best.config,
                shape=tuple(r.shape.dims),
                P=r.P,
                words=r.best.words,
                rounds=r.best.rounds,
                flops=r.best.flops,
                bound=r.best.bound,
                attainment=r.best.attainment,
                wall_clock=elapsed / len(results),
                label=args.label,
                kind="plan",
                backend="oracle",
                timestamp=time.time(),
                git_sha=git_revision(),
                env=environment_fingerprint(),
                plan={
                    "fingerprint": r.fingerprint,
                    "M": r.M,
                    "candidates": len(r.candidates),
                    "binding": (
                        None if r.crossover is None
                        else r.crossover.binding
                    ),
                    "cache_hit": hit,
                },
            ))
            appended += 1
        print(f"appended {appended} planner records to {args.ledger.path}")
    return 0


def _default_ledger_path() -> str:
    import os

    from .obs.ledger import repo_root

    return os.path.join(repo_root(), "repro_ledger.jsonl")


def _ledger_records(args: argparse.Namespace):
    """``(path, records)`` of the ledger a ``repro ledger`` command reads."""
    from .exceptions import LedgerError
    from .obs.ledger import Ledger

    path = args.path or _default_ledger_path()
    try:
        return path, Ledger(path).records()
    except LedgerError as exc:
        raise UsageError(f"cannot read ledger: {exc}") from None


def _ledger_record(path: str, records, index: int):
    try:
        return records[index]
    except IndexError:
        raise UsageError(f"no record {index} in {path} "
                         f"({len(records)} records)") from None


def _format_ledger_row(index: int, rec) -> List[str]:
    import datetime

    when = (
        datetime.datetime.fromtimestamp(rec.timestamp).strftime("%Y-%m-%d %H:%M")
        if rec.timestamp
        else "-"
    )
    shape = "x".join(str(d) for d in rec.shape)
    return [
        str(index), when, rec.label or "-", rec.kind, rec.algorithm,
        shape, str(rec.P), f"{rec.words:g}", f"{rec.attainment:.6f}",
        f"{rec.wall_clock:.4f}s",
        (rec.git_sha or "")[:10] or "-",
    ]


def _cmd_ledger_list(args: argparse.Namespace) -> int:
    path, records = _ledger_records(args)
    matching = [
        (i, r) for i, r in enumerate(records)
        if (args.algorithm is None or r.algorithm == args.algorithm)
        and (args.label is None or r.label == args.label)
    ]
    if args.limit is not None:
        matching = matching[-args.limit:]
    if not matching:
        print(f"no matching records in {path}")
        return 0
    headers = ["#", "when", "label", "kind", "algorithm", "shape", "P",
               "words", "attainment", "wall", "git"]
    rows = [_format_ledger_row(i, r) for i, r in matching]
    widths = [max(len(headers[c]), *(len(row[c]) for row in rows))
              for c in range(len(headers))]
    print(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    print("-+-".join("-" * w for w in widths))
    for row in rows:
        print(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return 0


def _cmd_ledger_show(args: argparse.Namespace) -> int:
    import json

    path, records = _ledger_records(args)
    print(json.dumps(_ledger_record(path, records, args.index).to_dict(),
                     indent=2))
    return 0


def _cmd_ledger_diff(args: argparse.Namespace) -> int:
    path, records = _ledger_records(args)
    rec_a = _ledger_record(path, records, args.index_a)
    rec_b = _ledger_record(path, records, args.index_b)
    if rec_a.backend != rec_b.backend and not args.allow_mixed:
        raise UsageError(
            f"refusing to diff records from different backends "
            f"({rec_a.backend!r} vs {rec_b.backend!r}): wall-clock and "
            f"numerical verification are not comparable across backends. "
            f"Model costs are identical by construction — pass "
            f"--allow-mixed to compare them anyway."
        )
    if rec_a.semiring != rec_b.semiring and not args.allow_mixed:
        raise UsageError(
            f"refusing to diff records from different semirings "
            f"({rec_a.semiring!r} vs {rec_b.semiring!r}): the products are "
            f"different mathematical objects. Model costs are "
            f"semiring-independent by construction — pass --allow-mixed "
            f"to compare them anyway."
        )
    if rec_a.fault_injected != rec_b.fault_injected and not args.allow_faulty:
        faulty = args.index_a if rec_a.fault_injected else args.index_b
        print(
            f"warning: record {faulty} measured a fault-injected execution "
            f"(recovery resends are charged to its model costs), the other "
            f"record did not — cost differences below are expected. "
            f"Pass --allow-faulty to silence this warning.",
            file=sys.stderr,
        )
    print(f"ledger diff: record {args.index_a} vs record {args.index_b}")
    fields = ["label", "kind", "algorithm", "config", "shape", "P",
              "backend", "semiring", "words", "rounds", "flops", "bound",
              "attainment", "wall_clock", "git_sha"]
    identical = True
    for field in fields:
        a, b = getattr(rec_a, field), getattr(rec_b, field)
        if a != b:
            identical = False
            print(f"  {field}: {a} -> {b}")
    skew_a = None if rec_a.skew is None else rec_a.skew.ratio
    skew_b = None if rec_b.skew is None else rec_b.skew.ratio
    if skew_a != skew_b:
        identical = False
        print(f"  skew ratio: {skew_a} -> {skew_b}")
    if identical:
        print("  (records agree on every compared field)")
    return 0


def _sources(args: argparse.Namespace):
    """``(root, ledger path or None, BENCH paths)`` for trend/dashboard."""
    import os

    from .obs.analytics import discover_bench_files
    from .obs.ledger import repo_root

    root = args.root or repo_root()
    if not os.path.isdir(root):
        raise UsageError(f"--root {root!r} is not a directory")
    ledger_path = os.path.join(root, "repro_ledger.jsonl")
    if not os.path.exists(ledger_path):
        ledger_path = None
    return root, ledger_path, discover_bench_files(root)


def _cmd_trend(args: argparse.Namespace) -> int:
    """``repro trend``: newest-against-previous verdicts.

    Exit-code contract (pinned by ``tests/test_cli.py``):

    * **0** — analysis ran; without ``--check`` always, with ``--check``
      when no ledger model metric regressed and every recorded harness
      run is correct.  Harness metric verdicts never gate.
    * **1** — ``--check`` and a ledger regression or an incorrect run.
    * **2** — usage errors: malformed ledger or BENCH file, bad ``--root``.
    """
    from .exceptions import BaselineError, LedgerError
    from .obs.analytics import (
        METRICS, TrajectoryStore, analyze, load_bench_file,
    )

    _root, ledger_path, bench_paths = _sources(args)
    try:
        store = TrajectoryStore.collect(
            ledger_path, include_faulty=args.include_faulty)
        runs = [run for path in bench_paths for run in load_bench_file(path)]
    except (LedgerError, BaselineError) as exc:
        raise UsageError(f"cannot read artifacts: {exc}") from None
    known = set(METRICS).union(*(run.metrics for run in runs))
    unknown = sorted(set(args.metric or ()) - known)
    if unknown:
        raise UsageError(f"unknown --metric {', '.join(unknown)}; known: "
                         f"{', '.join(sorted(known))}")
    report = analyze(store, runs, metrics=args.metric,
                     algorithm=args.algorithm, case=args.case)
    if args.json:
        import json

        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render(verbose=args.all))
    return 1 if args.check and not report.ok else 0


def _cmd_dashboard(args: argparse.Namespace) -> int:
    """``repro dashboard``: write the single-file HTML dashboard.

    Exits 0 on a written dashboard (even from partial artifacts — every
    missing input degrades to an explicit empty panel), 2 on malformed
    inputs.
    """
    import os

    from .exceptions import BaselineError, LedgerError
    from .obs.dashboard import (
        DEFAULT_DASHBOARD, collect_payload, write_dashboard,
    )

    root, ledger_path, bench_paths = _sources(args)
    try:
        payload = collect_payload(
            ledger_path=ledger_path,
            bench_paths=bench_paths,
            telemetry_path=args.telemetry or os.path.join(
                root, "artifacts", "telemetry_sweep.jsonl"),
            profile_path=args.profile or os.path.join(
                root, "artifacts", "hotspots_sweep.folded"),
            include_faulty=args.include_faulty,
            top=args.top,
        )
    except (LedgerError, BaselineError, ValueError) as exc:
        raise UsageError(f"cannot read artifacts: {exc}") from None
    path = write_dashboard(args.out or os.path.join(root, DEFAULT_DASHBOARD),
                           payload)
    meta = payload["meta"]
    print(f"wrote {path} ({meta['points']} samples and {meta['runs']} "
          f"harness runs from {len(meta['sources'])} artifact(s))")
    return 0


def _cmd_artifact(args: argparse.Namespace) -> int:
    import importlib
    import os

    bench_dir = os.path.join(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))), "benchmarks")
    module_map = {
        "table1": "bench_table1",
        "fig1": "bench_fig1",
        "fig2": "bench_fig2",
        "lemma2": "bench_lemma2_cases",
        "crossover": "bench_memory_crossover",
    }
    if os.path.isdir(bench_dir) and bench_dir not in sys.path:
        sys.path.insert(0, bench_dir)
    try:
        module = importlib.import_module(module_map[args.command])
    except ImportError:
        raise UsageError(
            f"artifact modules live in the repository's benchmarks/ "
            f"directory, which was not found near {bench_dir!r}; run from "
            f"a source checkout"
        ) from None
    module.main()
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .analysis import reproduction_report

    report = reproduction_report()
    print(report.text)
    return 0 if report.all_passed else 1


def _check_shared(args: argparse.Namespace) -> None:
    """Validate the flags that several subcommands share, once."""
    if getattr(args, "workers", 0) < 0:
        raise UsageError(f"--workers must be >= 0, got {args.workers}")
    if getattr(args, "algorithms", None) is not None:
        from .algorithms.registry import REGISTRY

        args.algorithms = _split(args.algorithms) or None
        unknown = [a for a in args.algorithms or () if a not in REGISTRY]
        if unknown:
            raise UsageError(f"unknown algorithm(s) {', '.join(unknown)}; "
                             f"registered: {', '.join(REGISTRY)}")


def _build_observability(args: argparse.Namespace) -> dict:
    """The telemetry/profile/progress sinks a driver's flags ask for."""
    from .obs.profile import ProfileCollector
    from .obs.telemetry import ProgressReporter, Telemetry

    want_telemetry = args.telemetry or args.trace_out or args.telemetry_out
    return {
        "telemetry": Telemetry(args.command) if want_telemetry else None,
        "profile": (ProfileCollector()
                    if args.profile or args.profile_out else None),
        # Drivers that know their task count up front set ``total``.
        "progress": (ProgressReporter(0, label=args.command)
                     if args.progress else None),
    }


def _report_observability(args: argparse.Namespace) -> None:
    """Print the digests and write the exports the flags ask for."""
    from .obs.exporters import export_telemetry_chrome, export_telemetry_jsonl
    from .obs.profile import write_collapsed

    telemetry, profile = args.obs["telemetry"], args.obs["profile"]
    if args.obs["progress"] is not None:
        # Guaranteed final heartbeat, even when the total was unknown.
        args.obs["progress"].finish()
    if telemetry is not None:
        print(telemetry.render())
        if args.trace_out:
            n = export_telemetry_chrome(telemetry, args.trace_out)
            print(f"wrote merged Chrome trace ({n} events) to "
                  f"{args.trace_out}")
        if args.telemetry_out:
            n = export_telemetry_jsonl(telemetry, args.telemetry_out)
            print(f"wrote {n} telemetry records to {args.telemetry_out}")
    if profile is not None:
        print(profile.render(top=15))
        if args.profile_out:
            n = write_collapsed(profile.stats(), args.profile_out)
            print(f"wrote {n} collapsed stacks to {args.profile_out}")


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    observed = hasattr(args, "trace_out")  # the driver observability group
    try:
        _check_shared(args)
        if observed:
            args.obs = _build_observability(args)
        code = args.handler(args)
        if observed:
            _report_observability(args)
        return code
    except (ReproError, OSError) as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
