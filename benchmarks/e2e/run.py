"""End-to-end benchmark of the ``repro`` package on four seeded workloads.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload W --seed S [--seconds N] [--trace 0|1]

A workload's ops come in passes with the same mix of op costs.
``--seconds`` sets the number of passes through the pass length on the
reference host (README.md), so two commits always measure the same ops.

With ``--trace 0`` the same ops run in three fresh worker processes, one
after another.  Each op is one public call, timed alone, with
``gc.collect()`` between ops outside the timed region, and every result
is checked afterwards.  An op's latency is the best of its three timings:
the host this benchmark was built on slows down for seconds at a time, and
a fresh process per repetition keeps every repetition cold.  The run
reports the end-to-end metrics of ``BENCHMARK.json``; ``setup_s`` is the
median over five fresh processes (the three workers and two probes) of
``import repro`` plus one warm-up op.

With ``--trace 1`` two fresh workers run a quarter of the passes, one
untraced and one with every layer of ``layers.LAYERS`` wrapped, and the
run reports the per-layer metrics; ``--spans OUT.jsonl`` also writes the
traced spans.  Without ``--workload`` every workload runs in turn.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
describes the run.  The exit code is 0 only when every op passed its
checks in every repetition with identical model counts and, on seed 0,
matched the counts pinned in ``expected/`` (``--pin`` rewrites them from
a passing seed-0 run).  It is 2 when the sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
EXPECTED = HERE / "expected"
#: Fresh worker processes per untraced run; each op's latency is its best.
REPEATS = 3
SETUP_SAMPLES = 5
#: A traced run measures this fraction of the passes, in two workers.
TRACE_SHARE = 4
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# --------------------------------------------------------------------- #
# worker side: one fresh process                                        #
# --------------------------------------------------------------------- #


def setup(name: str):
    """Import ``repro`` and run one warm-up op; returns (workload, seconds)."""
    start = time.perf_counter()
    import repro  # noqa: F401
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    warm = workload.warmup()
    workload.check(warm, workload.run(warm))
    return workload, time.perf_counter() - start


def measure(workload, ops, tracer=None):
    """Run and check every op; returns one ``(seconds, Outcome)`` per op.

    ``seconds`` is ``None`` for an op that raised.
    """
    from workloads import Outcome

    results = []
    for op in ops:
        gc.collect()
        try:
            if tracer is None:
                start = time.perf_counter()
                result = workload.run(op)
                seconds = time.perf_counter() - start
            else:
                result, seconds = tracer.op(op.id, workload.run, op)
            outcome = workload.check(op, result)
        except Exception as exc:  # an op that raises counts as failed
            print(f"{op.id}: {type(exc).__name__}: {exc}", file=sys.stderr)
            results.append((None, Outcome((op.id, type(exc).__name__),
                                          [f"raised {type(exc).__name__}"])))
            continue
        del result
        results.append((seconds, outcome))
    return results


def _rows(results):
    return [[s, o.counts, o.problems, o.stats] for s, o in results]


def worker(args) -> dict:
    """One fresh process's share of a run, as plain data.

    ``args.role`` is ``probe`` (set-up only), ``plain`` or ``traced``.
    """
    workload, setup_s = setup(args.workload)
    if args.role == "probe":
        return {"setup_s": setup_s}
    from repro.obs.ledger import environment_fingerprint

    share = TRACE_SHARE if args.trace else REPEATS
    passes = max(1, round(args.seconds / share / workload.pass_seconds))
    ops = workload.inputs(args.seed, passes)
    payload = {"setup_s": setup_s, "env": environment_fingerprint(),
               "passes": passes, "ids": [op.id for op in ops]}
    gc.collect()
    gc.freeze()  # later collections scan only what the ops allocate
    if args.role == "plain":
        payload["rows"] = _rows(measure(workload, ops))
    else:
        from layers import LAYERS, ROOT, Tracer

        tracer = Tracer(keep_spans=args.spans is not None)
        with tracer.installed():
            payload["rows"] = _rows(measure(workload, ops, tracer))
        if args.spans:
            tracer.write_spans(args.spans)
        layers = {}
        for layer in (ROOT, *LAYERS):
            layers[f"{layer}.calls"] = tracer.calls[layer]
            layers[f"{layer}.self_s"] = tracer.self_s[layer]
        layers["machine.network.messages"] = tracer.messages
        layers["machine.network.messages_per_round"] = (
            tracer.messages / tracer.rounds if tracer.rounds else 0.0)
        payload["layers"] = layers
    payload["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return payload


# --------------------------------------------------------------------- #
# orchestrator side                                                     #
# --------------------------------------------------------------------- #


def spawn(args, role: str) -> dict:
    """Run this script as a fresh worker process; returns its payload."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--role", role]
    if args.spans and role == "traced":
        cmd += ["--spans", args.spans]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170,
                          check=False)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def _hash(counts) -> str:
    return hashlib.sha256(json.dumps(counts).encode()).hexdigest()


def combine(ids, runs, differ: str):
    """Merge repetitions of the same ops into ``(id, timings, counts, problems)``.

    An op fails when any repetition raised or failed a check, or when the
    repetitions disagree on its model counts.
    """
    ops = []
    for i, op_id in enumerate(ids):
        rows = [run[i] for run in runs]
        problems = [p for row in rows for p in row[2]]
        if any(row[1] != rows[0][1] for row in rows):
            problems.append(differ)
        ops.append((op_id, [row[0] for row in rows], rows[0][1], problems))
    return ops


def check_pinned(name: str, seed: int, ops) -> str:
    """Compare seed-0 model counts with ``expected/<name>.json``.

    A mismatching op gets a problem, so it counts as failed.
    """
    path = EXPECTED / f"{name}.json"
    if seed != 0:
        return "not checked (seed != 0)"
    if not path.is_file():
        return "not pinned"
    with open(path) as fh:
        pinned = json.load(fh)["op_sha256"]
    mismatches = 0
    for (_id, _timings, counts, problems), expected in zip(ops, pinned):
        if _hash(counts)[:len(expected)] != expected:
            problems.append("model counts differ from the pinned seed-0 digest")
            mismatches += 1
    checked = min(len(ops), len(pinned))
    return f"{checked - mismatches}/{checked} ops match"


def pin(name: str, ops) -> None:
    counts = [c for _id, _timings, c, _problems in ops]
    EXPECTED.mkdir(exist_ok=True)
    with open(EXPECTED / f"{name}.json", "w") as fh:
        json.dump({"workload": name, "seed": 0, "ops": len(counts),
                   "sha256": _hash(counts),
                   "op_sha256": [_hash(c)[:16] for c in counts]}, fh, indent=0)
        fh.write("\n")


def end_to_end(ops, setup_samples, rss_samples):
    """The ``--trace 0`` metrics over each passing op's best timing."""
    best = [min(timings) for _id, timings, _c, problems in ops if not problems]
    if len(best) > 1:
        p90 = statistics.quantiles(best, n=10, method="inclusive")[8]
    else:
        p90 = best[0] if best else 0.0
    return {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": len(best) / sum(best) if best else 0.0,
        "op_p50_s": statistics.median(best) if best else 0.0,
        "op_p90_s": p90,
        "peak_rss_mb": statistics.median(rss_samples),
    }


def per_layer(plain, traced, ops, failed):
    """The ``--trace 1`` metrics: the traced worker's counters plus ratios."""
    metrics = dict(traced["layers"])
    stats = [row[3] for row in traced["rows"]]
    clean = sum(s.get("clean_words", 0.0) for s in stats)
    metrics["machine.faults.waste_ratio"] = (
        sum(s.get("words_resent", 0.0) for s in stats) / clean if clean else 0.0)
    wall = [sum(row[0] for row in w["rows"] if row[0] is not None) for w in (plain, traced)]
    metrics["trace.overhead_ratio"] = wall[1] / wall[0] if wall[0] else 0.0
    metrics["fail_rate"] = failed / len(ops)
    return metrics


def emit(section, metrics, meta, attempted, failed) -> None:
    """Print a readable table, the run description, then the result line."""
    names = [m["name"] for m in section]
    if set(names) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match {sorted(names)}")
    for m in section:
        note = f"  (n={meta['samples']})" if m["name"].startswith("op_p") else ""
        print(f"{m['name']:40s} {metrics[m['name']]:<14.6g} {m['unit']}{note}")
    meta["metrics"] = {m["name"]: {k: m[k] for k in m if k != "name"} for m in section}
    print(json.dumps(meta))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in section},
    }))


def run_workload(args, spec) -> int:
    if args.trace:
        workers = [spawn(args, "plain"), spawn(args, "traced")]
        differ = "tracing changed the model counts"
        setup_samples = []
    else:
        setup_samples = [spawn(args, "probe")["setup_s"]
                         for _ in range(SETUP_SAMPLES - REPEATS)]
        workers = [spawn(args, "plain") for _ in range(REPEATS)]
        differ = "model counts differ between repetitions"
    setup_samples += [w["setup_s"] for w in workers]
    ops = combine(workers[0]["ids"], [w["rows"] for w in workers], differ)
    pinned = "rewritten" if args.pin else check_pinned(args.workload, args.seed, ops)
    failed = sum(1 for op in ops if op[3])
    for op_id, _timings, _counts, problems in ops:
        for problem in problems:
            print(f"FAIL {op_id}: {problem}", file=sys.stderr)
    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "passes": workers[0]["passes"], "ops": len(ops),
            "workers": len(workers),
            "samples": len(ops) - failed, "setup_samples": setup_samples,
            "env": workers[0]["env"], "cpu_count": os.cpu_count(),
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "digest": _hash([op[2] for op in ops]), "pinned": pinned}
    if args.trace:
        from layers import LAYERS

        meta["layers"] = {layer: moves for layer, (_t, moves) in LAYERS.items()}
        metrics = per_layer(*workers, ops, failed)
        section = spec["per_layer"]
    else:
        metrics = end_to_end(ops, setup_samples, [w["rss_mb"] for w in workers])
        section = spec["end_to_end"]
        if args.pin and failed == 0 and args.seed == 0:
            pin(args.workload, ops)
    emit(section, metrics, meta, len(ops), failed)
    return 0 if failed == 0 else 1


def run_all(args, spec) -> int:
    """Every workload in turn; prints each one's output, then a summary line."""
    attempted = failed = 0
    correct = True
    metrics = {}
    for entry in spec["workloads"]:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", entry["name"],
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, check=False,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, ValueError):
            correct = False
            continue
        correct &= proc.returncode == 0 and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for name, value in result["metrics"].items():
            metrics[f"{entry['name']}.{name}"] = value
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} holds no src/repro package or no BENCHMARK.json",
              file=sys.stderr)
        return 2
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="with --trace 1, write spans as JSON lines here")
    parser.add_argument("--pin", action="store_true",
                        help="rewrite expected/<workload>.json from a passing seed-0 run")
    parser.add_argument("--role", choices=("probe", "plain", "traced"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if (args.spans or args.pin) and args.workload is None:
        parser.error("--spans and --pin need --workload")

    for var in THREAD_VARS:  # before numpy loads, here and in every child
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    if args.workload is None:
        return run_all(args, spec)
    if args.role:
        print(json.dumps(worker(args)))
        return 0
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
