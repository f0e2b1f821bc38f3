#!/usr/bin/env python3
"""Benchmark of the weakorder CLI: end-to-end metrics, or per-layer with --trace 1.

Run from the repository root:

    python3 bench/run.py --workload queries --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --smoke        # every workload at tiny sizes, seconds

The program is driven in process through ``weakorder.cli.run(argv)`` with
stdout captured, so that interpreter start-up does not hide millisecond
requests.  A run repeats whole rounds of its workload's requests for about
``--seconds``, then checks every distinct answer against the
benchmark's own computations (``reference.py``), outside the timed section.
Times are read against a yardstick, a fixed computation of the benchmark's
own run between requests, because the host's speed drifts.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The exit code is 0 only when every answer is correct.

See README.md for the workloads, the metrics and reference figures.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 11

# The yardstick: a fixed computation of the benchmark's own, timed between
# requests.  The host's speed drifts by up to 2x within seconds and over
# minutes, so every time is read as a multiple of the yardstick's time
# around it and reported in seconds at the yardstick's nominal time.
YARDSTICK = (("involution", 6), ("fpf", 6), ("clan", (2, 3)))
YARDSTICK_S = 0.003

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
}


def import_cli():
    """weakorder.cli from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        import weakorder.cli as cli
    except ImportError as ex:
        raise SystemExit(f"error: cannot import weakorder from {src}: {ex}")
    if Path(cli.__file__).resolve().parent.parent != src:
        raise SystemExit(f"error: weakorder was imported from {cli.__file__}, not {src}")
    return cli


def yardstick() -> float:
    """Wall time of one run of the yardstick computation."""
    t0 = perf_counter()
    for family, param in YARDSTICK:
        ref.chain_products(family, param)
    return perf_counter() - t0


def setup(workload: str, seed: int, smoke: bool):
    """Everything a run does before its timed section."""
    return import_cli(), workloads.requests(workload, seed, smoke)


def setup_only(workload: str, seed: int, smoke: bool) -> None:
    """``setup`` between two runs of the yardstick, whose times it prints."""
    before = yardstick()
    setup(workload, seed, smoke)
    print(before, yardstick())


def time_setup(workload: str, seed: int, smoke: bool) -> tuple[float, float]:
    """Median wall time of fresh processes that only do ``setup``: at the
    yardstick's nominal speed, and as measured.

    Each process runs the yardstick around its set-up, on the CPU and at
    the speed it gets; their times are taken out of its wall time.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    times, scaled = [], []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        # no timeout: with one, wait() polls in sleeps of up to 50 ms
        done = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True)
        wall = perf_counter() - t0
        before, after = (float(v) for v in done.stdout.split())
        times.append(wall - before - after)
        scaled.append(times[-1] / (before + after) * 2 * YARDSTICK_S)
    return statistics.median(scaled), statistics.median(times)


def call(cli, argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(list(argv))
        except Exception:  # a crash is a failed request, not a crashed benchmark
            code = -1
            err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def run_rounds(cli, reqs, seconds: float, tracer=None):
    """Whole rounds, at least one, for as close to ``seconds`` as they allow.

    Returns per-round latencies, the yardstick's time around each request
    (the mean of the runs just before and just after it), the answers (each
    request's distinct answers with how often each came back), and
    per-round layer metrics when traced.
    """
    answers: list[list[list]] = [[] for _ in reqs]  # [code, out, err, times]
    rounds, yards, layers = [], [], []
    start = perf_counter()
    while True:
        gc.collect()
        latencies, around = [], []
        before = yardstick()
        for k, req in enumerate(reqs):
            if tracer is not None:
                tracer.request = (len(rounds), k)
            t0 = perf_counter()
            code, out, err = call(cli, req.argv)
            latencies.append(perf_counter() - t0)
            after = yardstick()
            around.append((before + after) / 2)
            before = after
            for seen in answers[k]:
                if seen[:3] == [code, out, err]:
                    seen[3] += 1
                    break
            else:
                answers[k].append([code, out, err, 1])
        rounds.append(latencies)
        yards.append(around)
        if tracer is not None:
            layer = tracing.layer_metrics(*tracer.take())
            scale = YARDSTICK_S / statistics.mean(around)
            layers.append({k: v * scale if tracing.PER_LAYER[k] == "s" else v
                           for k, v in layer.items()})
        # stop unless one more round of the mean length ends nearer to seconds
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(rounds) / 2 >= seconds:
            return rounds, yards, answers, layers


def check_answers(reqs, answers) -> tuple[int, list[str]]:
    checker = workloads.Checker()
    failed, problems = 0, []
    for req, distinct in zip(reqs, answers):
        for code, out, err, times in distinct:
            found = checker.check(req, code, out, err)
            if found:
                failed += times
                problems += [f"{' '.join(req.argv)}: {p}" for p in found]
    return failed, problems


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """One run: set-up timing, timed rounds, checks; returns the report."""
    setup_s, setup_raw_s = (None, None) if trace else time_setup(workload, seed, smoke)
    cli, reqs = setup(workload, seed, smoke)
    tracer = tracing.Tracer() if trace else None
    with tracer or contextlib.nullcontext():
        rounds, yards, answers, layers = run_rounds(cli, reqs, seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, problems = check_answers(reqs, answers)
    # Each request's cost is its median repetition in the run, each
    # repetition read against the yardstick around it.
    typical = [
        statistics.median(t / y for t, y in zip(times, around)) * YARDSTICK_S
        for times, around in zip(zip(*rounds), zip(*yards))
    ]
    raw = {
        "wall_s": sum(statistics.median(times) for times in zip(*rounds)),
        "yardstick_ms": statistics.median(y for around in yards for y in around) * 1e3,
    }
    if setup_raw_s is not None:
        raw["setup_s"] = setup_raw_s
    if trace:
        counts = {k for k, unit in tracing.PER_LAYER.items() if unit == "count"}
        drifting = sorted(k for k in counts if len({m[k] for m in layers}) > 1)
        metrics = {
            k: (statistics.median_low if unit == "count" else statistics.median)(m[k] for m in layers)
            for k, unit in tracing.PER_LAYER.items()
        }
        metrics["trace.wall_s"] = sum(typical)
        units = {**tracing.PER_LAYER, "trace.wall_s": "s"}
        write_spans(workload, seed, tracer)
    else:
        drifting = []
        metrics = {
            "setup_s": setup_s,
            "wall_s": sum(typical),
            "peak_rss_mb": peak_rss_mb,
            "query_p50_ms": statistics.median(typical) * 1e3,
            "query_p90_ms": p90(typical) * 1e3,
        }
        units = END_TO_END
    by_kind: dict[str, list[float]] = {}
    for req, t in zip(reqs, typical):
        by_kind.setdefault(req.kind, []).append(t)
    return {
        "workload": workload,
        "seed": seed,
        "rounds": len(rounds),
        "attempted": len(reqs) * len(rounds),
        "failed": failed,
        "problems": problems,
        "drifting": drifting,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "by_kind": {k: (len(v), statistics.median(v) * 1e3) for k, v in by_kind.items()},
        "raw": raw,
    }


def write_spans(workload: str, seed: int, tracer) -> None:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{workload}-seed{seed}.json"
    with open(path, "w") as fh:
        json.dump({
            "workload": workload,
            "seed": seed,
            "fields": ["id", "parent", "name", "start_s", "end_s", "request"],
            "spans": tracer.spans,
        }, fh)


def print_report(rep: dict, trace: bool) -> None:
    print(f"workload {rep['workload']}  seed {rep['seed']}  trace {int(trace)}  "
          f"rounds {rep['rounds']}")
    print(f"python {platform.python_version()}  nproc {len(os.sched_getaffinity(0))}")
    print(f"operations attempted {rep['attempted']}  failed {rep['failed']}")
    for kind, (count, p50) in rep["by_kind"].items():
        print(f"requests {kind}: {count}, median over requests of their median scaled times {p50:.3f} ms")
    for name, m in rep["metrics"].items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    for name, value in rep["raw"].items():
        print(f"measured, not scaled: {name} {value:.6g}")
    for name in rep["drifting"]:
        print(f"warning: count {name} differs between rounds")
    for line in rep["problems"][:50]:
        print(f"FAILED {line}")


def smoke(seed: int) -> int:
    """Every workload at tiny sizes, untraced and traced, with every check."""
    bad = 0
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            t0 = perf_counter()
            rep = measure(workload, seed, 0, trace, smoke=True)
            ok = not rep["failed"] and not rep["problems"]
            bad += not ok
            print(f"smoke {workload} trace {int(trace)}: {rep['attempted']} requests, "
                  f"{rep['failed']} failed, {perf_counter() - t0:.1f} s "
                  f"[{'ok' if ok else 'FAIL'}]")
            for line in rep["problems"][:10]:
                print(f"  {line}")
    return 1 if bad else 0


def main(argv: "list[str] | None" = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes; without --workload, all of them")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_only:
        setup_only(args.workload, args.seed, args.smoke)
        return 0
    if args.smoke and args.workload is None:
        return smoke(args.seed)
    if args.workload is None:
        ap.error("--workload is required")
    import_cli()  # fail before any timing when the program is missing
    rep = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print_report(rep, bool(args.trace))
    correct = not rep["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "metrics": rep["metrics"],
    }))
    return 0 if correct and not rep["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
