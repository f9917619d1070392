#!/usr/bin/env python3
"""cremona benchmark: seeded workloads through the public API, every answer checked.

    python3 bench/run.py                                  # all workloads, one after another
    python3 bench/run.py --workload search --seed 3 --seconds 30 --trace 0
    python3 bench/run.py --workload expand --trace 1      # per-layer metrics

With `--workload`, the workload runs in this interpreter as a closed loop from
a single thread: each item starts when the previous one has finished, cycling
through whole seeded rounds until `--seconds` have passed.  Without it, each
workload runs in its own fresh interpreter, one after another.

`--trace 0` reports the end-to-end metrics.  `--trace 1` runs one round
untraced, then the same round with the per-layer tracer installed, and
reports the per-layer metrics; the traced round is fixed by the seed, so its
counts repeat exactly from run to run.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the line before it records the
environment.  The exit code is 1 when an item raised or gave a wrong answer,
and 2 when the engine cannot be imported from `src/` next to this directory.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("search", "fp_evidence", "expand")
SETUP_SAMPLES = 11
# the reference loop's iterations, and the loop time that scaled times assume:
# about its mean on the host the first numbers in README.md come from
REF_LOOP_N = 20_000
REF_LOOP_S = 0.01
_SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
               "import cremona.cli, cremona.scenarios; print('ready', flush=True)")

# per-layer counts that must be nonzero on the workload they are meant to
# measure; a zero means a wrapper is not bound where the engine calls it
EXPECT_NONZERO = {
    "search": ("lang.parse_input.calls", "lattice.hnf.calls", "lattice.solve.calls",
               "action.group_order.calls", "action.invariant_lattice.calls",
               "pipeline.cremona_step.calls", "pipeline.search.candidates_scored"),
    "fp_evidence": ("verify.points_enumerated", "verify.eval.calls",
                    "verify.eval.term_evals", "verify.torus_hit_ratio"),
    "expand": ("coeffs.cyclotomic_ops", "coeffs.param_ops", "poly.mul.calls",
               "poly.mul.term_pairs", "poly.substitute.calls", "poly.gcd.calls",
               "verify.on_variety.generic_share"),
}


def _import_engine():
    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        import cremona
    except ImportError as exc:
        print(f"error: cannot import cremona from {SRC}: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    if Path(cremona.__file__).resolve().parent.parent != SRC:
        print(f"error: cremona was imported from {cremona.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------

def reference_loop() -> float:
    """Time a fixed stretch of pure-Python work (integer arithmetic, tuple
    hashing, dict updates; no cremona code).  The host this benchmark was
    written on speeds up and slows down by a quarter over minutes, and this
    loop slows with it, so gated times are scaled by it (see `scaled`)."""
    t0 = time.perf_counter()
    d, acc = {}, 0
    for i in range(REF_LOOP_N):
        k = (i % 97, i % 89)
        acc = (acc * 31 + i) % 1000003
        d[k] = d.get(k, 0) + acc
    return time.perf_counter() - t0


def scaled(seconds: float, loop_seconds: float) -> float:
    """`seconds` as they would read on a host where the reference loop takes
    REF_LOOP_S."""
    return seconds * REF_LOOP_S / loop_seconds


def measure_setup() -> float:
    """Time from spawning a fresh interpreter until `cremona.cli` and
    `cremona.scenarios` are imported, fixtures parsed."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", _SETUP_CODE, str(SRC)],
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError("set-up interpreter failed to import cremona")
    return elapsed


def run_one(item, tracer=None, item_id=None) -> tuple[float, str | None]:
    """Run and time one item, then check its answer outside the timed region.
    Returns (seconds, None) or (seconds, reason it failed)."""
    from workloads import check_item, run_item

    if tracer is not None:
        tracer.begin_item(item_id)
    t0 = time.perf_counter()
    try:
        result = run_item(item)
    except Exception as exc:  # the loop must go on; the failure is counted
        return time.perf_counter() - t0, f"raised {type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            tracer.end_item()
    elapsed = time.perf_counter() - t0
    try:
        return elapsed, check_item(item, result)
    except Exception as exc:
        return elapsed, f"check raised {type(exc).__name__}: {exc}"


def closed_loop(items, seconds: float, setup: list[float]):
    """Cycle through whole rounds, one item after another, until `seconds`
    have passed; ending on a round boundary gives every run the same mix.

    Between items, outside any item's time, set-up samples are taken evenly
    through the run: on a shared machine set-up time drifts by a quarter
    within seconds, so samples taken in one burst disagree from run to run."""
    latencies, loops, failures = [], [], []
    start = time.perf_counter()
    k = 0
    while k % len(items) or time.perf_counter() < start + seconds:
        if len(setup) < SETUP_SAMPLES and \
                time.perf_counter() >= start + seconds * len(setup) / SETUP_SAMPLES:
            setup.append(measure_setup())
        item = items[k % len(items)]
        k += 1
        loops.append(reference_loop())
        elapsed, reason = run_one(item)
        latencies.append(elapsed)
        if reason:
            failures.append(f"{item.label}: {reason}")
    return latencies, loops, failures


def end_to_end(items, seconds: float):
    """The gated end-to-end metrics, and the latency percentiles, which go to
    the environment block: on a shared host their run-to-run spread reached
    0.37 of the median, more than any bound a regression gate can use.

    `items_per_s` is the items run over their summed time, scaled by the
    mean of the reference loops timed before each item.  `setup_s` is the
    fastest set-up sample, unscaled: spawning an interpreter does not slow
    with the reference loop, and a slow stretch of the host only adds time.
    The unscaled throughput goes to the environment block."""
    setup = [measure_setup()]
    latencies, loops, failures = closed_loop(items, seconds, setup)
    p90 = statistics.quantiles(latencies, n=10)[-1] if len(latencies) > 1 else latencies[0]
    metrics = {
        "items_per_s": (len(latencies) / scaled(sum(latencies), statistics.mean(loops)), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (min(setup), "s"),
    }
    env = {"item_p50_s": statistics.median(latencies), "item_p90_s": p90,
           "samples": len(latencies), "beyond_p90": sum(1 for x in latencies if x > p90),
           "rounds": len(latencies) // len(items),
           "unscaled_items_per_s": len(latencies) / sum(latencies),
           "reference_loop_s": statistics.mean(loops)}
    return metrics, len(latencies), failures, env


def one_pass(items, tracer=None) -> tuple[float, list[str]]:
    """Each item once; returns the summed item time and the failures."""
    total, failures = 0.0, []
    for k, item in enumerate(items):
        elapsed, reason = run_one(item, tracer, k)
        total += elapsed
        if reason:
            failures.append(f"{item.label}: {reason}")
    return total, failures


def per_layer(workload: str, items):
    from tracer import Tracer, layer_metrics

    base_s, failures = one_pass(items)
    tracer = Tracer()
    tracer.install()
    try:
        traced_s, traced_failures = one_pass(items, tracer)
    finally:
        tracer.uninstall()
    failures += traced_failures
    metrics = layer_metrics(tracer)
    metrics["trace.overhead_ratio"] = (base_s / traced_s, "ratio")
    zero = [name for name in EXPECT_NONZERO[workload] if not metrics[name][0]]
    for name in zero:
        print(f"warning: {name} is 0 on {workload}; a wrapper may be unbound",
              file=sys.stderr)
    env = {"spans": len(tracer.spans), "zero_counts": zero,
           "missing_targets": tracer.missing,
           "trace.overhead_ratio": metrics["trace.overhead_ratio"][0]}
    return metrics, 2 * len(items), failures, env


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def git_commit() -> str:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, env=env)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(args, round_items: int, attempted: int, failures) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "round_items": round_items,
        "items_attempted": attempted,
        "fail_ratio": len(failures) / attempted,
        "failures": failures[:20],
    }


def result_line(attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def run_workload(args) -> int:
    _import_engine()
    from workloads import build_round

    items = build_round(args.workload, args.seed)
    if args.trace:
        metrics, attempted, failures, extra = per_layer(args.workload, items)
    else:
        metrics, attempted, failures, extra = end_to_end(items, args.seconds)
    env = environment(args, len(items), attempted, failures)
    env.update(extra)
    # printed with the metrics but kept out of the result line: fail_ratio
    # because its metrics must never be 0 (attempted and failed carry it), the
    # percentiles because they are too noisy to gate on
    shown = {**metrics, "fail_ratio": (env["fail_ratio"], "ratio")}
    shown.update({name: (env[name], "s") for name in ("item_p50_s", "item_p90_s")
                  if name in env})
    for name, (value, unit) in shown.items():
        print(f"{args.workload:<12} {name:<36} {value:>16.6g} {unit}")
    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"environment": env}))
    print(result_line(attempted, len(failures), metrics))
    return 1 if failures else 0


def run_all(args) -> int:
    """Each workload in its own fresh interpreter, one after another."""
    attempted = failed = 0
    metrics = {}
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 1) or len(lines) < 2:
            print(f"error: workload {workload} exited with {proc.returncode}", file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        attempted += res["attempted"]
        failed += res["failed"]
        metrics.update({f"{workload}.{name}": (m["value"], m["unit"])
                        for name, m in res["metrics"].items()})
        status = max(status, proc.returncode)
    print(result_line(attempted, failed, metrics))
    return status


def run_seconds() -> float:
    """The measured duration BENCHMARK.json sets for one run."""
    return float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="run one workload in this interpreter (default: all, each in its own)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="least measured duration of the untraced closed loop "
                         "(default: run_seconds in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = run_seconds()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return run_workload(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
