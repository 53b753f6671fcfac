"""Benchmark of the cavres library and CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from `src/`.
Each iteration is a fresh child process (child.py) that imports cavres,
builds its config, runs the workload's public calls and checks every output.
Iterations repeat until S seconds have passed (at least five, when they fit
within 2S); each takes a few seconds, so the medians rest on many of them.
With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 untraced and traced iterations alternate
and the metrics are the per-layer ones from the traced iterations' spans, plus
the tracing overhead (both in raw wall time).  Lines before it give the host,
every iteration, and every failed check by name.  The spans of the last traced
iteration and a record of each run are kept under .perfbench_work/.  The seed
picks the generated states of wigner_states; the other three workloads run
fixed presets, so their inputs are the same for every seed.

End-to-end metrics, medians over a run's iterations:
  setup_s              process start to a built config: interpreter, `import
                       cavres` (numpy, scipy) and build_config; also sampled by
                       set-up-only children
  run_s                time of the public calls, until the last artifact
  samples_per_s        reservoir samples (input states, on wigner_states) per
                       second of run_s
  wigner_points_per_s  Wigner grid points per second of run_s
  peak_rss_mb          the child's maximum resident memory
  ok_frac              operations that passed every check, over operations
                       attempted (one operation: a run_scenario, a `cavres
                       wigner` call or a fit_cat)

setup_s and run_s are host-adjusted: each child's wall time is multiplied by
PROBE_REF_S over the median unit time of the host probe that child ran next
to it (child.host_probe), which makes them the seconds the child would have
taken on the reference host.  On a shared host each core switches between a
fast state and one 1.5 to 1.7 times slower (other tenants on the same core),
sometimes for seconds, sometimes for minutes.  Over ten 20-second runs of the
same code on a 2-core VM, the quartile distance of the raw median run_s was
12 to 30 % of its median, and that of the adjusted run_s 4 to 16 %; the
dense-BLAS banana_cached slows less than the probe and stays at the top of
that range.  The raw wall times, and their medians, are printed above the
result.

`failed` in the JSON counts unexpected failures: a raised exception, a
nonzero exit, a broken state invariant or a wrong output.  States of the
known-defect families in states.py (ROADMAP open item 2) are checked like the
others; their mismatches are named and lower ok_frac, but do not count as
failed, so a fix shows as ok_frac rising to 1.

Workloads (BENCHMARK.json says why each was chosen):
  cat2_preset    cat2 preset, first 2 samples, 21^2 Wigner grid: transit kernel,
                 Wigner map, cat fit
  wigner_states  generated n_max-60 states through `cavres wigner` and fit_cat
  micromaser     2,500 cheap analytic samples at n_max 40
  banana_cached  banana at n_max 16 with 145 samples: the dense superoperator
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("cat2_preset", "wigner_states", "micromaser", "banana_cached")

# One BLAS thread: the matrices are at most 122 x 122, where a second thread
# made the transit-kernel build 6x slower (1.2 s against 0.21 s on a 2-core
# host) and adds run-to-run noise on a shared machine.
BLAS_THREADS = "1"
# The probe's median unit time on an uncontended core of the reference host
# (2-core Xeon VM, OpenBLAS 0.3.31, one thread): it sets the unit of the
# host-adjusted times
PROBE_REF_S = 0.0045
SETUP_REPEATS = 2        # set-up-only children per run, before the measured ones
MIN_ITERATIONS = 5
RUN_LIMIT_S = 170.0      # a run must end within 180 s

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "samples_per_s": "1/s",
    "wigner_points_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS", "CAVRES_THREADS"):
        env[var] = BLAS_THREADS
    return env


def host_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": int(BLAS_THREADS),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def spawn(job: dict, scratch: Path, started: float) -> dict:
    index = job["iteration"]
    job = dict(job, workdir=str(scratch / f"iter{index}"),
               result=str(scratch / f"result{index}.json"))
    remaining = RUN_LIMIT_S - (time.perf_counter() - started)
    if remaining <= 0:
        raise BenchError("no time left for another iteration")
    job["spawned_at"] = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(job)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"iteration {index} ({job['mode']}) ran past {RUN_LIMIT_S:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"iteration {index} ({job['mode']}) exited with {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    record = json.loads(Path(job["result"]).read_text())
    record.update(mode=job["mode"], iteration=index)
    return record


def iterate(workload: str, seed: int, seconds: float, trace: bool, scratch: Path) -> list[dict]:
    started = time.perf_counter()
    modes = ("run", "traced") if trace else ("run",)
    records = []
    # set-up-only children go first, which also warms the host up for the
    # measured iterations
    for _ in range(SETUP_REPEATS):
        job = {"workload": workload, "seed": seed, "iteration": len(records),
               "draw": 0, "mode": "setup"}
        records.append(spawn(job, scratch, started))
    setups = len(records)
    measuring = time.perf_counter()
    while True:
        # an untraced and a traced iteration in a pair draw the same inputs;
        # each pair runs in the opposite order to the one before
        pair, slot = divmod(len(records) - setups, len(modes))
        mode = modes[slot if pair % 2 == 0 else -1 - slot]
        job = {"workload": workload, "seed": seed, "iteration": len(records),
               "draw": pair, "mode": mode}
        records.append(spawn(job, scratch, started))
        done = len(records) - setups
        elapsed = time.perf_counter() - measuring
        if done % len(modes) or elapsed < seconds:
            continue
        # short runs get a median of at least MIN_ITERATIONS, if one more
        # fits within twice the run time
        if trace or done >= MIN_ITERATIONS or elapsed * (1 + 1 / done) > 2 * seconds:
            break
    return records


def adjusted(record: dict, key: str) -> float:
    """record[key], a wall time, at the reference host's speed."""
    return record[key] * PROBE_REF_S / record["probe_s"]


def end_to_end(records: list[dict]) -> dict:
    runs = [r for r in records if r["mode"] == "run"]
    ops = sum(r["ops"] for r in runs)
    bad = sum(len(r["failures"]) + len(r["known"]) for r in runs)
    return {
        "setup_s": statistics.median(adjusted(r, "setup_s") for r in records),
        "run_s": statistics.median(adjusted(r, "run_s") for r in runs),
        "samples_per_s": statistics.median(r["work"] / adjusted(r, "run_s") for r in runs),
        "wigner_points_per_s": statistics.median(r["points"] / adjusted(r, "run_s") for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "ok_frac": (ops - bad) / ops,
    }


def per_layer(records: list[dict]) -> dict:
    traced = [r for r in records if r["mode"] == "traced"]
    plain = [r for r in records if r["mode"] == "run"]
    names = traced[0]["trace"].keys()
    out = {name: statistics.median(r["trace"][name] for r in traced) for name in names}
    out["trace.run_s"] = statistics.median(r["run_s"] for r in traced)
    out["trace.untraced_run_s"] = statistics.median(r["run_s"] for r in plain)
    out["trace.overhead_s"] = out["trace.run_s"] - out["trace.untraced_run_s"]
    return out


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith(("_s", ".s")):
        return "s"
    if ".ms_" in name:
        return "ms"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def report(trace: bool, records: list[dict], host: dict) -> dict:
    print(f"host: {json.dumps(host)}")
    for r in records:
        line = (f"iter {r['iteration']:2d} {r['mode']:6s} probe_ms={1e3 * r['probe_s']:.3f}"
                f" setup_s={r['setup_s']:.4f}")
        if "run_s" in r:
            line += (f" run_s={r['run_s']:.4f} peak_rss_mb={r['peak_rss_mb']:.1f}"
                     f" ops={r['ops']} failed={len(r['failures'])} known={len(r['known'])}")
        print(line)
        for what in r.get("failures", ()):
            print(f"  FAILED {what}")
        for what in r.get("known", ()):
            print(f"  known defect (ROADMAP open item 2, Wigner cancellation): {what}")
    runs = [r["run_s"] for r in records if r["mode"] == "run"]
    print(f"raw wall times: setup_s median {statistics.median(r['setup_s'] for r in records):.4f} s"
          f" over {len(records)} children; run_s median {statistics.median(runs):.4f} s over"
          f" {len(runs)} untraced iterations (fastest {min(runs):.4f} s, slowest {max(runs):.4f} s)")
    metrics = per_layer(records) if trace else end_to_end(records)
    for name, value in metrics.items():
        print(f"{name:32s} {value:.6g} {unit_of(name)}")
    if trace:
        print(f"layer self times sum to {metrics['trace.self_sum_s']:.4f} s; bench glue "
              f"{metrics['bench.self_s']:.4f} s; traced run_s {metrics['trace.run_s']:.4f} s; "
              f"tracing overhead {metrics['trace.overhead_s']:.4f} s")
    runs = [r for r in records if "ops" in r]
    failed = sum(len(r["failures"]) for r in runs)
    return {
        "correct": failed == 0,
        "attempted": sum(r["ops"] for r in runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }


def bench(workload: str, seed: int, seconds: float, trace: bool) -> int:
    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-seed{seed}-", dir=WORK))
    try:
        records = iterate(workload, seed, seconds, trace, scratch)
        traced = [r for r in records if r["mode"] == "traced"]
        if traced:
            (WORK / "traces").mkdir(exist_ok=True)
            shutil.copy(traced[-1]["spans_file"], WORK / "traces" / f"{workload}-seed{seed}.jsonl")
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    host = host_facts()
    result = report(trace, records, host)
    (WORK / "results").mkdir(exist_ok=True)
    record_path = WORK / "results" / f"{workload}-seed{seed}-trace{int(trace)}.json"
    record_path.write_text(json.dumps({"host": host, "iterations": records, "result": result},
                                      indent=1, default=str))
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cavres" / "__init__.py").is_file():
        print(f"no cavres sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    codes = []
    for workload in chosen:
        print(f"== {workload}")
        codes.append(bench(workload, args.seed, args.seconds, bool(args.trace)))
    return max(codes)


if __name__ == "__main__":
    # SIGTERM raises SystemExit, so subprocess.run kills and reaps the child
    # it is waiting for before the benchmark exits
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
