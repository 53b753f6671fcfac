"""One iteration of one workload, in a fresh process.

Usage (run.py starts it; the argument is one JSON object):

    python3 perfbench/child.py '{"workload": ..., "seed": ..., "iteration": ...,
        "draw": ..., "mode": "run" | "traced" | "setup", "spawned_at": ...,
        "workdir": ..., "result": ...}'

`draw` selects the inputs made from the seed, so that paired iterations can
share them.

`spawned_at` is the parent's time.perf_counter() just before it started this
process; on Linux that clock is CLOCK_MONOTONIC, shared by all processes, so
setup_s counts interpreter start-up and every import.  The result is written as
JSON to the path `result` names.

Every child also times the host probe (host_probe below): after set-up in a
set-up-only child, right before and right after the timed calls otherwise.
run.py divides the child's times by the probe's to take out the host's speed
at that moment.
"""

import json
import resource
import statistics
import sys
import time

PROBE_CHUNKS = 10        # probe units timed before the run, and again after it


def main() -> None:
    job = json.loads(sys.argv[1])
    import workloads  # perfbench/ is sys.path[0]

    workload = workloads.WORKLOADS[job["workload"]]
    ctx = workload.setup(job["seed"])
    setup_s = time.perf_counter() - job["spawned_at"]
    if job["mode"] == "setup":
        result = {"setup_s": setup_s, "probe_s": statistics.median(host_probe())}
    else:
        result = {"setup_s": setup_s, **measure(workload, ctx, job)}
    with open(job["result"], "w") as fh:
        json.dump(result, fh)


def measure(workload, ctx, job) -> dict:
    from pathlib import Path

    import workloads

    workdir = Path(job["workdir"])
    inputs = workload.prepare(ctx, job["seed"], job["draw"], workdir)
    outcome = workloads.Outcome()
    probe = host_probe()
    tracer = None
    if job["mode"] == "traced":
        from tracer import Tracer

        tracer = Tracer(run_id=f"{job['workload']}-seed{job['seed']}-iter{job['iteration']}")
        workloads.install_trace(tracer)
        with tracer, tracer.root():
            start = time.perf_counter()
            out = workload.run(ctx, inputs, outcome)
            run_s = time.perf_counter() - start
    else:
        start = time.perf_counter()
        out = workload.run(ctx, inputs, outcome)
        run_s = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probe += host_probe()
    workload.check(ctx, inputs, out, outcome)

    result = {
        "run_s": run_s,
        "peak_rss_mb": rss_mb,
        "ops": outcome.ops,
        "work": outcome.work,
        "points": outcome.points,
        "bytes_written": outcome.bytes_written,
        "failures": outcome.failures,
        "known": outcome.known,
        "values": outcome.values,
        "probe_s": statistics.median(probe),
    }
    if tracer is not None:
        spans_path = workdir / "spans.jsonl"
        tracer.write(spans_path)
        result["spans_file"] = str(spans_path)
        result["trace"] = layer_metrics(tracer, outcome)
    return result


def host_probe() -> list[float]:
    """Times of PROBE_CHUNKS equal units of fixed work, independent of cavres.

    A unit is the mix the workloads' hot paths run: small complex products and
    a Hermitian eigensolve through numpy's BLAS and LAPACK, then an
    interpreter loop.  On a shared host a core's speed changes from one second
    to the next, so the median unit time says how fast the host ran the
    program around that moment.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((41, 41)) + 1j * rng.standard_normal((41, 41))
    h = a + a.conj().T
    times = []
    for _ in range(PROBE_CHUNKS):
        start = time.perf_counter()
        x = h
        for _ in range(25):
            np.linalg.eigvalsh(h)
            x = h @ x
            x /= np.abs(x).max()
        acc = 0
        for i in range(15000):
            acc += i * i
        times.append(time.perf_counter() - start)
    return times


LAYERS = ("fock", "thermal", "dynamics", "reservoir", "metrics", "scenarios", "cli")


def layer_metrics(tracer, outcome) -> dict:
    """The per-layer metrics of one traced iteration."""
    s = tracer.summary()
    out = {
        "dynamics.propagate.calls": s["dynamics.propagate.calls"],
        "dynamics.propagate.s": s["dynamics.propagate.s"],
        "dynamics.propagate.self_s": s["dynamics.propagate.self_s"],
        "thermal.apply.calls": s["thermal.apply.calls"],
        "thermal.apply.s": s["thermal.apply.s"],
        "dynamics.kernel_build.count": s["dynamics.kernel_build.calls"],
        "dynamics.kernel_build.s": s["dynamics.kernel_build.s"],
        "thermal.build.count": s["thermal.build.calls"],
        "thermal.build.s": s["thermal.build.s"],
        "reservoir.superop_build.s": s["reservoir.superop_build.s"],
        "reservoir.trajectory.s": s["reservoir.trajectory.s"],
        "reservoir.samples": s["reservoir.samples"],
        "reservoir.sample_map.ms_p50": 1e3 * percentile(tracer.durations("reservoir.sample_map"), 50),
        "reservoir.sample_map.ms_p90": 1e3 * percentile(tracer.durations("reservoir.sample_map"), 90),
        "reservoir.relax.calls": s["reservoir.relax.calls"],
        "reservoir.relax.s": s["reservoir.relax.s"],
        "reservoir.loop.self_s": s["reservoir.trajectory.self_s"],
        "fock.validate_density.calls": s["fock.validate_density.calls"],
        "fock.validate_density.s": s["fock.validate_density.s"],
        "metrics.snapshot.s": s["metrics.snapshot.s"],
        "metrics.wigner.calls": s["metrics.wigner.calls"],
        "metrics.wigner.s": s["metrics.wigner.s"],
        "metrics.wigner.points": s["metrics.wigner.points"],
        "metrics.fit_cat.calls": s["metrics.fit_cat.calls"],
        "metrics.fit_cat.s": s["metrics.fit_cat.s"],
        "metrics.fit_cat.evals": s["metrics.fit_cat.evals"],
        "scenarios.run.s": s["scenarios.run.s"],
        "scenarios.serialize.s": s["scenarios.serialize.s"],
        "scenarios.bytes_written": outcome.bytes_written,
        "cli.main.s": s["cli.main.s"],
        "cli.main.nonzero_exits": s["cli.main.nonzero_exits"],
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = s[f"{layer}.layer_self_s"]
    out["bench.self_s"] = s["bench.layer_self_s"]
    out["trace.self_sum_s"] = sum(out[f"{layer}.self_s"] for layer in LAYERS)
    out["trace.spans"] = len(tracer.spans)
    return out


def percentile(values, q) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


if __name__ == "__main__":
    main()
