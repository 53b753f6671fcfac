"""The four workloads: set-up, the timed public calls, and their checks.

Each workload runs in a fresh child process (see child.py), in four phases:

  setup(seed)                      import cavres and build the config; ends
                                   the set-up timer
  prepare(ctx, seed, draw, dir)    make the inputs, outside every timer
  run(ctx, inputs, outcome)        the public calls a user waits for: run_s
  check(ctx, inputs, out, outcome) parse every artifact back and compare it
                                   with what it must be

`outcome` (an Outcome) collects the operations attempted and the failures.

Nothing at module level imports numpy or cavres, so the set-up timer covers
those imports.
"""

from __future__ import annotations

import io
import json
import math
import traceback
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent

CSV_HEADER = "sample,time_s,nbar,purity,fidelity,trace_err"
GOLDEN_TOL = 1e-9          # nbar, purity and fidelity against the seed's values
HERM_TOL, TRACE_TOL, EIG_TOL = 1e-10, 1e-8, 1e-8   # the program's own defaults

# Settings of the three trajectory workloads, as config overrides.  Each keeps
# one run_scenario to about a second, so that a run of the benchmark holds
# enough fresh-process iterations for a steady median on a shared host.
TRAJECTORY = {
    # cat2 keeps its preset (n_max 60, numeric backend, loss, cat fit, the
    # preset's Wigner window) but stops after 2 of its 200 samples and maps
    # that window on a 21^2 grid instead of 101^2
    "cat2_preset": ("cat2", {
        "reservoir.n_samples": "2",
        "analysis.wigner_grid": "-3.5:3.5:0.35",
    }),
    # c04 of the acceptance gate (resonant only, loss-free, analytic, p_at = 1,
    # n_max 40) with four times its kick: u = 0.4 and Theta = 0.2 keep the
    # equilibrium |<a>| = 2u/Theta = 4, reached within 1,000 samples instead
    # of about 20,000
    "micromaser": (None, {
        "hilbert.n_max": "40",
        "profile.v": "300",
        "profile.t_r": repr(0.2 / (2 * math.pi * 50e3)),
        "profile.delta": "0",
        "reservoir.u": "0.4",
        "reservoir.loss": "off",
        "reservoir.p_at": "1",
        "reservoir.backend": "analytic",
        "reservoir.n_samples": "2500",
        "analysis.wigner_grid": "-3.4:3.4:0.34",
    }),
    # n_samples >= dim^2/2 = 144 switches the program to its dense
    # superoperator; the grid stays inside the trust radius sqrt(0.6 * 16) = 3.10
    "banana_cached": ("banana", {
        "hilbert.n_max": "16",
        "reservoir.n_samples": "145",
        "analysis.wigner_grid": "-2.1:2.1:0.105",
    }),
}
MICROMASER_AMPLITUDE = 4.0   # 2u/Theta, checked to 5 %


class Outcome:
    """What one child's run did and which of its operations failed."""

    def __init__(self):
        self.ops = 0
        self.work = 0          # reservoir samples, or input states
        self.points = 0        # Wigner grid points evaluated
        self.bytes_written = 0
        self.failures: list[str] = []
        self.known: list[str] = []
        self.values: dict = {}

    def fail(self, what: str) -> None:
        self.failures.append(what)


def _error(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


# ---------------------------------------------------------------------------
# artifact parsers (independent of the program's own)


def parse_state(text: str):
    import numpy as np

    lines = [ln for ln in text.splitlines() if ln.strip()]
    dim = int(lines[0].split(":", 1)[1])
    cells = np.array([[float(c) for c in row.split(",")] for row in lines[1:]])
    if cells.shape != (dim, 2 * dim):
        raise ValueError(f"state file has shape {cells.shape}, expected ({dim}, {2 * dim})")
    return cells[:, 0::2] + 1j * cells[:, 1::2]


def parse_wigner(text: str):
    import numpy as np

    lines = text.splitlines()
    if not (lines[0].startswith("# xs: ") and lines[1].startswith("# ys: ")):
        raise ValueError("Wigner text lacks its '# xs:' and '# ys:' header lines")
    xs = np.array(lines[0][6:].split(), dtype=float)
    ys = np.array(lines[1][6:].split(), dtype=float)
    values = np.array([row.split() for row in lines[2:] if row.strip()], dtype=float)
    if values.shape != (ys.size, xs.size):
        raise ValueError(f"Wigner values have shape {values.shape}, expected {(ys.size, xs.size)}")
    if not np.all(np.isfinite(values)):
        raise ValueError("Wigner values are not all finite")
    return xs, ys, values


def state_invariant_error(rho) -> str | None:
    import numpy as np

    herm = float(np.max(np.abs(rho - rho.conj().T)))
    if herm > HERM_TOL:
        return f"Hermiticity defect {herm:.3e}"
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > TRACE_TOL:
        return f"trace {tr!r}"
    low = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
    if low < -EIG_TOL:
        return f"eigenvalue {low:.3e}"
    return None


# ---------------------------------------------------------------------------
# trajectory workloads: cat2_preset, micromaser, banana_cached


class Trajectory:
    def __init__(self, name: str):
        self.name = name
        self.preset, self.overrides = TRAJECTORY[name]

    def setup(self, seed: int):
        import cavres.scenarios as sc

        return sc.build_config(dict(self.overrides), preset_name=self.preset)

    def prepare(self, config, seed: int, draw: int, workdir: Path):
        return workdir / "artifacts"

    def run(self, config, out_dir: Path, outcome: Outcome):
        import cavres.scenarios as sc

        outcome.ops += 1
        outcome.work += config.reservoir.n_samples
        try:
            return sc.run_scenario(config, out_dir=str(out_dir))
        except Exception as exc:  # a raised exception is a failed operation
            outcome.fail(f"run_scenario raised {_error(exc)}")
            return None

    def check(self, config, out_dir: Path, summary, outcome: Outcome) -> None:
        if summary is None:
            return
        try:
            problem = self._check(config, out_dir, summary, outcome)
        except (OSError, ValueError, IndexError, KeyError) as exc:
            problem = f"artifact does not parse back: {_error(exc)}"
        if problem:
            outcome.fail(problem)

    def _check(self, config, out_dir: Path, summary, outcome: Outcome) -> str | None:
        import numpy as np

        n = config.reservoir.n_samples
        files = {name: (out_dir / name).read_text() for name in
                 ("metrics.csv", "state_final.txt", "wigner_final.txt", "summary.txt")}
        outcome.bytes_written += sum(len(t.encode()) for t in files.values())

        rows = files["metrics.csv"].splitlines()
        if rows[0] != CSV_HEADER:
            return f"metrics.csv header {rows[0]!r}"
        if len(rows) != n + 2:
            return f"metrics.csv has {len(rows) - 1} rows, expected {n + 1}"
        table = np.array([r.split(",") for r in rows[1:]], dtype=float)
        if not np.array_equal(table[:, 0], np.arange(n + 1)):
            return "metrics.csv sample column is not 0..n_samples"
        if np.max(table[:, 5]) > TRACE_TOL:
            return f"metrics.csv trace_err reaches {np.max(table[:, 5]):.3e}"

        rho = parse_state(files["state_final.txt"])
        if rho.shape[0] != config.hilbert.dim:
            return f"state_final.txt has dimension {rho.shape[0]}"
        problem = state_invariant_error(rho)
        if problem:
            return f"final state breaks an invariant: {problem}"
        nbar = float(np.real(np.diag(rho) @ np.arange(rho.shape[0])))
        if abs(nbar - summary["nbar"]) > 1e-12:
            return f"state_final.txt nbar {nbar!r} differs from the summary's {summary['nbar']!r}"
        if abs(table[-1, 2] - nbar) > 1e-8 * max(1.0, nbar):
            return "metrics.csv last nbar differs from the final state's"
        if f"nbar = {summary['nbar']!r}" not in files["summary.txt"]:
            return "summary.txt does not echo nbar"

        xs, ys, _ = parse_wigner(files["wigner_final.txt"])
        outcome.points += xs.size * ys.size
        lo, hi, step = config.analysis.wigner_grid
        expect = int(round((hi - lo) / step)) + 1
        if xs.size != expect or ys.size != expect:
            return f"wigner_final.txt is {xs.size}x{ys.size}, expected {expect}x{expect}"

        outcome.values = {k: summary[k] for k in ("nbar", "purity", "fidelity")}
        return self._physics(rho, summary)

    def _physics(self, rho, summary) -> str | None:
        import numpy as np

        if self.name == "micromaser":
            n = np.arange(rho.shape[0])
            amp = abs(np.sum(np.sqrt(n[1:]) * np.diag(rho, k=-1)))
            if abs(amp - MICROMASER_AMPLITUDE) > 0.05 * MICROMASER_AMPLITUDE:
                return f"|<a>| = {amp:.4f} is not within 5 % of {MICROMASER_AMPLITUDE}"
            return None
        golden = json.loads((HERE / "golden.json").read_text())[self.name]
        for key in ("nbar", "purity", "fidelity"):
            got, want = summary[key], golden[key]
            if want is None:
                if not math.isnan(got):
                    return f"{key} is {got!r}; the seed reports NaN"
            elif not abs(got - want) <= GOLDEN_TOL:
                return f"{key} {got!r} differs from the seed's {want!r}"
        return None


# ---------------------------------------------------------------------------
# wigner_states: generated states through `cavres wigner`, cats through fit_cat


class WignerStates:
    name = "wigner_states"

    def setup(self, seed: int):
        import cavres.cli  # noqa: F401  (the set-up is the import itself)

        return seed

    def prepare(self, _ctx, seed: int, draw: int, workdir: Path):
        import states

        generated = states.generate(seed, draw)
        workdir.mkdir(parents=True, exist_ok=True)
        paths = []
        for i, st in enumerate(generated):
            path = workdir / f"state_{i}.txt"
            path.write_text(states.state_text(st.rho))
            paths.append(path)
        return list(zip(generated, paths))

    def run(self, seed, inputs, outcome: Outcome):
        import cavres.cli as cli
        import cavres.metrics as met
        import cavres.scenarios as sc

        results = []
        for st, path in inputs:
            outcome.ops += 1
            outcome.work += 1
            buf = io.StringIO()
            try:
                with redirect_stdout(buf):
                    rc = cli.main(["wigner", "--state", str(path), f"--grid={st.grid_spec}"])
                entry = {"rc": rc, "text": buf.getvalue()}
            except Exception as exc:
                entry = {"error": _error(exc)}
            if st.kind.components >= 2:
                outcome.ops += 1
                try:
                    rho = sc.state_from_text(path.read_text())
                    entry["rho"] = rho
                    entry["fit"] = met.fit_cat(rho, st.kind.components)
                except Exception as exc:
                    entry["fit_error"] = _error(exc)
            results.append(entry)
        return results

    def check(self, seed, inputs, results, outcome: Outcome) -> None:
        import numpy as np
        import states

        worst = states.oracle_self_test()
        if worst > 1e-9:
            raise RuntimeError(f"the Wigner oracle misses closed forms by {worst:.2e}")
        for (st, _), entry in zip(inputs, results):
            problem = self._check_map(st, entry, outcome)
            if problem and st.kind.known_defect:
                outcome.known.append(f"{st.label}: {problem}")
            elif problem:
                outcome.fail(f"{st.label}: {problem}")
            if st.kind.components < 2:
                continue
            if "fit_error" in entry:
                outcome.fail(f"{st.label}: fit_cat raised {entry['fit_error']}")
            elif not np.array_equal(entry["rho"], st.rho):
                outcome.fail(f"{st.label}: state_from_text does not return the written state")
            elif not (st.generating_overlap - 1e-9 <= entry["fit"].fidelity <= 1 + 1e-9):
                outcome.fail(f"{st.label}: fitted fidelity {entry['fit'].fidelity!r} is below "
                             f"the generating cat's overlap {st.generating_overlap!r}")

    @staticmethod
    def _check_map(st, entry, outcome: Outcome) -> str | None:
        import numpy as np
        import states

        if "error" in entry:
            return f"cavres wigner raised {entry['error']}"
        if entry["rc"] != 0:
            return f"cavres wigner exited with {entry['rc']}"
        outcome.bytes_written += len(entry["text"].encode())
        try:
            xs, ys, values = parse_wigner(entry["text"])
        except (ValueError, IndexError) as exc:
            return f"output does not parse back: {_error(exc)}"
        outcome.points += values.size
        if xs.size != st.axis.size or np.max(np.abs(xs - st.axis)) > 1e-8 \
                or np.max(np.abs(ys - st.axis)) > 1e-8:
            return "output axes differ from the requested grid"
        worst, where = 0.0, None
        for iy, ix in st.spots:
            xi = complex(st.axis[ix], st.axis[iy])
            err = abs(values[iy, ix] - states.wigner_oracle(st.rho, xi))
            if err > worst:
                worst, where = err, xi
        if worst > states.ORACLE_TOL:
            return f"W is off the oracle by {worst:.3g} at xi = {where:.3f}"
        return None


WORKLOADS = {
    "cat2_preset": Trajectory("cat2_preset"),
    "wigner_states": WignerStates(),
    "micromaser": Trajectory("micromaser"),
    "banana_cached": Trajectory("banana_cached"),
}


def install_trace(tracer) -> None:
    """Wrap each layer's public entry points where their callers look them up."""
    import cavres.cli as cli
    import cavres.dynamics as dynamics
    import cavres.metrics as metrics
    import cavres.reservoir as reservoir
    import cavres.scenarios as scenarios
    import cavres.thermal as thermal

    tracer.span(reservoir, "validate_density", "fock.validate_density")
    tracer.span(thermal.ThermalPropagator, "__init__", "thermal.build")
    tracer.span(thermal.ThermalPropagator, "apply", "thermal.apply")
    tracer.span(thermal.ThermalPropagator, "apply_batched", "thermal.apply")
    tracer.span(dynamics.TransitKernel, "__init__", "dynamics.kernel_build")
    tracer.span(dynamics.TransitKernel, "propagate", "dynamics.propagate")
    tracer.span(dynamics.TransitKernel, "propagate_batched", "dynamics.propagate")
    tracer.span(scenarios, "run_trajectory", "reservoir.trajectory",
                count=lambda a, kw: a[1].n_samples, count_name="reservoir.samples")
    tracer.span(reservoir, "sample_map", "reservoir.sample_map")
    tracer.span(reservoir, "relax", "reservoir.relax")
    tracer.span(reservoir, "build_sample_superop", "reservoir.superop_build")
    for name in ("mean_photon", "purity", "overlap_fidelity"):
        tracer.span(reservoir, name, "metrics.snapshot")
    tracer.span(metrics, "wigner", "metrics.wigner",
                count=lambda a, kw: len(a[1]) * len(a[2]), count_name="metrics.wigner.points")
    tracer.span(metrics, "fit_cat", "metrics.fit_cat")
    tracer.counter(metrics, "ideal_mfss", "metrics.fit_cat.evals")
    tracer.span(scenarios, "run_scenario", "scenarios.run")
    tracer.span(scenarios, "state_to_text", "scenarios.serialize")
    tracer.span(metrics, "records_to_csv", "scenarios.serialize")
    tracer.span(metrics, "wigner_to_text", "scenarios.serialize")
    tracer.span(scenarios, "state_from_text", "scenarios.parse")
    tracer.span(cli, "main", "cli.main",
                on_result=lambda rc: ("cli.main.nonzero_exits", int(rc != 0)))
