"""Quantitative acceptance gate for the reservoir simulator.

One test per numbered claim, each printing a single `criterion N ... PASS/FAIL`
line with the measured values so the gate can be audited from the log:

    pytest tests/test_acceptance.py -v -s

The full gate drives every preset end to end and takes a few minutes on one
core; the steady-state regressions (5 through 8) dominate.
"""

import csv
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import cavres.dynamics as dyn
import cavres.metrics as met
import cavres.reservoir as res
import cavres.scenarios as sc
from cavres.fock import HilbertConfig, density, fock_state, ideal_mfss
from oracles import (
    _coeffs_to_matrix,
    coherent_state,
    kerr_propagator,
    rk4_propagator,
    u_resonant,
)

pytestmark = pytest.mark.acceptance

TESTS_DIR = Path(__file__).resolve().parent


def report(num, label, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"\ncriterion {num:2d} [{label}]: {verdict}  {detail}", flush=True)
    assert ok, f"criterion {num} ({label}): {detail}"


def within(value, center, tol):
    return abs(value - center) <= tol


class Cat2Runs:
    """Two identical full cat2 runs plus a loss-free one, shared by 5/9/10."""

    def __init__(self, root):
        config = sc.preset("cat2")
        t0 = time.perf_counter()
        self.summary = sc.run_scenario(config, out_dir=root / "a")
        self.wall = time.perf_counter() - t0
        sc.run_scenario(config, out_dir=root / "b")
        self.dir_a = root / "a"
        self.dir_b = root / "b"
        lossless = sc.with_override(config, "reservoir.loss", "off")
        self.summary_lossless = sc.run_scenario(lossless, out_dir=root / "nl")


@pytest.fixture(scope="module")
def cat2_runs(tmp_path_factory):
    return Cat2Runs(tmp_path_factory.mktemp("cat2-gate"))


def test_c01_composite_is_kerr_conjugated_exchange():
    # the library's Kraus pair, built from a profile's pair coefficients,
    # against the dense Kerr-conjugated exchange (I x K) U_r (I x K)' on the
    # injected atom; each draw scales omega0 to the drawn Theta and the
    # detuning to the drawn phi0 (phi0_of is positive)
    cfg = HilbertConfig(n_max=20)
    dim = cfg.dim
    psi = dyn.atom_ket(0.45 * np.pi)
    base = dyn.TransitProfile(omega0=1.0, w=6e-3, v=70.0, delta_disp=1.0, t_r=5e-6)
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(50):
        prof = replace(base, omega0=rng.uniform(0.0, 2 * np.pi) / dyn.theta_of(base))
        prof = replace(prof, delta_disp=dyn.phi0_of(prof) / (np.pi - rng.uniform(0.0, np.pi)))
        theta, phi0 = dyn.theta_of(prof), dyn.phi0_of(prof)
        k = np.kron(np.eye(2), kerr_propagator(phi0, cfg))
        ref = k @ u_resonant(theta, cfg) @ k.conj().T
        injected = psi[0] * ref[:, :dim] + psi[1] * ref[:, dim:]
        coeffs = res._crossing_coefficients(prof, "analytic", dim)
        for got, want in zip(res._kraus_pair(coeffs, psi),
                             (injected[:dim], injected[dim:])):
            worst = max(worst, float(np.max(np.abs(got.toarray() - want))))
    wall = time.perf_counter() - t0
    ok = worst < 1e-12 and wall < 10.0
    report(1, "composite identity", ok,
           f"max entry dev {worst:.2e} < 1e-12 over 50 draws, {wall:.1f}s < 10s")


def test_c02_transit_matches_closed_forms():
    t0 = time.perf_counter()
    # resonant, constant coupling: integrated propagator vs exchange form
    cfg = HilbertConfig(n_max=30)
    omega0 = sc.OMEGA0_DEFAULT
    theta = 1.3
    t_span = theta / omega0
    u_num = rk4_propagator(lambda t: omega0, 0.0, 0.0, t_span, 512, cfg)
    res_norm = float(np.linalg.norm(u_num - u_resonant(theta, cfg), 2))

    # far-detuned exit wing of the squeeze profile (the kernel's slices after
    # the resonant one) vs pure number-dependent phases
    prof = sc.preset("squeeze").reservoir.profile
    kernel = dyn.TransitKernel(prof, cfg)
    u = np.eye(2 * cfg.dim, dtype=complex)
    for coeffs in kernel.slices[kernel.options.loss_slices + 1:]:
        u = _coeffs_to_matrix(coeffs, cfg) @ u
    phi0 = dyn.phi0_of(prof)
    n = np.arange(cfg.dim)
    gg = np.diag(u)[: cfg.dim]
    ee = np.diag(u)[cfg.dim:]
    # the n = 0 entry fixes the residual interaction-frame phase per block
    gg_dev = np.max(np.abs(np.angle(gg * np.conj(gg[0]) * np.exp(1j * phi0 * n))))
    # |e, n_max> has no partner level and carries no light shift
    ee_dev = np.max(
        np.abs(np.angle(ee * np.conj(ee[0]) * np.exp(-1j * phi0 * n))[:-1])
    )
    disp_dev = float(max(gg_dev, ee_dev))
    wall = time.perf_counter() - t0
    ok = res_norm < 1e-6 and disp_dev < 2e-2 and wall < 60.0
    report(2, "transit vs closed forms", ok,
           f"resonant opnorm {res_norm:.2e} < 1e-6, "
           f"dispersive phase dev {disp_dev:.2e} < 2e-2, {wall:.1f}s < 60s")


def test_c03_kerr_pointer_states():
    cfg = HilbertConfig(n_max=60)
    alpha = 1.65
    psi2 = kerr_propagator(np.pi / 2, cfg) @ coherent_state(alpha, cfg)
    ref2 = ideal_mfss(alpha * np.exp(-1j * np.pi / 2), 2, [np.pi / 2], cfg)
    ov2 = float(abs(ref2.conj() @ psi2) ** 2)

    psi3 = kerr_propagator(np.pi / 3, cfg) @ coherent_state(alpha, cfg)
    fit3 = met.fit_cat(density(psi3), 3)
    ok = ov2 >= 1 - 1e-6 and fit3.fidelity >= 1 - 1e-4
    report(3, "Kerr pointer states", ok,
           f"two-component overlap 1-{1-ov2:.1e} >= 1-1e-6, "
           f"three-component fit 1-{1-fit3.fidelity:.1e} >= 1-1e-4")


def test_c04_micromaser_equilibrium_amplitude():
    t0 = time.perf_counter()
    omega0 = sc.OMEGA0_DEFAULT
    prof = dyn.TransitProfile(
        omega0=omega0, w=6e-3, v=300.0, delta_disp=0.0, t_r=0.05 / omega0
    )
    config = res.ReservoirConfig(
        profile=prof, u=0.1, cavity=None, p_at=1.0,
        backend="analytic", n_samples=25_000,
    )
    cfg = HilbertConfig(n_max=40)
    traj = res.run_trajectory(density(fock_state(0, cfg)), config)
    amp, _, _ = met.field_moments(traj.final_state)
    wall = time.perf_counter() - t0
    ok = abs(abs(amp) - 4.0) / 4.0 < 0.05 and wall < 60.0
    report(4, "micromaser equilibrium", ok,
           f"|<a>| {abs(amp):.4f} within 5% of 4.0, {wall:.1f}s < 60s")


def test_c05_two_cat_steady_state(cat2_runs):
    s = cat2_runs.summary
    ok = (
        within(s["nbar"], 2.72, 0.15)
        and within(s["purity"], 0.51, 0.05)
        and within(s["fidelity"], 0.69, 0.05)
        and cat2_runs.summary_lossless["fidelity"] >= 0.95
        and cat2_runs.wall < 900.0
    )
    report(5, "steady two-component cat", ok,
           f"nbar {s['nbar']:.4f} in 2.72+-0.15, "
           f"P {s['purity']:.4f} in 0.51+-0.05, "
           f"F {s['fidelity']:.4f} in 0.69+-0.05, "
           f"loss-off F {cat2_runs.summary_lossless['fidelity']:.4f} >= 0.95, "
           f"{cat2_runs.wall:.0f}s < 900s")


def test_c06_three_cat_steady_state():
    config = sc.preset("cat3")
    traj = res.run_trajectory(
        density(fock_state(0, config.hilbert)), config.reservoir
    )
    nbar = met.mean_photon(traj.final_state)
    pur = met.purity(traj.final_state)
    fit = met.fit_cat(traj.final_state, 3)
    ok = (
        within(nbar, 2.70, 0.15)
        and within(pur, 0.56, 0.05)
        and within(fit.fidelity, 0.73, 0.05)
    )
    report(6, "steady three-component cat", ok,
           f"nbar {nbar:.4f} in 2.70+-0.15, P {pur:.4f} in 0.56+-0.05, "
           f"F {fit.fidelity:.4f} in 0.73+-0.05")


def test_c07_squeezed_steady_state():
    config = sc.preset("squeeze")
    traj = res.run_trajectory(
        density(fock_state(0, config.hilbert)), config.reservoir
    )
    nbar = met.mean_photon(traj.final_state)
    db, _ = met.squeezing_db(traj.final_state)
    ok = within(nbar, 21.0, 2.0) and within(db, 1.5, 0.3)
    report(7, "steady squeezed state", ok,
           f"nbar {nbar:.4f} in 21+-2, squeezing {db:.4f} dB in 1.5+-0.3")


def test_c08_banana_steady_state():
    config = sc.preset("banana")
    traj = res.run_trajectory(
        density(fock_state(0, config.hilbert)), config.reservoir
    )
    nbar = met.mean_photon(traj.final_state)
    pur = met.purity(traj.final_state)
    ok = within(nbar, 3.52, 0.2) and within(pur, 0.91, 0.03)
    report(8, "steady banana state", ok,
           f"nbar {nbar:.4f} in 3.52+-0.2, P {pur:.4f} in 0.91+-0.03")


def test_c09_transient_and_switch_off(cat2_runs):
    # transient: the per-sample fidelity column is evaluated against the
    # fixed best-fit cat of the final state, so sample 200 is the plateau
    with open(cat2_runs.dir_a / "metrics.csv", newline="") as fh:
        rows = {int(r["sample"]): r for r in csv.DictReader(fh)}
    f120 = float(rows[120]["fidelity"])
    f200 = float(rows[200]["fidelity"])
    gap = abs(f120 - f200)

    # switch-off: pure relaxation from the stored final state on the same
    # sampling grid, fidelity against the same reference cat
    config = sc.preset("cat2")
    rho200 = sc.state_from_text((cat2_runs.dir_a / "state_final.txt").read_text())
    fit = met.fit_cat(rho200, 2)
    ref = fit.reference
    t_i = config.reservoir.profile.t_i
    stub = res.TrajectoryResult(
        final_state=rho200,
        records=[met.MetricsRecord(200, 200 * t_i, float(rows[200]["nbar"]),
                                   float(rows[200]["purity"]), f200,
                                   float(rows[200]["trace_err"]))],
        truncation_peak=0.0,
    )
    ext = res.switch_off_decay(stub, 0.30, config.reservoir, reference=ref)
    f_off = [f200] + [r.fidelity for r in ext.records[1:]]
    times = [0.0] + [r.time - 200 * t_i for r in ext.records[1:]]
    floor = f_off[-1]
    half = 0.5 * (f_off[0] + floor)
    t_half = next(t for t, f in zip(times, f_off) if f <= half)
    ok = gap <= 0.02 and 10e-3 <= t_half <= 60e-3
    report(9, "transient and switch-off", ok,
           f"|F(120)-F(200)| {gap:.4f} <= 0.02, "
           f"half-decay {t_half*1e3:.1f} ms in [10, 60] ms "
           f"(F {f_off[0]:.3f} -> floor {floor:.3f})")


def test_c10_property_suites_standalone(cat2_runs):
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", str(TESTS_DIR / "test_properties.py"), "-q"],
        capture_output=True, text=True, cwd=TESTS_DIR.parent,
    )
    identical = all(
        (cat2_runs.dir_a / name).read_bytes() == (cat2_runs.dir_b / name).read_bytes()
        for name in ("metrics.csv", "state_final.txt", "wigner_final.txt")
    )
    ok = proc.returncode == 0 and identical
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "no output"
    report(10, "property suites standalone", ok,
           f"pytest test_properties.py rc={proc.returncode} ({tail}); "
           f"full-preset reruns byte-identical: {identical}")
