"""Per-sample reservoir map, trajectories, and the sparse sample operator."""

import numpy as np
import pytest

from cavres.fock import (
    HilbertConfig,
    TruncationError,
    coherent_state,
    density,
    fock_state,
    validate_density,
)
from cavres.thermal import CavityParams
from cavres.dynamics import TransitKernel, TransitProfile, theta_of
import cavres.metrics as met
import cavres.reservoir as res
import cavres.scenarios as sc

OMEGA0 = 2 * np.pi * 50e3
WAIST = 6e-3

CAT2 = TransitProfile(omega0=OMEGA0, w=WAIST, v=70.0, delta_disp=2.2 * OMEGA0, t_r=5e-6)
RESONANT = TransitProfile(omega0=OMEGA0, w=WAIST, v=300.0, delta_disp=0.0, t_r=1.7e-6)
# atom angles of the gate tests: below, at and above the cat presets' u
U_VALUES = (0.3 * np.pi, 0.45 * np.pi, 0.5 * np.pi)


def random_density(dim, seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


class TestConfigValidation:
    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            res.ReservoirConfig(profile=CAT2, u=0.3, p_at=1.5)

    def test_monte_carlo_requires_seed(self):
        with pytest.raises(ValueError):
            res.ReservoirConfig(profile=CAT2, u=0.3, mixing_mode="monte_carlo")

    def test_rejects_unknown_modes(self):
        with pytest.raises(ValueError):
            res.ReservoirConfig(profile=CAT2, u=0.3, mixing_mode="quantum")
        with pytest.raises(ValueError):
            res.ReservoirConfig(profile=CAT2, u=0.3, backend="magic")


class TestRelax:
    def test_zero_duration_identity(self):
        rho = random_density(10, seed=0)
        out = res.relax(rho, 0.0, CavityParams())
        assert np.max(np.abs(out - rho)) < 1e-14

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            res.relax(random_density(5, seed=1), -1e-3, CavityParams())


class TestSampleMap:
    def test_vacuum_is_resonant_pointer_state(self):
        # ground atoms cannot emit into vacuum, vacuum has nothing to absorb
        cfg = HilbertConfig(n_max=12)
        vac = density(fock_state(0, cfg))
        config = res.ReservoirConfig(
            profile=RESONANT, u=0.0, cavity=None, backend="analytic"
        )
        out = res.sample_map(vac, config)
        assert np.max(np.abs(out - vac)) == 0.0

    def test_no_atoms_is_pure_relaxation(self):
        cfg = HilbertConfig(n_max=15)
        rho = density(coherent_state(0.8, cfg))
        cav = CavityParams()
        config = res.ReservoirConfig(profile=CAT2, u=0.2, cavity=cav, p_at=0.0)
        out = res.sample_map(rho, config)
        want = res.relax(rho, CAT2.t_i, cav)
        assert np.max(np.abs(out - want)) < 1e-14

    def test_preserves_density_invariants(self):
        cfg = HilbertConfig(n_max=14)
        rho = random_density(cfg.dim, seed=5)
        config = res.ReservoirConfig(
            profile=CAT2, u=0.45 * np.pi, cavity=CavityParams(), p_at=0.3
        )
        validate_density(res.sample_map(rho, config))

    def test_affine_in_the_state(self):
        cfg = HilbertConfig(n_max=10)
        rho1 = random_density(cfg.dim, seed=1)
        rho2 = random_density(cfg.dim, seed=2)
        lam = 0.37
        config = res.ReservoirConfig(
            profile=CAT2, u=0.45 * np.pi, cavity=CavityParams(), p_at=0.3
        )
        mixed = res.sample_map(lam * rho1 + (1 - lam) * rho2, config)
        parts = lam * res.sample_map(rho1, config) + (1 - lam) * res.sample_map(
            rho2, config
        )
        assert np.max(np.abs(mixed - parts)) < 1e-10

    def test_monte_carlo_reproducible(self):
        cfg = HilbertConfig(n_max=12)
        rho = density(coherent_state(0.6, cfg))
        config = res.ReservoirConfig(
            profile=RESONANT,
            u=0.1,
            cavity=None,
            mixing_mode="monte_carlo",
            seed=77,
            backend="analytic",
        )
        out1 = res.sample_map(rho, config)
        out2 = res.sample_map(rho, config)
        assert np.array_equal(out1, out2)

    def test_monte_carlo_matches_deterministic_in_expectation(self):
        # statistical oracle: 1e4 seeded one-step draws against the mixture
        cfg = HilbertConfig(n_max=15)
        rho = density(coherent_state(0.8, cfg))
        det = res.ReservoirConfig(
            profile=RESONANT, u=0.3, cavity=None, p_at=0.3, backend="analytic"
        )
        want = met.mean_photon(res.sample_map(rho, det))
        n_runs = 10_000
        vals = np.empty(n_runs)
        for r in range(n_runs):
            mc = res.ReservoirConfig(
                profile=RESONANT,
                u=0.3,
                cavity=None,
                p_at=0.3,
                mixing_mode="monte_carlo",
                seed=r,
                backend="analytic",
            )
            vals[r] = met.mean_photon(res.sample_map(rho, mc))
        se = vals.std(ddof=1) / np.sqrt(n_runs)
        assert abs(vals.mean() - want) < 3 * se


class TestTrajectory:
    def test_zero_samples_records_initial_state(self):
        cfg = HilbertConfig(n_max=10)
        rho0 = density(coherent_state(0.5, cfg))
        config = res.ReservoirConfig(
            profile=RESONANT, u=0.1, cavity=None, n_samples=0, backend="analytic"
        )
        traj = res.run_trajectory(rho0, config)
        assert len(traj.records) == 1
        assert traj.records[0].sample_index == 0
        assert np.max(np.abs(traj.final_state - rho0)) == 0.0

    def test_record_grid_and_length(self):
        cfg = HilbertConfig(n_max=10)
        rho0 = density(fock_state(0, cfg))
        config = res.ReservoirConfig(
            profile=RESONANT, u=0.1, cavity=None, n_samples=7, backend="analytic"
        )
        traj = res.run_trajectory(rho0, config)
        assert len(traj.records) == 8
        for j, rec in enumerate(traj.records):
            assert rec.sample_index == j
            assert rec.time == pytest.approx(j * RESONANT.t_i, rel=1e-12)

    def test_deterministic_runs_are_identical(self):
        cfg = HilbertConfig(n_max=12)
        rho0 = density(fock_state(0, cfg))
        config = res.ReservoirConfig(
            profile=CAT2,
            u=0.45 * np.pi,
            cavity=CavityParams(),
            n_samples=5,
        )
        ref = fock_state(0, cfg)
        t1 = res.run_trajectory(rho0, config, reference=ref)
        t2 = res.run_trajectory(rho0, config, reference=ref)
        assert np.array_equal(t1.final_state, t2.final_state)
        assert t1.records == t2.records

    def test_fidelity_column(self):
        cfg = HilbertConfig(n_max=10)
        rho0 = density(fock_state(0, cfg))
        config = res.ReservoirConfig(
            profile=RESONANT, u=0.1, cavity=None, n_samples=2, backend="analytic"
        )
        bare = res.run_trajectory(rho0, config)
        assert np.isnan(bare.records[1].fidelity)
        ref = fock_state(0, cfg)
        tracked = res.run_trajectory(rho0, config, reference=ref)
        assert tracked.records[0].fidelity == pytest.approx(1.0)

    def test_observer_hook(self):
        cfg = HilbertConfig(n_max=10)
        rho0 = density(fock_state(0, cfg))
        config = res.ReservoirConfig(
            profile=RESONANT, u=0.2, cavity=None, n_samples=3, backend="analytic"
        )
        calls = []

        def observer(j, rho):
            calls.append(j)
            rho[:] = 0.0  # must not corrupt the evolution: it is a copy
            return j * 10

        traj = res.run_trajectory(rho0, config, observer=observer)
        assert calls == [0, 1, 2, 3]
        assert traj.observations == [(0, 0), (1, 10), (2, 20), (3, 30)]
        assert abs(np.trace(traj.final_state) - 1.0) < 1e-10

    def test_truncation_abort_names_the_sample(self):
        # a basis far too small for the pumped photon number must abort
        cfg = HilbertConfig(n_max=6)
        rho0 = density(fock_state(0, cfg))
        config = res.ReservoirConfig(
            profile=CAT2, u=0.45 * np.pi, cavity=CavityParams(), n_samples=200
        )
        with pytest.raises(TruncationError, match="sample"):
            res.run_trajectory(rho0, config)

    def test_invariant_violation_reports_index(self):
        bad = np.eye(8, dtype=complex) * (0.9 / 8)
        with pytest.raises(res.TrajectoryError) as err:
            res._police_state(bad, 17, HilbertConfig(n_max=7))
        assert err.value.sample_index == 17


class TestSwitchOff:
    def test_zero_extra_time_unchanged(self):
        cfg = HilbertConfig(n_max=10)
        rho0 = density(fock_state(1, cfg))
        config = res.ReservoirConfig(
            profile=RESONANT, u=0.1, cavity=CavityParams(), n_samples=2,
            backend="analytic",
        )
        traj = res.run_trajectory(rho0, config)
        assert res.switch_off_decay(traj, 0.0, config) is traj

    def test_decays_to_vacuum_without_thermal_photons(self):
        cfg = HilbertConfig(n_max=14)
        cav = CavityParams(t_c=2e-3, n_t=0.0)
        config = res.ReservoirConfig(
            profile=CAT2, u=0.45 * np.pi, cavity=cav, n_samples=3
        )
        rho0 = density(coherent_state(1.2, cfg))
        traj = res.run_trajectory(rho0, config)
        vac = fock_state(0, cfg)
        longer = res.switch_off_decay(traj, 0.04, config, reference=vac)
        assert longer.records[-1].fidelity > 1 - 1e-4
        # same period grid, indices continue
        assert longer.records[len(traj.records)].sample_index == 4
        step = longer.records[-1].time - longer.records[-2].time
        assert step == pytest.approx(CAT2.t_i, rel=1e-12)


class TestSuperoperatorCache:
    def test_matches_direct_numeric_map(self):
        cfg = HilbertConfig(n_max=12)
        config = res.ReservoirConfig(
            profile=CAT2, u=0.45 * np.pi, cavity=CavityParams(), p_at=0.3
        )
        s_mat = res.build_sample_superop(config, cfg)
        for seed in range(3):
            rho = random_density(cfg.dim, seed=seed)
            want = res.sample_map(rho, config)
            got = (s_mat @ rho.reshape(-1)).reshape(cfg.dim, cfg.dim)
            assert np.max(np.abs(got - want)) < 1e-8

    def test_no_atoms_reduces_to_relaxation(self):
        cfg = HilbertConfig(n_max=9)
        config = res.ReservoirConfig(
            profile=CAT2, u=0.1, cavity=CavityParams(), p_at=0.0
        )
        s_mat = res.build_sample_superop(config, cfg)
        rho = random_density(cfg.dim, seed=3)
        want = res.relax(rho, CAT2.t_i, CavityParams())
        got = (s_mat @ rho.reshape(-1)).reshape(cfg.dim, cfg.dim)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_rejects_monte_carlo(self):
        # the operator holds the deterministic numeric map only; the path
        # rule in run_trajectory never sends other configurations here
        cfg = HilbertConfig(n_max=8)
        for config in (
            res.ReservoirConfig(profile=CAT2, u=0.1, mixing_mode="monte_carlo", seed=1),
            res.ReservoirConfig(profile=CAT2, u=0.1, backend="analytic"),
        ):
            with pytest.raises(ValueError):
                res.build_sample_superop(config, cfg)

    @pytest.mark.parametrize("n_max", [8, 24])
    def test_matches_sample_map_for_every_u_and_p_at(self, n_max):
        cfg = HilbertConfig(n_max=n_max)
        states = [random_density(cfg.dim, seed=seed) for seed in (11, 12)]
        for cavity in (CavityParams(), None):
            for u in U_VALUES:
                for p_at in (0.3, 1.0):
                    config = res.ReservoirConfig(
                        profile=CAT2, u=u, cavity=cavity, p_at=p_at
                    )
                    s_mat = res.build_sample_superop(config, cfg)
                    for rho in states:
                        want = res.sample_map(rho, config)
                        got = (s_mat @ rho.reshape(-1)).reshape(cfg.dim, cfg.dim)
                        assert np.max(np.abs(got - want)) < 1e-12

    def test_branch_maps_are_built_once_for_all_u(self, monkeypatch, tmp_path):
        # the three branch maps hold no u: three values of u cost 3 dim probe
        # propagations in all, whether built directly or by a serial sweep
        pushed = []
        propagate = TransitKernel.propagate_batched

        def spy(kernel, stack):
            pushed.append(len(stack))
            return propagate(kernel, stack)

        monkeypatch.setattr(TransitKernel, "propagate_batched", spy)
        cfg = HilbertConfig(n_max=8)
        res._branch_maps.cache_clear()
        for u in U_VALUES:
            config = res.ReservoirConfig(profile=CAT2, u=u, cavity=CavityParams())
            res.build_sample_superop(config, cfg)
        assert sum(pushed) == 3 * cfg.dim

        pushed.clear()
        res._branch_maps.cache_clear()
        dim = 16
        config = sc.build_config({
            "hilbert.n_max": str(dim - 1),
            "profile.v": "70",
            "profile.t_r": "5 us",
            "profile.delta": "2.2 omega0",
            "reservoir.u": "0.3pi",
            "reservoir.n_samples": str(3 * dim),
            "analysis.wigner_grid": "-1:1:1",
        })
        sc.sweep_scenario(
            config, "reservoir.u", ["0.3pi", "0.45pi", "0.5pi"], out_dir=tmp_path
        )
        assert sum(pushed) == 3 * dim

    @pytest.mark.parametrize("extra, builds_expected", [(-1, 0), (0, 1)])
    def test_path_rule_boundary(self, monkeypatch, extra, builds_expected):
        # run_trajectory switches to the operator at n_samples = 3 dim = 33,
        # not one sample earlier
        cfg = HilbertConfig(n_max=10)
        rho0 = density(fock_state(0, cfg))
        config = res.ReservoirConfig(
            profile=CAT2, u=0.3 * np.pi, cavity=CavityParams(),
            n_samples=3 * cfg.dim + extra,
        )
        builds = []
        build = res.build_sample_superop
        monkeypatch.setattr(
            res, "build_sample_superop", lambda *a: builds.append(a) or build(*a)
        )
        res.run_trajectory(rho0, config)
        assert len(builds) == builds_expected

    def test_cached_trajectory_matches_direct(self, monkeypatch):
        # n_samples = 60 >= 3 dim = 33 sends the run through the sparse
        # operator; u = 0.3 pi keeps the field well inside n_max 10 for 60
        # samples
        cfg = HilbertConfig(n_max=10)
        rho0 = density(fock_state(0, cfg))
        config = res.ReservoirConfig(
            profile=CAT2, u=0.3 * np.pi, cavity=CavityParams(), n_samples=60
        )
        builds = []
        build = res.build_sample_superop
        monkeypatch.setattr(
            res, "build_sample_superop", lambda *a: builds.append(a) or build(*a)
        )
        cached = res.run_trajectory(rho0, config)
        assert len(builds) == 1
        rho = rho0
        for j in range(1, config.n_samples + 1):
            rho = res.sample_map(rho, config)
            assert met.mean_photon(rho) == pytest.approx(cached.records[j].n_bar, abs=1e-10)
        assert np.max(np.abs(rho - cached.final_state)) < 1e-10


class TestMicromaser:
    def test_amplitude_formula(self):
        assert res.micromaser_amplitude(0.1, 0.05) == pytest.approx(4.0)

    def test_equilibrium_amplitude(self):
        # weak resonant stream pumps the field to a coherent state 2u/Theta
        t_r = 0.05 / OMEGA0
        prof = TransitProfile(
            omega0=OMEGA0, w=WAIST, v=300.0, delta_disp=0.0, t_r=t_r
        )
        theta = theta_of(prof)
        cfg = HilbertConfig(n_max=45)
        config = res.ReservoirConfig(
            profile=prof, u=0.1, cavity=None, p_at=1.0, backend="analytic"
        )
        rho = density(fock_state(0, cfg))
        for _ in range(12_000):
            rho = res.sample_map(rho, config)
        amp, _, _ = met.field_moments(rho)
        target = res.micromaser_amplitude(0.1, theta)
        assert abs(abs(amp) - target) / target < 0.05
