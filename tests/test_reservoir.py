"""Per-sample reservoir map, trajectories, and the sparse sample operator."""

import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse

from cavres.fock import (
    EIG_TOL,
    HilbertConfig,
    TruncationError,
    density,
    fock_state,
    validate_density,
)
from cavres.thermal import CavityParams, ThermalPropagator
from cavres.dynamics import (
    TransitKernel,
    TransitProfile,
    atom_ket,
    get_kernel,
    phi0_of,
    theta_of,
    trace_atom,
)
import cavres.dynamics as dyn
import cavres.metrics as met
import cavres.reservoir as res
import cavres.scenarios as sc
from oracles import (
    analytic_sample,
    coherent_state,
    composite_unitary,
    kernel_unitary,
    kerr_propagator,
    kraus_map,
    micromaser_amplitude,
)

OMEGA0 = 2 * np.pi * 50e3
WAIST = 6e-3

CAT2 = TransitProfile(omega0=OMEGA0, w=WAIST, v=70.0, delta_disp=2.2 * OMEGA0, t_r=5e-6)
RESONANT = TransitProfile(omega0=OMEGA0, w=WAIST, v=300.0, delta_disp=0.0, t_r=1.7e-6)
# atom angles of the gate tests: below, at and above the cat presets' u
U_VALUES = (0.3 * np.pi, 0.45 * np.pi, 0.5 * np.pi)


@pytest.fixture
def builds(monkeypatch):
    """Arguments of every build_sample_superop call run_trajectory makes."""
    calls = []
    build = res.build_sample_superop
    monkeypatch.setattr(res, "build_sample_superop", lambda *a: calls.append(a) or build(*a))
    return calls


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

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            res.ReservoirConfig(profile=CAT2, u=0.3, mixing_mode="monte_carlo", seed=-1)
        assert res.ReservoirConfig(profile=CAT2, u=0.3, seed=0).seed == 0

    @pytest.mark.parametrize("u", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_atom_angle(self, u):
        with pytest.raises(ValueError, match="u must be finite"):
            res.ReservoirConfig(profile=CAT2, u=u)


class TestRelax:
    def test_zero_duration_identity(self):
        rho = random_density(10, seed=0)
        out = res.relax(rho, 0.0, CavityParams())
        assert np.max(np.abs(out - rho)) < 1e-14

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            res.relax(random_density(5, seed=1), -1e-3, CavityParams())

    def test_ideal_cavity_returns_a_copy(self):
        rho = random_density(6, seed=2)
        out = res.relax(rho, CAT2.t_i, None)
        assert out is not rho
        assert np.array_equal(out, rho)


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

    def test_no_atom_branch_goes_through_relax(self, monkeypatch):
        # the branch without an atom calls relax by its module name, with or
        # without a cavity, so a wrapper on reservoir.relax sees every call
        calls = []
        relax = res.relax
        monkeypatch.setattr(res, "relax", lambda *a: calls.append(a[2]) or relax(*a))
        rho = random_density(8, seed=4)
        for cavity in (CavityParams(), None):
            config = res.ReservoirConfig(profile=CAT2, u=0.2, cavity=cavity, p_at=0.0)
            res.sample_map(rho, config)
        assert calls == [CavityParams(), None]

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
            res._police_state(bad, 17, 7)
        assert err.value.sample_index == 17


def low_density(dim, seed):
    """Seeded full-rank state on the lower half of the levels, far from the
    truncation guard."""
    rho = np.zeros((dim, dim), dtype=complex)
    rho[:dim // 2, :dim // 2] = random_density(dim // 2, seed)
    return validate_density(rho)


class TestRunPolicing:
    """run_trajectory polices every sample it makes and names the sample."""

    CFG = HilbertConfig(n_max=10)
    CONFIG = res.ReservoirConfig(
        profile=RESONANT, u=0.2, cavity=None, p_at=1.0, n_samples=6, backend="analytic"
    )

    @staticmethod
    def _planted(monkeypatch, j, bad):
        """Make the j-th sample_map call of the run return bad."""
        calls = []
        sample_map = res.sample_map

        def planted(rho, config, rng=None):
            calls.append(rho)
            out = sample_map(rho, config, rng=rng)
            return bad if len(calls) == j else out

        monkeypatch.setattr(res, "sample_map", planted)
        return calls

    @staticmethod
    def _bad_state(kind, dim):
        rho = density(coherent_state(0.5, HilbertConfig(n_max=dim - 1)))
        if kind == "non-Hermitian":
            rho[0, 1] += 1e-6
        elif kind == "off-trace":
            rho = 1.01 * rho
        elif kind == "NaN":
            rho[2, 1] = np.nan
        else:  # smallest eigenvalue -2 EIG_TOL, unit trace
            rho = np.diag([1.0 + 2 * EIG_TOL, -2 * EIG_TOL] + [0.0] * (dim - 2)).astype(complex)
        return rho

    @pytest.mark.parametrize("kind, message", [
        ("non-Hermitian", "Hermiticity defect 1.000e-06"),
        ("off-trace", "trace 1.01"),
        ("NaN", "Hermiticity defect nan"),
        ("negative", r"negative eigenvalue -2\.000e-08"),
    ])
    @pytest.mark.parametrize("j", [1, 4])
    def test_bad_sample_raises_with_its_index(self, monkeypatch, kind, message, j):
        calls = self._planted(monkeypatch, j, self._bad_state(kind, self.CFG.dim))
        with pytest.raises(res.TrajectoryError, match=f"sample {j}: {message}") as err:
            res.run_trajectory(density(fock_state(0, self.CFG)), self.CONFIG)
        assert err.value.sample_index == j
        assert len(calls) == j

    @pytest.mark.parametrize("level, raises", [(9, False), (10, True)])
    def test_population_above_the_guard_raises(self, monkeypatch, level, raises):
        # 0.9 n_max = 9 exactly at n_max 10: only level 10 lies above it
        bad = np.zeros((self.CFG.dim, self.CFG.dim), dtype=complex)
        bad[0, 0], bad[level, level] = 1.0 - 1e-3, 1e-3
        self._planted(monkeypatch, 3, bad)
        rho0 = density(fock_state(0, self.CFG))
        if raises:
            with pytest.raises(TruncationError, match="sample 3: population 1.00e-03"):
                res.run_trajectory(rho0, self.CONFIG)
        else:
            traj = res.run_trajectory(rho0, self.CONFIG)
            assert len(traj.records) == self.CONFIG.n_samples + 1

    def test_truncation_peak_is_the_largest_tail(self, monkeypatch):
        # a tail below the 1e-4 abort is reported as the run's peak
        bad = np.zeros((self.CFG.dim, self.CFG.dim), dtype=complex)
        bad[0, 0], bad[10, 10] = 1.0 - 5e-5, 5e-5
        self._planted(monkeypatch, 2, bad)
        traj = res.run_trajectory(density(fock_state(0, self.CFG)), self.CONFIG)
        assert traj.truncation_peak >= 5e-5
        assert traj.truncation_peak < 1e-4

    @pytest.mark.parametrize("dim", [8, 17, 41, 61])
    def test_records_match_dense_references(self, dim):
        # every record's nbar, purity and trace error equal Tr(N rho),
        # Tr rho^2 and |Tr rho - 1| of the state it was taken from
        states = []
        config = replace(self.CONFIG, n_samples=4)
        traj = res.run_trajectory(
            low_density(dim, seed=dim), config, observer=lambda j, rho: states.append(rho)
        )
        n_op = np.diag(np.arange(dim))
        for rec, rho in zip(traj.records, states, strict=True):
            assert rec.n_bar == pytest.approx(np.trace(n_op @ rho).real, rel=1e-14, abs=0)
            assert rec.purity == pytest.approx(
                np.einsum("ij,ji->", rho, rho).real, rel=1e-14, abs=0
            )
            assert rec.trace_error == pytest.approx(
                abs(np.trace(rho).real - 1.0), rel=1e-14, abs=0
            )


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

    @pytest.mark.parametrize("mixing_mode", ["deterministic", "monte_carlo"])
    @pytest.mark.parametrize("n_extra, builds_expected", [(5, 0), (30, 1)])
    def test_matches_relaxation_loop(self, builds, mixing_mode, n_extra, builds_expected):
        # the switch-off is run_trajectory with p_at = 0 in deterministic
        # mode: below 3 dim = 27 steps it relaxes directly, from there on it
        # iterates the operator R, even when the run itself was Monte-Carlo
        cfg = HilbertConfig(n_max=8)
        cav = CavityParams(t_c=5e-3, n_t=0.05)
        config = res.ReservoirConfig(
            profile=CAT2, u=0.3 * np.pi, cavity=cav, p_at=1.0, n_samples=2,
            mixing_mode=mixing_mode, seed=4,
        )
        traj = res.run_trajectory(density(fock_state(0, cfg)), config)
        vac = fock_state(0, cfg)
        off = res.switch_off_decay(traj, n_extra * CAT2.t_i, config, reference=vac)
        assert len(builds) == builds_expected
        assert off.records[:3] == traj.records
        assert len(off.records) == 3 + n_extra
        rho = traj.final_state
        for j in range(3, 3 + n_extra):
            rho = res.relax(rho, CAT2.t_i, cav)
            rec = off.records[j]
            assert rec.sample_index == j
            assert rec.time == j * CAT2.t_i
            assert rec.n_bar == pytest.approx(met.mean_photon(rho), abs=1e-12)
            assert rec.fidelity == pytest.approx(met.overlap_fidelity(rho, vac), abs=1e-12)
        assert np.max(np.abs(off.final_state - rho)) < 1e-12

    @pytest.mark.parametrize("cavity", [None, CavityParams()], ids=["loss-free", "lossy"])
    def test_analytic_switch_off_path(self, builds, cavity):
        # an analytic switch-off of 3 dim steps builds no operator: it
        # copies the state without a cavity and relaxes directly with one
        cfg = HilbertConfig(n_max=6)
        config = res.ReservoirConfig(
            profile=RESONANT, u=0.2, cavity=cavity, backend="analytic", n_samples=2
        )
        traj = res.run_trajectory(density(coherent_state(0.5, cfg)), config)
        off = res.switch_off_decay(traj, 3 * cfg.dim * RESONANT.t_i, config)
        assert builds == []
        assert len(off.records) == 3 + 3 * cfg.dim
        rho = traj.final_state
        for _ in range(3 * cfg.dim):
            rho = res.sample_map(rho, replace(config, p_at=0.0))
        assert np.max(np.abs(off.final_state - rho)) < 1e-12


class TestAnalyticSample:
    @pytest.mark.parametrize("n_max", [8, 24])
    def test_matches_oracle(self, n_max):
        # one sparse product, then one relaxation, against the dense Kraus
        # products with each branch relaxed on its own
        cfg = HilbertConfig(n_max=n_max)
        states = [random_density(cfg.dim, seed=seed) for seed in (21, 22)]
        for profile in (RESONANT, CAT2):
            for cavity in (CavityParams(), None):
                for u in U_VALUES:
                    for p_at in (0.0, 0.3, 1.0):
                        config = res.ReservoirConfig(
                            profile=profile, u=u, cavity=cavity, p_at=p_at,
                            backend="analytic",
                        )
                        for rho in states:
                            got = res.sample_map(rho, config)
                            want = analytic_sample(rho, config)
                            assert np.max(np.abs(got - want)) < 1e-12

    def test_monte_carlo_branches_match_oracle(self):
        # a draw is the deterministic sample at p_at 1 or 0, and each
        # sample draws exactly one number from the run's generator
        cfg = HilbertConfig(n_max=8)
        rho = random_density(cfg.dim, seed=23)
        for cavity in (CavityParams(), None):
            config = res.ReservoirConfig(
                profile=CAT2, u=0.45 * np.pi, cavity=cavity, p_at=0.5,
                backend="analytic", mixing_mode="monte_carlo", seed=7,
            )
            rng, draws = np.random.default_rng(7), np.random.default_rng(7)
            branches = set()
            for _ in range(8):
                got = res.sample_map(rho, config, rng=rng)
                p_at = 1.0 if draws.random() < config.p_at else 0.0
                branches.add(p_at)
                drawn = replace(config, p_at=p_at, mixing_mode="deterministic")
                assert np.max(np.abs(got - analytic_sample(rho, drawn))) < 1e-12
            assert branches == {0.0, 1.0}

    @pytest.mark.parametrize("n_max", [40, 60])
    @pytest.mark.parametrize("name", ["cat2", "cat3", "squeeze", "banana"])
    def test_map_matches_dense_build(self, name, n_max):
        # the map built from the Kraus pair's pair coefficients against the
        # pair sliced out of the dense composite crossing: one pattern, and
        # the same entries to rounding
        profile = sc.preset(name).reservoir.profile
        for u in U_VALUES:
            for p_at in (0.3, 1.0):
                got = res._kraus_map(profile, "analytic", u, p_at, n_max + 1)
                want = kraus_map(composite_unitary(profile, n_max + 1), u, p_at)
                assert got.nnz == want.nnz
                assert np.array_equal(got.indices, want.indices)
                assert np.array_equal(got.indptr, want.indptr)
                assert np.max(np.abs(got.data - want.data)) <= 1e-14 * np.max(np.abs(want.data))

    @pytest.mark.parametrize("name", ["cat2", "cat3", "squeeze", "banana"])
    def test_map_is_kerr_conjugate_of_resonant_map(self, name):
        """The dispersive wings act on the analytic map only as a Kerr
        conjugation: with k = exp(-i phi0 n(n+1)) and phi0 = phi0_of(profile),
        S = diag(k (x) conj(k)) S_0 diag(conj(k) (x) k), where S_0 is the map
        of the same profile at delta_disp = 0.  So the loss-free analytic
        pointer state at phi0 is K(phi0) applied to the resonant-only one:
        the abstract's Kerr-evolved pointer state, exact in this model."""
        profile = sc.preset(name).reservoir.profile
        resonant = replace(profile, delta_disp=0.0)
        dim = 31
        k = np.diag(kerr_propagator(phi0_of(profile), HilbertConfig(n_max=dim - 1)))
        kerr = sparse.diags(np.kron(k, k.conj()))
        for u in U_VALUES:
            for p_at in (1.0, 0.3):
                got = res._kraus_map(profile, "analytic", u, p_at, dim)
                s_0 = res._kraus_map(resonant, "analytic", u, p_at, dim)
                want = kerr @ s_0 @ kerr.conj()
                assert abs(got - want).max() <= 1e-12

    def test_resonant_map_is_the_dense_build(self):
        # with no detuning there are no gratings, and every entry is the
        # dense build's to the bit
        for n_max in (16, 40):
            for u in U_VALUES:
                got = res._kraus_map(RESONANT, "analytic", u, 0.3, n_max + 1)
                want = kraus_map(composite_unitary(RESONANT, n_max + 1), u, 0.3)
                for part in ("data", "indices", "indptr"):
                    assert getattr(got, part).tobytes() == getattr(want, part).tobytes()


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

    @pytest.mark.parametrize("n_max", [16, 30])
    @pytest.mark.parametrize("name", ["cat2", "cat3", "squeeze", "banana"])
    def test_lossy_analytic_operator_matches_sample_map(self, name, n_max):
        # S = R times the cached Kraus map, the order in which the sample
        # applies the two
        base = sc.preset(name).reservoir
        cfg = HilbertConfig(n_max=n_max)
        rho = random_density(cfg.dim, seed=n_max)
        for p_at in (0.3, 1.0):
            config = replace(base, backend="analytic", p_at=p_at)
            assert config.cavity is not None
            s_mat = res.build_sample_superop(config, cfg)
            want = res.sample_map(rho, config)
            got = (s_mat @ rho.reshape(-1)).reshape(cfg.dim, cfg.dim)
            assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("cavity", [CavityParams(), None], ids=["lossy", "loss_free"])
    @pytest.mark.parametrize("backend", ["numeric", "analytic"])
    def test_monte_carlo_operator_is_its_deterministic_twins(self, backend, cavity):
        # a Monte-Carlo config's S is the ensemble average: entry for entry
        # the operator of the same config with deterministic mixing
        cfg = HilbertConfig(n_max=8)
        rho = random_density(cfg.dim, seed=21)
        det = res.ReservoirConfig(profile=CAT2, u=0.45 * np.pi, cavity=cavity, backend=backend)
        mc = replace(det, mixing_mode="monte_carlo", seed=4)
        s_det = res.build_sample_superop(det, cfg)
        s_mc = res.build_sample_superop(mc, cfg)
        assert s_mc.nnz == s_det.nnz
        assert (s_mc != s_det).nnz == 0
        got = (s_mc @ rho.reshape(-1)).reshape(cfg.dim, cfg.dim)
        assert np.max(np.abs(got - res.sample_map(rho, det))) < 1e-12

    def test_loss_free_analytic_operator_is_the_kraus_map(self):
        cfg = HilbertConfig(n_max=16)
        for p_at in (0.0, 0.3, 1.0):
            config = res.ReservoirConfig(
                profile=CAT2, u=0.3 * np.pi, cavity=None, p_at=p_at, backend="analytic"
            )
            got = res.build_sample_superop(config, cfg)
            want = res._kraus_map(CAT2, "analytic", config.u, p_at, cfg.dim)
            assert got is not want
            for part in ("data", "indices", "indptr"):
                assert getattr(got, part).tobytes() == getattr(want, part).tobytes()

    def test_loss_free_analytic_operator_is_banded(self):
        # K_g is lower- and K_e upper-bidiagonal: (2 dim - 1)^2 entries per
        # Kraus operator, dim^2 of them shared on the diagonal blocks
        assert res._kraus_map(RESONANT, "analytic", 0.4, p_at=1.0, dim=41).nnz == 11_441

    @pytest.mark.parametrize("n_max", [8, 24])
    def test_matches_sample_map_for_every_u_and_p_at(self, n_max):
        # with a cavity the maps are read off paired probes, and without one
        # the operator is the sample's own Kraus map; at u = 0 and pi the
        # atom enters in one level and the cross maps drop out
        cfg = HilbertConfig(n_max=n_max)
        states = [random_density(cfg.dim, seed=seed) for seed in (11, 12)]
        for cavity in (CavityParams(), None):
            for u in (0.0, *U_VALUES, np.pi):
                for p_at in (0.3, 1.0):
                    config = res.ReservoirConfig(
                        profile=CAT2, u=u, cavity=cavity, p_at=p_at
                    )
                    s_mat = res.build_sample_superop(config, cfg)
                    for rho in states:
                        want = res.sample_map(rho, config)
                        got = (s_mat @ rho.reshape(-1)).reshape(cfg.dim, cfg.dim)
                        assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("n_max", [8, 24])
    def test_branch_maps_act_on_non_hermitian_matrices(self, n_max):
        # two probes share a propagation and part by Hermiticity; states
        # are Hermitian, so only a non-Hermitian X tests each map on its own
        cfg = HilbertConfig(n_max=n_max)
        dim = cfg.dim
        rng = np.random.default_rng(n_max)
        cavity = CavityParams()
        kernel = get_kernel(CAT2, cfg, cavity)
        maps = res._branch_maps(CAT2, cfg, cavity)
        for k_ab, (a, b) in zip(maps, ((0, 0), (1, 1), (0, 1), (1, 0))):
            x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            joint = np.zeros((2 * dim, 2 * dim), dtype=complex)
            joint[a * dim:(a + 1) * dim, b * dim:(b + 1) * dim] = x
            want = trace_atom(kernel.propagate(joint))
            got = (k_ab @ x.reshape(-1)).reshape(dim, dim)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_is_the_sparse_sum_of_its_maps(self):
        # S is summed on the maps' data in place; it equals the plain sparse
        # sum of R and the branch maps bit for bit, exact zeros dropped
        cfg = HilbertConfig(n_max=8)
        cavity = CavityParams()
        k_gg, k_ee, k_ge, k_eg = res._branch_maps(CAT2, cfg, cavity)
        r_map = res.build_sample_superop(
            res.ReservoirConfig(profile=CAT2, u=0.0, cavity=cavity, p_at=0.0), cfg
        )
        for u in (0.0, *U_VALUES):
            for p_at in (0.3, 1.0):
                config = res.ReservoirConfig(profile=CAT2, u=u, cavity=cavity, p_at=p_at)
                psi_g, psi_e = atom_ket(config.u)
                cross = psi_g * np.conj(psi_e)
                a_map = (
                    abs(psi_g) ** 2 * k_gg
                    + abs(psi_e) ** 2 * k_ee
                    + cross * k_ge
                    + np.conj(cross) * k_eg
                )
                want = (1.0 - p_at) * r_map + p_at * a_map
                want.eliminate_zeros()
                got = res.build_sample_superop(config, cfg)
                assert got.nnz == want.nnz
                assert (got != want).nnz == 0

    def test_branch_maps_are_built_once_for_all_u(self, monkeypatch, tmp_path):
        # the branch maps hold no u: three values of u cost one build, read
        # off the adjoint crossing two probes to a matrix (ceil(dim/2) in
        # all), whether built directly or by a serial sweep; R is read off
        # ceil(dim/2) field matrices through the relaxation at each build.
        # A push takes as many matrices as fit in the joint entries of 8 at
        # n_max 60, and at least 8: all 9 at once at n_max 16, 8 at a time
        # at n_max 60
        pushed, relaxed = [], []
        propagate = TransitKernel.propagate_batched
        apply_batched = ThermalPropagator.apply_batched

        def spy(kernel, stack):
            pushed.append(len(stack))
            return propagate(kernel, stack)

        def spy_relax(prop, mats):
            if mats.shape[-1] == prop.dim:
                relaxed.append(len(mats))
            return apply_batched(prop, mats)

        monkeypatch.setattr(TransitKernel, "propagate_batched", spy)
        monkeypatch.setattr(ThermalPropagator, "apply_batched", spy_relax)
        cfg = HilbertConfig(n_max=8)
        # one call of five field matrices per build
        res._branch_maps.cache_clear()
        for u in U_VALUES:
            config = res.ReservoirConfig(profile=CAT2, u=u)
            res.build_sample_superop(config, cfg)
        assert pushed == [5]
        assert relaxed == [5] * len(U_VALUES)

        pushed.clear()
        res._branch_maps.cache_clear()
        dim = 17
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
        assert pushed == [9]

        # a build at n_max 60 takes seconds: its pushes are counted off
        # _probe_images with a stand-in map
        sizes = []

        def stand_in(field):
            sizes.append(len(field))
            return np.zeros((len(field), 122, 122), dtype=complex)

        res._probe_images(stand_in, 61)
        assert sizes == [8, 8, 8, 7]

    def test_a_serial_sweep_keeps_one_build_per_cache(self, tmp_path):
        # each value of a profile.v sweep builds anew, and the caches keep
        # only the scenario running now
        caches = (get_kernel, res._branch_maps, res._relax_propagator, res._kraus_map)
        for cache in caches:
            cache.cache_clear()
        dim = 17
        config = sc.build_config({
            "hilbert.n_max": str(dim - 1),
            "profile.v": "70",
            "profile.t_r": "5 us",
            "profile.delta": "2.2 omega0",
            "reservoir.u": "0.3pi",
            "reservoir.n_samples": str(3 * dim),
            "analysis.wigner_grid": "-1:1:1",
        })
        velocities = ["60", "70", "80"]
        sc.sweep_scenario(config, "profile.v", velocities, out_dir=tmp_path / "numeric")
        analytic = sc.with_override(config, "reservoir.backend", "analytic")
        sc.sweep_scenario(analytic, "profile.v", velocities, out_dir=tmp_path / "analytic")
        assert [cache.cache_info().currsize for cache in caches] == [1, 1, 1, 1]
        assert [cache.cache_info().misses for cache in caches] == [3, 3, 6, 3]

    def test_a_new_key_releases_the_held_builds_first(self, monkeypatch):
        # a serial sweep value peaks at one build: when the next kernel
        # build starts, the previous kernel and branch maps are unreachable
        cfg, cavity = HilbertConfig(n_max=6), CavityParams()
        get_kernel.cache_clear()
        res._branch_maps.cache_clear()
        old_kernel = weakref.ref(get_kernel(CAT2, cfg, cavity))
        old_map = weakref.ref(res._branch_maps(CAT2, cfg, cavity)[0])
        alive = []
        build = dyn.TransitKernel

        def spy(*args, **kwargs):
            gc.collect()
            alive.append((old_kernel(), old_map()))
            return build(*args, **kwargs)

        monkeypatch.setattr(dyn, "TransitKernel", spy)
        res._branch_maps(replace(CAT2, v=80.0), cfg, cavity)
        assert alive == [(None, None)]
        assert [c.cache_info().currsize for c in (get_kernel, res._branch_maps)] == [1, 1]

    @pytest.mark.parametrize("n_max", [8, 24])
    def test_relaxation_acts_on_non_hermitian_matrices(self, n_max):
        # R is read off paired probes through its adjoint like the branch
        # maps; only a non-Hermitian X tests the two probes of a pair apart
        cfg = HilbertConfig(n_max=n_max)
        rng = np.random.default_rng(n_max + 1)
        for cavity in (CavityParams(), None):
            config = res.ReservoirConfig(profile=CAT2, u=0.1, cavity=cavity, p_at=0.0)
            r_map = res.build_sample_superop(config, cfg)
            for _ in range(3):
                x = rng.normal(size=(cfg.dim, cfg.dim)) + 1j * rng.normal(size=(cfg.dim, cfg.dim))
                want = res.relax(x, CAT2.t_i, cavity)
                got = (r_map @ x.reshape(-1)).reshape(cfg.dim, cfg.dim)
                assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("extra, builds_expected", [(-1, 0), (0, 1)])
    def test_path_rule_boundary(self, builds, extra, builds_expected):
        # run_trajectory switches to the operator at n_samples = 3 dim = 33,
        # not one sample earlier
        cfg = HilbertConfig(n_max=10)
        rho0 = density(fock_state(0, cfg))
        config = res.ReservoirConfig(
            profile=CAT2, u=0.3 * np.pi, cavity=CavityParams(),
            n_samples=3 * cfg.dim + extra,
        )
        res.run_trajectory(rho0, config)
        assert len(builds) == builds_expected

    @pytest.mark.parametrize("extra, builds_expected", [(-1, 0), (0, 0), (1, 0)])
    def test_path_rule_boundary_loss_free_analytic(self, builds, extra, builds_expected):
        # the 3 dim rule is numeric-only: no analytic run builds the operator
        cfg = HilbertConfig(n_max=10)
        rho0 = density(fock_state(0, cfg))
        config = res.ReservoirConfig(
            profile=RESONANT, u=0.2, cavity=None, backend="analytic",
            n_samples=3 * cfg.dim + extra,
        )
        res.run_trajectory(rho0, config)
        assert len(builds) == builds_expected

    def test_lossy_analytic_and_monte_carlo_runs_stay_direct(self, builds):
        # S exists for every config, yet at n_samples = 3 dim the path rule
        # takes it for the deterministic numeric run only
        cfg = HilbertConfig(n_max=6)
        rho0 = density(fock_state(0, cfg))
        numeric = res.ReservoirConfig(
            profile=RESONANT, u=0.2, cavity=CavityParams(), n_samples=3 * cfg.dim
        )
        for config in (
            replace(numeric, backend="analytic"),
            replace(numeric, cavity=None, backend="analytic", mixing_mode="monte_carlo", seed=5),
            replace(numeric, mixing_mode="monte_carlo", seed=5),
        ):
            res.run_trajectory(rho0, config)
        assert builds == []
        res.run_trajectory(rho0, numeric)
        assert len(builds) == 1

    def test_loss_free_analytic_trajectory_matches_direct(self, builds):
        # against the oracle's dense Kraus sample, so the run's own sparse
        # map is checked over 3 dim samples, not only its record bookkeeping
        cfg = HilbertConfig(n_max=12)
        rho0 = density(fock_state(0, cfg))
        config = res.ReservoirConfig(
            profile=RESONANT, u=0.2, cavity=None, p_at=0.7, backend="analytic",
            n_samples=3 * cfg.dim,
        )
        cached = res.run_trajectory(rho0, config)
        assert builds == []
        rho = rho0
        for j in range(1, config.n_samples + 1):
            rho = analytic_sample(rho, config)
            assert met.mean_photon(rho) == pytest.approx(cached.records[j].n_bar, abs=1e-12)
        assert np.max(np.abs(rho - cached.final_state)) < 1e-12

    def test_cached_trajectory_matches_direct(self, builds):
        # n_samples = 60 >= 3 dim = 33 sends the run through the sparse
        # operator; u = 0.3 pi keeps the field well inside n_max 10 for 60
        # samples
        cfg = HilbertConfig(n_max=10)
        rho0 = density(fock_state(0, cfg))
        config = res.ReservoirConfig(
            profile=CAT2, u=0.3 * np.pi, cavity=CavityParams(), n_samples=60
        )
        cached = res.run_trajectory(rho0, config)
        assert len(builds) == 1
        rho = rho0
        for j in range(1, config.n_samples + 1):
            rho = res.sample_map(rho, config)
            assert met.mean_photon(rho) == pytest.approx(cached.records[j].n_bar, abs=1e-10)
        assert np.max(np.abs(rho - cached.final_state)) < 1e-10


class TestLossFreeKrausMap:
    """Without a cavity a crossing is one excitation-conserving unitary, so
    both backends act on the field through its two bidiagonal Kraus
    operators, held in one cached map."""

    @pytest.mark.parametrize("n_max", [16, 30])
    @pytest.mark.parametrize("name", ["cat2", "cat3", "squeeze", "banana"])
    def test_numeric_map_matches_kernel_unitary(self, name, n_max):
        # the kernel's slices composed into one set of pair coefficients,
        # against the Kraus pair sliced out of the dense product of the same
        # slices; the map has the analytic map's banded pattern
        profile = sc.preset(name).reservoir.profile
        cfg = HilbertConfig(n_max=n_max)
        dim = cfg.dim
        u_mat = kernel_unitary(TransitKernel(profile, cfg))
        for u in U_VALUES:
            for p_at in (0.3, 1.0):
                config = res.ReservoirConfig(profile=profile, u=u, cavity=None, p_at=p_at)
                got = res.build_sample_superop(config, cfg)
                assert got.nnz == 2 * (2 * dim - 1) ** 2 - dim**2
                assert abs(got - kraus_map(u_mat, u, p_at)).max() <= 1e-15

    @pytest.mark.parametrize("backend", ["numeric", "analytic"])
    @pytest.mark.parametrize("mixing_mode, seed", [("deterministic", None), ("monte_carlo", 5)])
    def test_runs_push_no_state_through_the_kernel(self, monkeypatch, backend, mixing_mode, seed):
        # 3 dim samples: a deterministic numeric run takes the operator, and
        # every run takes the one cached Kraus map, built once
        calls = []
        propagate, branch_maps = TransitKernel.propagate_batched, res._branch_maps
        monkeypatch.setattr(
            TransitKernel, "propagate_batched",
            lambda kernel, stack: calls.append("propagate") or propagate(kernel, stack),
        )
        monkeypatch.setattr(
            res, "_branch_maps", lambda *a: calls.append("branch maps") or branch_maps(*a)
        )
        res._kraus_map.cache_clear()
        cfg = HilbertConfig(n_max=10)
        config = res.ReservoirConfig(
            profile=CAT2, u=0.3 * np.pi, cavity=None, n_samples=3 * cfg.dim,
            mixing_mode=mixing_mode, seed=seed, backend=backend,
        )
        res.run_trajectory(density(fock_state(0, cfg)), config)
        assert calls == []
        assert res._kraus_map.cache_info().misses == 1

    def test_numeric_switch_off_builds_no_kernel(self, monkeypatch, builds):
        # a switch-off of 3 dim steps takes the operator, which without a
        # cavity and with p_at = 0 is the identity
        built = []
        monkeypatch.setattr(dyn, "TransitKernel", lambda *a, **kw: built.append(a))
        get_kernel.cache_clear()
        cfg = HilbertConfig(n_max=10)
        config = res.ReservoirConfig(profile=CAT2, u=0.3 * np.pi, cavity=None, n_samples=0)
        rho0 = density(fock_state(2, cfg))
        traj = res.run_trajectory(rho0, config)
        off = res.switch_off_decay(traj, 3 * cfg.dim * CAT2.t_i, config)
        assert built == []
        assert len(builds) == 1
        assert len(off.records) == 3 * cfg.dim + 1
        assert np.array_equal(off.final_state, rho0)


class TestMicromaser:
    def test_amplitude_formula(self):
        assert micromaser_amplitude(0.1, 0.05) == pytest.approx(4.0)

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
        target = micromaser_amplitude(0.1, theta)
        assert abs(abs(amp) - target) / target < 0.05
