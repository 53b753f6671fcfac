"""Transit schedule, analytic propagators, and the numeric integrators."""

import dataclasses
from functools import lru_cache

import numpy as np
import pytest
from scipy.linalg import expm

from cavres.fock import HilbertConfig, density
from cavres import dynamics as dyn
from cavres import reservoir as res
from cavres import scenarios as sc
from cavres.metrics import mean_photon, purity
from cavres.thermal import CavityParams, ThermalPropagator, rate_block
from oracles import (
    ScheduleError,
    _coeffs_to_matrix,
    coherent_state,
    jc_hamiltonian,
    kernel_unitary,
    kerr_propagator,
    phi0_quad,
    rabi_coupling,
    rk4_master,
    rk4_transit_unitary,
    theta_quad,
    u_composite,
    u_dispersive,
    u_resonant,
)

OMEGA0 = 2 * np.pi * 50e3
WAIST = 6e-3

# slow crossing used by the two-component scenario
CAT2 = dyn.TransitProfile(
    omega0=OMEGA0, w=WAIST, v=70.0, delta_disp=2.2 * OMEGA0, t_r=5e-6
)
# fast strongly detuned crossing used by the squeezing scenario
SQUEEZE = dyn.TransitProfile(
    omega0=OMEGA0, w=WAIST, v=300.0, delta_disp=70 * OMEGA0, t_r=1.7e-6
)
BANANA = dyn.TransitProfile(
    omega0=OMEGA0, w=WAIST, v=150.0, delta_disp=7 * OMEGA0, t_r=5e-6
)
CAT3 = dyn.TransitProfile(
    omega0=OMEGA0, w=WAIST, v=70.0, delta_disp=3.7 * OMEGA0, t_r=5e-6
)


def unitarity_defect(u):
    return np.max(np.abs(u.conj().T @ u - np.eye(len(u))))


def analytic_sample(rho_f, profile, u_atom, u):
    """Field after one loss-free analytic sample with an atom, as the run
    path computes it and as Tr_atom of the joint unitary u applied to rho_f
    and the prepared atom."""
    config = res.ReservoirConfig(
        profile, u_atom, cavity=None, p_at=1.0, backend="analytic"
    )
    joint = dyn.embed_with_atom(rho_f, dyn.atom_ket(u_atom))
    return res.sample_map(rho_f, config), dyn.trace_atom(u @ joint @ u.conj().T)


class TestTransitProfile:
    def test_transit_time(self):
        assert CAT2.t_i == pytest.approx(2 * 1.5 * WAIST / 70.0)

    def test_rejects_resonant_span_longer_than_transit(self):
        with pytest.raises(ValueError):
            dyn.TransitProfile(
                omega0=OMEGA0, w=WAIST, v=70.0, delta_disp=0.0, t_r=1.0
            )

    def test_rejects_nonpositive_geometry(self):
        with pytest.raises(ValueError):
            dyn.TransitProfile(omega0=OMEGA0, w=WAIST, v=-3.0, delta_disp=0.0, t_r=1e-6)
        with pytest.raises(ValueError):
            dyn.TransitProfile(omega0=OMEGA0, w=WAIST, v=70.0, delta_disp=-1.0, t_r=1e-6)


class TestSchedule:
    def test_peak_coupling(self):
        assert rabi_coupling(0.0, CAT2) == pytest.approx(OMEGA0)

    def test_window_edge_value(self):
        # at |v t| = 1.5 w the envelope is exp(-2.25) of the peak
        edge = CAT2.t_i / 2
        want = OMEGA0 * 0.10539922456186433
        assert rabi_coupling(edge, CAT2) == pytest.approx(want, rel=1e-12)

    def test_outside_window_raises(self):
        with pytest.raises(ScheduleError):
            rabi_coupling(CAT2.t_i, CAT2)
        with pytest.raises(ScheduleError):
            rabi_coupling(-CAT2.t_i, CAT2)

    def test_detuning_segments(self):
        # +Delta on the approach, 0 across the resonant span, -Delta on the exit
        half_i, half_r = CAT2.t_i / 2, CAT2.t_r / 2
        assert dyn._segments(CAT2) == [
            (-half_i, -half_r, +CAT2.delta_disp),
            (-half_r, +half_r, 0.0),
            (+half_r, +half_i, -CAT2.delta_disp),
        ]

    def test_pulse_areas(self):
        # quadrature of the Gaussian envelope over the resonant windows,
        # frozen from the closed erf forms
        assert dyn.theta_of(CAT2) == pytest.approx(1.570351017877908, rel=1e-9)
        assert dyn.theta_of(SQUEEZE) == pytest.approx(0.5337493701799607, rel=1e-9)
        assert dyn.theta_of(BANANA) == pytest.approx(1.5687534136951802, rel=1e-9)

    def test_dispersive_phases(self):
        # phi0 = -(1/4 delta) int Omega^2 over the strict segment bounds
        assert dyn.phi0_of(CAT2) == pytest.approx(
            1.8231899075379754, rel=1e-9
        )
        assert dyn.phi0_of(CAT3) == pytest.approx(
            1.0840588639414988, rel=1e-9
        )
        assert dyn.phi0_of(SQUEEZE) == pytest.approx(
            0.013071636193054969, rel=1e-9
        )
        assert dyn.phi0_of(BANANA) == pytest.approx(
            0.25250667731891474, rel=1e-9
        )

    def test_zero_detuning_rejected(self):
        flat = dyn.TransitProfile(
            omega0=OMEGA0, w=WAIST, v=70.0, delta_disp=0.0, t_r=5e-6
        )
        with pytest.raises(ValueError, match="dispersive phase undefined for delta_disp = 0"):
            dyn.phi0_of(flat)


# a long window (|v t| <= 3 w) with a short resonant span, and the same
# window with a resonant span of 0.8 t_i, whose dispersive segments lie
# wholly in the tails, 2.4 w <= |v t| <= 3 w
TAIL_SHORT = dyn.TransitProfile(
    omega0=OMEGA0, w=WAIST, v=70.0, delta_disp=2.2 * OMEGA0, t_r=5e-6, window_factor=3.0
)
TAIL_ONLY = dyn.TransitProfile(
    omega0=OMEGA0, w=WAIST, v=70.0, delta_disp=2.2 * OMEGA0,
    t_r=0.8 * 2 * 3.0 * WAIST / 70.0, window_factor=3.0,
)


class TestClosedForms:
    """The erf forms of Theta and phi0 against quadrature of the profile."""

    @pytest.mark.parametrize("profile", [CAT2, CAT3, SQUEEZE, BANANA, TAIL_SHORT],
                             ids=["cat2", "cat3", "squeeze", "banana", "tail_short"])
    def test_match_quadrature(self, profile):
        assert dyn.theta_of(profile) == pytest.approx(theta_quad(profile), rel=4e-16, abs=0)
        # the approach segment's phase is the exit's, negated
        for segment, sign in (("first", -1), ("second", 1)):
            assert sign * dyn.phi0_of(profile) == pytest.approx(
                phi0_quad(profile, segment), rel=4e-16, abs=0
            )

    def test_tail_segments_do_not_cancel(self):
        # erfc(x) at x = sqrt2 v |t| / w <= 4.25 turns a relative rounding d
        # of its argument (a few 1e-16) into about 2 x^2 d, 36 d at most, so
        # the bound is 2e-14; the difference erf(b) - erf(a) of the same
        # bounds misses by 3e-11, since both lie within 1.6e-6 of 1
        assert dyn.theta_of(TAIL_ONLY) == pytest.approx(theta_quad(TAIL_ONLY), rel=4e-16, abs=0)
        for segment, sign in (("first", -1), ("second", 1)):
            assert sign * dyn.phi0_of(TAIL_ONLY) == pytest.approx(
                phi0_quad(TAIL_ONLY, segment), rel=2e-14, abs=0
            )


class TestAnalyticPropagators:
    cfg = HilbertConfig(n_max=14)

    def test_resonant_unitary(self):
        assert unitarity_defect(u_resonant(1.3, self.cfg)) < 1e-10

    def test_pi_pulse_swaps_lowest_pair(self):
        u = u_resonant(np.pi, self.cfg)
        dim = self.cfg.dim
        e0 = np.zeros(2 * dim, dtype=complex)
        e0[dim] = 1.0
        out = u @ e0
        assert abs(out[1] - 1.0) < 1e-14
        # and a 2 pi pulse returns |e,0> with a sign flip
        out2 = u_resonant(2 * np.pi, self.cfg) @ e0
        assert abs(out2[dim] + 1.0) < 1e-14

    def test_exchange_sign_convention(self):
        theta = 0.7
        u = u_resonant(theta, self.cfg)
        dim = self.cfg.dim
        assert u[1, dim + 0] == pytest.approx(+np.sin(theta / 2))
        assert u[dim + 0, 1] == pytest.approx(-np.sin(theta / 2))
        assert u[0, 0] == pytest.approx(1.0)          # |g,0> untouched
        assert u[-1, -1] == pytest.approx(1.0)        # orphaned |e,n_max>

    def test_resonant_is_exponential_of_generator(self):
        theta = 2.1
        gen = jc_hamiltonian(1.0, 0.0, self.cfg)
        want = expm(-1j * theta * gen)
        got = u_resonant(theta, self.cfg)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_dispersive_diagonal(self):
        phi0 = 0.37
        u = u_dispersive(phi0, self.cfg)
        dim = self.cfg.dim
        n = np.arange(dim)
        assert np.max(np.abs(np.diag(u)[:dim] - np.exp(-1j * phi0 * n))) < 1e-14
        assert np.max(np.abs(np.diag(u)[dim:] - np.exp(1j * phi0 * (n + 1)))) < 1e-14
        assert unitarity_defect(u) < 1e-10

    def test_composite_equals_kerr_conjugation(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            theta, phi0 = rng.uniform(0, 2 * np.pi, size=2)
            uc = u_composite(theta, phi0, self.cfg)
            k = np.kron(np.eye(2), kerr_propagator(phi0, self.cfg))
            ref = k @ u_resonant(theta, self.cfg) @ k.conj().T
            assert np.max(np.abs(uc - ref)) < 1e-12

    def test_hamiltonian_structure(self):
        h = jc_hamiltonian(OMEGA0, 0.3 * OMEGA0, self.cfg)
        assert np.max(np.abs(h - h.conj().T)) < 1e-9
        dim = self.cfg.dim
        n = 4
        assert h[n + 1, dim + n] == pytest.approx(1j * 0.5 * OMEGA0 * np.sqrt(n + 1))


class TestBlockStep:
    cfg = HilbertConfig(n_max=15)

    def test_single_step_matches_matrix_exponential(self):
        omega, delta, dt = 3.1e5, 7.7e5, 2.3e-6
        h = jc_hamiltonian(omega, delta, self.cfg)
        want = expm(-1j * h * dt)
        got = _coeffs_to_matrix(
            dyn._pair_coefficients(omega, delta, dt, self.cfg), self.cfg
        )
        assert np.max(np.abs(got - want)) < 1e-13

    def test_zero_coupling_step_is_pure_detuning_phase(self):
        delta, dt = 5.5e5, 1.1e-6
        u = _coeffs_to_matrix(
            dyn._pair_coefficients(0.0, delta, dt, self.cfg), self.cfg
        )
        dim = self.cfg.dim
        want = np.diag(
            np.concatenate(
                [
                    np.full(dim, np.exp(+0.5j * delta * dt)),
                    np.full(dim, np.exp(-0.5j * delta * dt)),
                ]
            )
        )
        assert np.max(np.abs(u - want)) < 1e-14

    def test_sparse_apply_matches_dense(self):
        rng = np.random.default_rng(3)
        co = dyn._pair_coefficients(2.2e5, -4e5, 3e-6, self.cfg)
        u = _coeffs_to_matrix(co, self.cfg)
        x = rng.normal(size=(2 * self.cfg.dim, 2 * self.cfg.dim)) + 1j * rng.normal(
            size=(2 * self.cfg.dim, 2 * self.cfg.dim)
        )
        assert np.max(np.abs(dyn._apply_left(co, x, self.cfg.dim) - u @ x)) < 1e-12


class TestTransitIntegration:
    cfg = HilbertConfig(n_max=18)

    def test_transit_unitary_is_unitary(self):
        u = kernel_unitary(dyn.TransitKernel(CAT2, self.cfg))
        assert unitarity_defect(u) < 1e-9

    def test_time_reversal(self):
        # flipping the coupling sign (conjugation by sigma_z on the atom)
        # inverts the crossing because Omega(t) is even and delta(t) is odd
        u = kernel_unitary(dyn.TransitKernel(CAT2, self.cfg))
        sz = np.kron(np.diag([1.0, -1.0]), np.eye(self.cfg.dim))
        assert np.max(np.abs(sz @ u @ sz @ u - np.eye(2 * self.cfg.dim))) < 1e-9

    def test_blockstep_agrees_with_rk4(self):
        u_fast = kernel_unitary(dyn.TransitKernel(CAT2, self.cfg))
        u_ref = rk4_transit_unitary(CAT2, self.cfg)
        assert np.linalg.norm(u_fast - u_ref, 2) < 2e-4

    def test_dispersive_segment_phases(self):
        # strongly detuned exit wing, the kernel's slices after the resonant
        # one: numeric block phases follow the photon-number grating of the
        # dispersive limit
        cfg = HilbertConfig(n_max=30)
        kernel = dyn.TransitKernel(SQUEEZE, cfg)
        u = np.eye(2 * cfg.dim, dtype=complex)
        for coeffs in kernel.slices[kernel.options.loss_slices + 1:]:
            u = _coeffs_to_matrix(coeffs, cfg) @ u
        phi0 = dyn.phi0_of(SQUEEZE)
        dim = cfg.dim
        n = np.arange(dim)
        gg = np.diag(u)[:dim]
        ee = np.diag(u)[dim:]
        # strip the residual interaction-frame phase via the n = 0 entry
        gg_rel = np.angle(gg * np.conj(gg[0]) * np.exp(1j * phi0 * n))
        ee_rel = np.angle(ee * np.conj(ee[0]) * np.exp(-1j * phi0 * n))
        assert np.max(np.abs(gg_rel)) < 2e-3
        # the orphaned |e, n_max> level carries no light shift; exclude it
        assert np.max(np.abs(ee_rel[:-1])) < 2e-3

    def test_analytic_backend_matches_composite(self):
        # one loss-free analytic sample with an atom, dispersive wings included
        cfg = HilbertConfig(n_max=20)
        rho_f = density(coherent_state(0.9, cfg))
        u = u_composite(dyn.theta_of(CAT2), dyn.phi0_of(CAT2), cfg)
        got, want = analytic_sample(rho_f, CAT2, 0.45 * np.pi, u)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_analytic_backend_resonant_only(self):
        cfg = HilbertConfig(n_max=12)
        flat = dyn.TransitProfile(
            omega0=OMEGA0, w=WAIST, v=70.0, delta_disp=0.0, t_r=5e-6
        )
        rho_f = density(coherent_state(0.5, cfg))
        u = u_resonant(dyn.theta_of(flat), cfg)
        got, want = analytic_sample(rho_f, flat, 0.1, u)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_embed_trace_roundtrip(self):
        cfg = HilbertConfig(n_max=9)
        rho = density(coherent_state(0.8, cfg))
        atom = dyn.atom_ket(1.1)
        joint = dyn.embed_with_atom(rho, atom)
        assert np.trace(joint) == pytest.approx(1.0)
        assert np.max(np.abs(dyn.trace_atom(joint) - rho)) < 1e-14


@lru_cache(maxsize=4)
def dense_slices(profile, cfg, options=dyn.TransitOptions()):
    """Strang slices of the crossing as dense matrices, each the product of
    its exact frozen-midpoint substeps, paired with the slice duration."""
    d1, res, d2 = dyn._segments(profile)
    n_sub = -(-options.fine_steps // options.loss_slices)
    wings = []
    for t0, t1, delta in (d1, d2):
        tau = (t1 - t0) / options.loss_slices
        dt = tau / n_sub
        run = []
        for k in range(options.loss_slices):
            u = np.eye(2 * cfg.dim, dtype=complex)
            for j in range(n_sub):
                mid = t0 + k * tau + dt * (j + 0.5)
                omega = profile.omega0 * np.exp(-((profile.v * mid / profile.w) ** 2))
                step = dyn._pair_coefficients(omega, delta, dt, cfg)
                u = _coeffs_to_matrix(step, cfg) @ u
            run.append((u, tau))
        wings.append(run)
    resonant = (u_resonant(dyn.theta_of(profile), cfg), res[1] - res[0])
    return wings[0] + [resonant] + wings[1]


def relax_joint_per_diagonal(stack, duration, cavity, blocks_by_duration):
    """exp(L t) on each atom block of joint states, one field diagonal at a time."""
    m, size = stack.shape[0], stack.shape[1]
    dim = size // 2
    if duration not in blocks_by_duration:
        blocks_by_duration[duration] = [
            expm(rate_block(d, dim, cavity) * duration) for d in range(dim)
        ]
    blocks = stack.reshape(m, 2, dim, 2, dim).transpose(0, 1, 3, 2, 4).reshape(-1, dim, dim)
    out = np.empty_like(blocks)
    for d, block in enumerate(blocks_by_duration[duration]):
        r, c = np.arange(dim - d), np.arange(d, dim)
        out[:, r, c] = blocks[:, r, c] @ block.T
        out[:, c, r] = blocks[:, c, r] @ block.T
    return out.reshape(m, 2, 2, dim, dim).transpose(0, 1, 3, 2, 4).reshape(m, size, size)


def oracle_propagate(stack, profile, cfg, cavity):
    """Dense slice-by-slice crossing, each slice between two loss half-steps."""
    cache = {}
    out = stack
    for u, tau in dense_slices(profile, cfg):
        if cavity is not None:
            out = relax_joint_per_diagonal(out, tau / 2, cavity, cache)
        out = u @ out @ u.conj().T
        if cavity is not None:
            out = relax_joint_per_diagonal(out, tau / 2, cavity, cache)
    return out


def random_joint_states(dim, count, seed):
    rng = np.random.default_rng(seed)
    shape = (count, 2 * dim, 2 * dim)
    g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    rho = g @ g.conj().transpose(0, 2, 1)
    return rho / np.trace(rho, axis1=1, axis2=2)[:, None, None]


class TestKernelAgainstDenseOracle:
    # n_max 40: three loss stacks of 14, 14 and 13 offsets
    @pytest.mark.parametrize("n_max", [8, 24, 40])
    @pytest.mark.parametrize("lossy", [False, True])
    def test_propagation_matches(self, n_max, lossy):
        # Hermitian states and non-Hermitian matrices: the kernel holds its
        # state transposed after every other slice, where mixing up a
        # transpose with a conjugate would hide on Hermitian input alone
        cfg = HilbertConfig(n_max=n_max)
        cavity = CavityParams() if lossy else None
        kernel = dyn.TransitKernel(CAT2, cfg, cavity)
        rng = np.random.default_rng(n_max)
        skew = random_matrices(2 * cfg.dim, 2, rng) / (2 * cfg.dim)
        stack = np.concatenate([random_joint_states(cfg.dim, 5, seed=n_max), skew])
        want = oracle_propagate(stack, CAT2, cfg, cavity)
        assert np.max(np.abs(kernel.propagate_batched(stack) - want)) < 1e-12
        assert np.max(np.abs(kernel.propagate(stack[0]) - want[0])) < 1e-12

    @pytest.mark.parametrize("n_max", [8, 24])
    def test_unitary_matches(self, n_max):
        cfg = HilbertConfig(n_max=n_max)
        want = np.eye(2 * cfg.dim, dtype=complex)
        for u, _ in dense_slices(CAT2, cfg):
            want = u @ want
        got = kernel_unitary(dyn.TransitKernel(CAT2, cfg, CavityParams()))
        assert np.max(np.abs(got - want)) < 1e-12

    def test_loss_steps_are_merged_and_shared(self):
        cfg = HilbertConfig(n_max=8)
        kernel = dyn.TransitKernel(CAT2, cfg, CavityParams())
        n_slices = len(kernel.slices)
        assert n_slices == 2 * dyn.TransitOptions().loss_slices + 1
        assert len(kernel.loss_steps) == n_slices + 1
        # ends, dispersive-dispersive and dispersive-resonant boundaries
        assert len({id(p) for p in kernel.loss_steps}) == 3
        total = sum(p.duration for p in kernel.loss_steps)
        assert total == pytest.approx(CAT2.t_i, rel=1e-12)


def preset_profiles():
    """The four presets' profiles, and cat2's without detuning."""
    profiles = {name: sc.preset(name).reservoir.profile for name in sc.PRESET_NAMES}
    profiles["cat2_resonant"] = dataclasses.replace(profiles["cat2"], delta_disp=0.0)
    return profiles


class TestKernelSymmetries:
    # the kernel composes the approach wing only: exit slice j is approach
    # slice n-1-j mirrored (S(omega, -delta) = P S(omega, delta)^T P), and
    # the step inside a wing is the end half-step squared
    @pytest.mark.parametrize("name", list(preset_profiles()))
    def test_exit_wing_mirrors_approach_wing(self, name):
        profile = preset_profiles()[name]
        cfg = HilbertConfig(n_max=30)
        options = dyn.TransitOptions()
        kernel = dyn.TransitKernel(profile, cfg, None, options)
        t0, t1, delta = dyn._segments(profile)[2]
        n_slices = options.loss_slices
        tau = (t1 - t0) / n_slices
        n_sub = -(-options.fine_steps // n_slices)
        direct = dyn._frozen_midpoint_steps(
            profile, t0 + tau * np.arange(n_slices), tau, delta, n_sub, cfg
        )
        for k, coeffs in enumerate(kernel.slices[n_slices + 1:]):
            for got, want in zip(coeffs, direct):
                assert np.max(np.abs(got - want[k])) < 1e-14

    def test_build_composes_one_wing_and_two_loss_steps(self, monkeypatch):
        # two expm builds per lossy kernel (end half-step and the step
        # beside the resonant slice), none without loss, and one wing of
        # loss_slices slices composed
        builds, composed = [], []
        init = ThermalPropagator.__init__
        steps = dyn._frozen_midpoint_steps

        def spy_init(prop, duration, cavity, dim):
            builds.append(duration)
            init(prop, duration, cavity, dim)

        def spy_steps(profile, t0, span, delta, n_steps, cfg):
            composed.append(np.shape(t0))
            return steps(profile, t0, span, delta, n_steps, cfg)

        monkeypatch.setattr(ThermalPropagator, "__init__", spy_init)
        monkeypatch.setattr(dyn, "_frozen_midpoint_steps", spy_steps)
        cfg = HilbertConfig(n_max=8)
        n_slices = dyn.TransitOptions().loss_slices
        kernel = dyn.TransitKernel(CAT2, cfg, CavityParams())
        assert len(builds) == 2
        assert composed == [(n_slices,)]
        end, inner = kernel.loss_steps[:2]
        assert inner.duration == 2 * end.duration
        builds.clear()
        composed.clear()
        dyn.TransitKernel(CAT2, cfg, None)
        assert builds == []
        assert composed == [(n_slices,)]


class TestFineSteps:
    def test_step_halving_is_second_order(self):
        # trace distance between the fields after one lossy crossing of
        # (|2><2| + |5><5|)/2 at fine_steps 512, 1024 and 2048: each halving
        # shrinks it about fourfold (3.9-4.1), and the default 1024 sits
        # 3.4e-7 (squeeze) to 1.3e-6 (cat2) from 2048
        cfg = HilbertConfig(n_max=30)
        rho = np.zeros((cfg.dim, cfg.dim), dtype=complex)
        rho[2, 2] = rho[5, 5] = 0.5
        for name in sc.PRESET_NAMES:
            r = sc.preset(name).reservoir
            joint = dyn.embed_with_atom(rho, dyn.atom_ket(r.u))
            fields = [
                dyn.trace_atom(dyn.TransitKernel(
                    r.profile, cfg, r.cavity, dyn.TransitOptions(fine_steps=steps)
                ).propagate(joint))
                for steps in (512, 1024, 2048)
            ]
            coarse, fine = (
                0.5 * np.sum(np.abs(np.linalg.eigvalsh(a - b)))
                for a, b in zip(fields, fields[1:])
            )
            assert 3 <= coarse / fine <= 5, name
            assert fine <= 2e-6, name


def random_matrices(size, count, rng):
    shape = (count, size, size)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestKernelAdjoint:
    @pytest.mark.parametrize("n_max", [8, 16])
    @pytest.mark.parametrize("lossy", [False, True])
    def test_inner_products_match(self, n_max, lossy):
        # <Y, K(X)> = <K'(Y), X> for non-Hermitian joint X and Y
        cfg = HilbertConfig(n_max=n_max)
        kernel = dyn.TransitKernel(CAT2, cfg, CavityParams() if lossy else None)
        adjoint = kernel.adjoint()
        rng = np.random.default_rng(n_max)
        xs, ys = (random_matrices(2 * cfg.dim, 3, rng) for _ in range(2))
        forward, backward = kernel.propagate_batched(xs), adjoint.propagate_batched(ys)
        for x, y, kx, ky in zip(xs, ys, forward, backward):
            want = np.vdot(y, kx)
            assert abs(np.vdot(ky, x) - want) < 1e-12 * abs(want)

    def test_unitary_is_the_adjoint(self):
        kernel = dyn.TransitKernel(CAT2, HilbertConfig(n_max=8), CavityParams())
        adjoint = kernel.adjoint()
        assert np.max(np.abs(kernel_unitary(adjoint) - kernel_unitary(kernel).conj().T)) < 1e-14
        # equal durations still share one loss step
        assert len({id(p) for p in adjoint.loss_steps}) == 3

@pytest.mark.slow
class TestAgainstMasterEquation:
    def test_fast_path_matches_rk4_with_loss(self):
        # one full crossing from vacuum, thermal damping on: the slice
        # decomposition must agree with brute-force integration
        cfg = HilbertConfig(n_max=20)
        cav = CavityParams()
        rho_f = np.zeros((cfg.dim, cfg.dim), dtype=complex)
        rho_f[0, 0] = 1.0
        joint = dyn.embed_with_atom(rho_f, dyn.atom_ket(0.45 * np.pi))
        fast = dyn.TransitKernel(CAT2, cfg, cav).propagate(joint)
        ref = rk4_master(joint, CAT2, cav, cfg)
        assert abs(np.trace(fast).real - 1.0) < 1e-10
        assert np.max(np.abs(fast - ref)) < 1e-5

    def test_convergence_check_passes_for_defaults(self):
        # halving the substep and the Strang slice moves the field's nbar
        # and purity after one lossy crossing by less than 1e-4
        cfg = HilbertConfig(n_max=14)
        cav = CavityParams()
        rho_f = np.zeros((cfg.dim, cfg.dim), dtype=complex)
        rho_f[0, 0] = 1.0
        joint = dyn.embed_with_atom(rho_f, dyn.atom_ket(0.45 * np.pi))
        default = dyn.TransitOptions()
        halved = dyn.TransitOptions(
            fine_steps=2 * default.fine_steps, loss_slices=2 * default.loss_slices
        )
        coarse, fine = (
            dyn.trace_atom(dyn.TransitKernel(CAT2, cfg, cav, opts).propagate(joint))
            for opts in (default, halved)
        )
        assert abs(mean_photon(coarse) - mean_photon(fine)) < 1e-4
        assert abs(purity(coarse) - purity(fine)) < 1e-4
