"""Finite-temperature cavity damping: exact per-diagonal relaxation."""

import numpy as np
import pytest
from scipy.linalg import expm

from cavres.fock import (
    HilbertConfig,
    coherent_state,
    density,
    fock_state,
    make_ladder,
    thermal_state,
    validate_density,
)
from cavres.dynamics import TransitProfile
from cavres.reservoir import ReservoirConfig, build_sample_superop
from cavres.thermal import CavityParams, ThermalPropagator, rate_block
from oracles import dissipator_rhs


def random_density(dim, seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def dense_lindblad_rhs(rho, cavity):
    # operator-form dissipator with products truncated to the same space
    dim = rho.shape[0]
    a = make_ladder(HilbertConfig(n_max=dim - 1))
    ad = a.conj().T
    down = a @ rho @ ad - 0.5 * (ad @ a @ rho + rho @ ad @ a)
    up = ad @ rho @ a - 0.5 * (a @ ad @ rho + rho @ a @ ad)
    return cavity.kappa * (1 + cavity.n_t) * down + cavity.kappa * cavity.n_t * up


def relax_per_diagonal(mats, duration, cavity):
    """exp(L t) on a stack of field matrices, one diagonal block at a time."""
    dim = mats.shape[-1]
    out = np.empty_like(mats)
    for d in range(dim):
        block = expm(rate_block(d, dim, cavity) * duration)
        r, c = np.arange(dim - d), np.arange(d, dim)
        out[:, r, c] = mats[:, r, c] @ block.T
        out[:, c, r] = mats[:, c, r] @ block.T
    return out


class TestCavityParams:
    def test_kappa_is_twice_inverse_field_decay_time(self):
        # t_c is the amplitude 1/e time, so the jump rate is 2/t_c
        assert CavityParams(t_c=0.13, n_t=0.05).kappa == pytest.approx(2 / 0.13)

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            CavityParams(t_c=0.0)
        with pytest.raises(ValueError):
            CavityParams(n_t=-0.01)


class TestRateBlocks:
    def test_population_block_conserves_trace(self):
        # d = 0 generates the populations; its columns must sum to zero
        rb = rate_block(0, 25, CavityParams())
        assert np.max(np.abs(rb.sum(axis=0))) < 1e-12

    def test_matches_operator_form_generator(self):
        cav = CavityParams(t_c=0.02, n_t=0.3)
        rho = random_density(12, seed=3)
        got = dissipator_rhs(rho, cav)
        want = dense_lindblad_rhs(rho, cav)
        assert np.max(np.abs(got - want)) < 1e-12


class TestThermalPropagator:
    def test_zero_duration_is_identity(self):
        rho = random_density(10, seed=1)
        out = ThermalPropagator(0.0, CavityParams(), 10).apply(rho)
        assert np.max(np.abs(out - rho)) < 1e-14

    def test_preserves_trace_hermiticity_positivity(self):
        rho = random_density(20, seed=7)
        out = ThermalPropagator(0.03, CavityParams(n_t=0.4), 20).apply(rho)
        validate_density(out)

    def test_matches_superoperator_exponential(self):
        # independent reference: exp of the vectorized operator-form generator
        dim = 7
        cav = CavityParams(t_c=0.05, n_t=0.2)
        cfg = HilbertConfig(n_max=dim - 1)
        a = make_ladder(cfg)
        ad = a.conj().T
        eye = np.eye(dim)

        def sand(left, right):
            # row-major vec: vec(L rho R) = (L kron R^T) vec(rho)
            return np.kron(left, right.T)

        gen = cav.kappa * (1 + cav.n_t) * (
            sand(a, ad) - 0.5 * sand(ad @ a, eye) - 0.5 * sand(eye, ad @ a)
        ) + cav.kappa * cav.n_t * (
            sand(ad, a) - 0.5 * sand(a @ ad, eye) - 0.5 * sand(eye, a @ ad)
        )
        t = 0.04
        rho = random_density(dim, seed=11)
        want = (expm(gen * t) @ rho.reshape(-1)).reshape(dim, dim)
        got = ThermalPropagator(t, cav, dim).apply(rho)
        assert np.max(np.abs(got - want)) < 1e-10

    def test_coherent_amplitude_decay(self):
        # thermal photons do not change the field amplitude decay rate
        cav = CavityParams()
        cfg = HilbertConfig(n_max=40)
        alpha, t = 1.2, 0.04
        rho = ThermalPropagator(t, cav, cfg.dim).apply(density(coherent_state(alpha, cfg)))
        amp = np.trace(make_ladder(cfg) @ rho)
        assert abs(amp - alpha * np.exp(-cav.kappa * t / 2)) < 1e-9

    def test_relaxes_to_thermal_state(self):
        cav = CavityParams()
        cfg = HilbertConfig(n_max=30)
        rho = ThermalPropagator(3.0, cav, cfg.dim).apply(density(fock_state(3, cfg)))
        assert np.max(np.abs(rho - thermal_state(cav.n_t, cfg))) < 1e-7

    def test_batched_matches_single(self):
        cav = CavityParams(n_t=0.1)
        for dim in (1, 2, 15, 40):
            prop = ThermalPropagator(0.02, cav, dim)
            stack = np.stack([random_density(dim, seed=s) for s in range(4)])
            got = prop.apply_batched(stack.copy())
            # reference: the per-diagonal loop over the same rate blocks
            want = relax_per_diagonal(stack, 0.02, cav)
            assert np.max(np.abs(got - want)) < 1e-13
            for k in range(4):
                assert np.max(np.abs(got[k] - prop.apply(stack[k]))) < 1e-13

    def test_durations_add(self):
        # exp(L a) exp(L b) = exp(L (a+b)): adjacent steps merge exactly
        cav = CavityParams(t_c=0.02, n_t=0.3)
        dim, a, b = 20, 3.1e-4, 1.7e-4
        rho = random_density(dim, seed=4)
        merged = ThermalPropagator(a + b, cav, dim).apply(rho)
        first = ThermalPropagator(b, cav, dim).apply(rho)
        split = ThermalPropagator(a, cav, dim).apply(first)
        assert np.max(np.abs(merged - split)) < 1e-12

    def test_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            ThermalPropagator(0.01, CavityParams(), 6).apply(np.eye(7, dtype=complex))

    def test_joint_acts_blockwise(self):
        cav = CavityParams(n_t=0.2)
        dim = 9
        prop = ThermalPropagator(0.015, cav, dim)
        rng = np.random.default_rng(5)
        joint = rng.normal(size=(2 * dim, 2 * dim)) + 1j * rng.normal(size=(2 * dim, 2 * dim))
        joint = joint @ joint.conj().T
        joint /= np.trace(joint)
        got = prop.apply(joint)
        for i in range(2):
            for j in range(2):
                blk = joint[i * dim:(i + 1) * dim, j * dim:(j + 1) * dim]
                want = prop.apply(blk)
                assert np.max(np.abs(got[i * dim:(i + 1) * dim, j * dim:(j + 1) * dim] - want)) < 1e-12

    def test_superop_matrix_matches_apply(self):
        # the sparse relaxation operator is read off probe matrices sent
        # through apply_batched; with p_at = 0 it is the whole sample operator
        cav = CavityParams(n_t=0.15)
        dim = 8
        omega0 = 2 * np.pi * 50e3
        profile = TransitProfile(
            omega0=omega0, w=6e-3, v=70.0, delta_disp=2.2 * omega0, t_r=5e-6
        )
        config = ReservoirConfig(profile=profile, u=0.3, cavity=cav, p_at=0.0)
        mat = build_sample_superop(config, HilbertConfig(n_max=dim - 1))
        rho = random_density(dim, seed=2)
        want = ThermalPropagator(profile.t_i, cav, dim).apply(rho)
        got = (mat @ rho.reshape(-1)).reshape(dim, dim)
        assert np.max(np.abs(got - want)) < 1e-12


def test_rhs_is_generator_of_propagator():
    cav = CavityParams(n_t=0.1)
    dim = 14
    rho = random_density(dim, seed=9)
    eps = 5e-7
    fwd = ThermalPropagator(eps, cav, dim).apply(rho)
    drho = (fwd - rho) / eps
    ana = dissipator_rhs(rho, cav)
    # forward difference carries O(eps ||L||^2), rates ~ kappa n ~ 2e2/s here
    assert np.max(np.abs(drho - ana)) < 1e-3
    # Richardson combination of E(eps) and E(2 eps) kills the O(eps) term
    fwd2 = ThermalPropagator(2 * eps, cav, dim).apply(rho)
    rich = (4 * fwd - 3 * rho - fwd2) / (2 * eps)
    assert np.max(np.abs(rich - ana)) < 1e-6
