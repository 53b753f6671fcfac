"""Finite-temperature cavity damping: exact per-diagonal relaxation."""

import itertools
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.linalg import expm

from cavres.fock import (
    HilbertConfig,
    density,
    fock_state,
    validate_density,
)
import cavres.reservoir as reservoir
import cavres.thermal as thermal
from cavres.dynamics import TransitKernel, TransitOptions, TransitProfile, _segments
from cavres.reservoir import ReservoirConfig, build_sample_superop
from cavres.scenarios import PRESET_NAMES, preset
from cavres.thermal import CavityParams, ThermalPropagator, rate_block
from oracles import coherent_state, dissipator_rhs, make_ladder, thermal_state


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


def small_profile():
    omega0 = 2 * np.pi * 50e3
    return TransitProfile(omega0=omega0, w=6e-3, v=70.0, delta_disp=2.2 * omega0, t_r=5e-6)


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
        # dims on and around the edges of the offset runs (one stack up to
        # 20 offsets, then runs of at most 20), field and joint matrices,
        # Hermitian or not; reference: the per-diagonal loop over the same
        # rate blocks
        cav, t = CavityParams(n_t=0.1), 0.02
        for dim in (1, 2, 15, 20, 21, 22, 40, 41, 61):
            prop = ThermalPropagator(t, cav, dim)
            assert len(prop.stacks) == -(-dim // 20)
            if dim <= 20:  # the single stack holds one slot per |k|, padded to dim
                assert prop.stacks[0].shape == (dim, dim, dim)
            rng = np.random.default_rng(dim)
            for levels, count, hermitian in itertools.product((1, 2), (1, 8), (True, False)):
                size = levels * dim
                mats = rng.normal(size=(count, size, size)) + 1j * rng.normal(
                    size=(count, size, size)
                )
                if hermitian:
                    mats = mats + mats.conj().transpose(0, 2, 1)
                # each atom block relaxes on its own
                blocks = mats.reshape(count, levels, dim, levels, dim)
                blocks = blocks.transpose(0, 1, 3, 2, 4).reshape(-1, dim, dim)
                want = relax_per_diagonal(blocks, t, cav)
                want = want.reshape(count, levels, levels, dim, dim)
                want = want.transpose(0, 1, 3, 2, 4).reshape(mats.shape)
                got = prop.apply_batched(mats.copy())
                assert np.max(np.abs(got - want)) < 1e-13
                for k in range(count):
                    assert np.max(np.abs(prop.apply(mats[k]) - want[k])) < 1e-13

    @pytest.mark.parametrize("dim", [9, 21, 41])
    def test_adjoint_inner_products_match(self, dim):
        # <Y, exp(L t) X> = <adjoint(Y), X> for non-Hermitian field and
        # joint matrices, with one stack and with several
        prop = ThermalPropagator(0.02, CavityParams(n_t=0.1), dim)
        adjoint = prop.adjoint()
        rng = np.random.default_rng(dim)
        for size in (dim, 2 * dim):
            shape = (3, size, size)
            xs, ys = (rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(2))
            for x, y, kx, ky in zip(xs, ys, prop.apply_batched(xs), adjoint.apply_batched(ys)):
                want = np.vdot(y, kx)
                assert abs(np.vdot(ky, x) - want) < 1e-12 * abs(want)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_squared_is_the_doubled_step(self, name):
        # the kernel's step inside a wing is its end half-step squared;
        # measured against the directly built step: at most 2.2e-16
        r = preset(name).reservoir
        t0, t1, _ = _segments(r.profile)[0]
        tau = (t1 - t0) / TransitOptions().loss_slices
        squared = ThermalPropagator(tau / 2, r.cavity, 61).squared()
        direct = ThermalPropagator(tau, r.cavity, 61)
        assert squared.duration == direct.duration
        for got, want in zip(squared.stacks, direct.stacks):
            assert np.max(np.abs(got - want)) < 1e-15

    def test_results_outlive_the_workspace(self):
        # the gather and matmul buffers are reused; what a call returns is not
        cav, dim = CavityParams(n_t=0.1), 21
        prop = ThermalPropagator(0.02, cav, dim)
        first = np.stack([random_density(dim, seed=s) for s in range(3)])
        kept = prop.apply_batched(first)
        for count in (1, 5, 8):  # smaller and larger requests than the first
            prop.apply_batched(np.stack([random_density(dim, seed=9)] * count))
        assert np.max(np.abs(kept - relax_per_diagonal(first, 0.02, cav))) < 1e-13

    def test_threads_use_their_own_workspace(self):
        # more threads than cores, switching often: a shared workspace would
        # hand one thread's gathered entries to another
        cav, dim, workers = CavityParams(n_t=0.1), 30, 4
        prop = ThermalPropagator(0.02, cav, dim)
        inputs = [
            np.stack([random_density(dim, seed=10 * t + s) for s in range(4)])
            for t in range(workers)
        ]
        wants = [relax_per_diagonal(x, 0.02, cav) for x in inputs]

        def work(t):
            return max(
                np.max(np.abs(prop.apply_batched(inputs[t]) - wants[t])) for _ in range(100)
            )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(work, t) for t in range(workers)]
                errors = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert max(errors) < 1e-13

    def test_index_tables_built_once_per_size(self):
        # the kernel's loss steps and the relaxation share the gather tables
        # of each (dim, levels) and the rate blocks of each (dim, cavity)
        cav, cfg = CavityParams(n_t=0.1), HilbertConfig(n_max=7)
        thermal._stack_indices.cache_clear()
        thermal._rate_blocks.cache_clear()
        reservoir._relax_propagator.cache_clear()
        kernel = TransitKernel(small_profile(), cfg, cav)
        reservoir.relax(random_density(cfg.dim, seed=3), 1e-4, cav)
        props = set(kernel.loss_steps) | {reservoir._relax_propagator(1e-4, cav, cfg.dim)}
        assert len(props) == 4
        assert thermal._stack_indices.cache_info().misses == 2
        assert thermal._rate_blocks.cache_info().misses == 1
        for size in (cfg.dim, 2 * cfg.dim):
            assert len({id(p._indices[size]) for p in props}) == 1

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
        profile = small_profile()
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
