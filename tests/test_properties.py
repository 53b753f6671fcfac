"""Standalone property suites: algebraic identities, channel invariants,
Wigner marginals, and byte-level reproducibility."""

import itertools
import math

import numpy as np
import pytest
from numpy.polynomial.hermite import hermval

import cavres.metrics as met
import cavres.reservoir as res
import cavres.scenarios as sc
from cavres.fock import COHERENT_GUARD, HilbertConfig, validate_density
from cavres.thermal import CavityParams
from cavres.dynamics import TransitProfile
from oracles import make_ladder

OMEGA0 = 2 * np.pi * 50e3

PROFILE = TransitProfile(
    omega0=OMEGA0, w=6e-3, v=70.0, delta_disp=2.2 * OMEGA0, t_r=5e-6
)


def ginibre_density(dim, seed, rank=None):
    rng = np.random.default_rng(seed)
    rank = dim if rank is None else rank
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


class TestLadderIdentity:
    # a f(N) = f(N+1) a holds entrywise, truncation edge included
    @pytest.mark.parametrize("n_max", [1, 7, 40])
    def test_random_function_of_number(self, n_max):
        cfg = HilbertConfig(n_max=n_max)
        a = make_ladder(cfg)
        rng = np.random.default_rng(n_max)
        fvals = rng.normal(size=cfg.dim + 1) + 1j * rng.normal(size=cfg.dim + 1)
        f_n = np.diag(fvals[: cfg.dim])
        f_np1 = np.diag(fvals[1 : cfg.dim + 1])
        assert np.array_equal(a @ f_n, f_np1 @ a)

    def test_covers_annihilation_amplitudes(self):
        cfg = HilbertConfig(n_max=12)
        a = make_ladder(cfg)
        n = np.arange(1, cfg.dim)
        assert np.array_equal(np.diag(a, k=1), np.sqrt(n).astype(complex))


class TestChannelInvariants:
    @pytest.mark.parametrize(
        "backend,loss,p_at",
        [
            ("numeric", True, 0.3),
            ("numeric", False, 1.0),
            ("analytic", False, 0.3),
        ],
    )
    def test_density_preserved_on_random_states(self, backend, loss, p_at):
        cfg = HilbertConfig(n_max=14)
        config = res.ReservoirConfig(
            profile=PROFILE,
            u=0.45 * math.pi,
            cavity=CavityParams() if loss else None,
            p_at=p_at,
            backend=backend,
        )
        for seed in range(4):
            rho = ginibre_density(cfg.dim, seed=seed, rank=5)
            out = res.sample_map(rho, config)
            validate_density(out)
            assert abs(np.trace(out) - 1.0) < 1e-12

    def test_trace_distance_contracts(self):
        cfg = HilbertConfig(n_max=12)
        config = res.ReservoirConfig(
            profile=PROFILE, u=0.45 * math.pi, cavity=CavityParams(), p_at=0.3
        )

        def tdist(x, y):
            return 0.5 * np.sum(np.abs(np.linalg.eigvalsh(x - y)))

        for seed in range(3):
            rho1 = ginibre_density(cfg.dim, seed=seed, rank=4)
            rho2 = ginibre_density(cfg.dim, seed=seed + 100, rank=4)
            before = tdist(rho1, rho2)
            after = tdist(res.sample_map(rho1, config), res.sample_map(rho2, config))
            assert after <= before + 1e-12

    def test_affine_mixture_consistency(self):
        cfg = HilbertConfig(n_max=11)
        config = res.ReservoirConfig(
            profile=PROFILE, u=0.3 * math.pi, cavity=CavityParams(), p_at=0.4
        )
        rho1 = ginibre_density(cfg.dim, seed=11)
        rho2 = ginibre_density(cfg.dim, seed=12)
        for lam in (0.1, 0.62):
            mixed = res.sample_map(lam * rho1 + (1 - lam) * rho2, config)
            split = lam * res.sample_map(rho1, config) + (1 - lam) * res.sample_map(
                rho2, config
            )
            assert np.max(np.abs(mixed - split)) < 1e-10


def quadrature_density(rho, xs):
    """<x|rho|x> for the quadrature X = (a + a^dagger)/2, so that the
    Wigner y-marginal integrates to this density."""
    dim = rho.shape[0]
    n = np.arange(dim)
    lognorm = -0.5 * (
        n * math.log(2.0)
        + np.cumsum(np.concatenate(([0.0], np.log(np.maximum(n[1:], 1)))))
    )
    norm = (2.0 / math.pi) ** 0.25 * np.exp(lognorm)
    psi = np.stack(
        [
            norm
            * hermval(math.sqrt(2.0) * x, np.eye(dim))
            * math.exp(-(x**2))
            for x in xs
        ]
    )
    return np.real(np.einsum("xm,mn,xn->x", psi, rho, psi.conj()))


class TestCatFitBounds:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_random_states(self, k):
        # seeded rank-1 to rank-3 states at n_max 30 to 60: the fit returns,
        # with a fidelity in [0, 1] and an amplitude the coherent guard admits
        for seed, (n_max, rank) in enumerate(itertools.product((30, 45, 60), (1, 2, 3))):
            rho = ginibre_density(n_max + 1, 100 * k + seed, rank=rank)
            fit = met.fit_cat(rho, k)
            assert 0.0 <= fit.fidelity <= 1.0
            assert abs(fit.alpha) ** 2 <= COHERENT_GUARD * n_max


class TestWignerMarginal:
    def test_y_integral_matches_quadrature_density(self):
        # state confined to the first few Fock levels, embedded in a large
        # space so every grid corner stays inside the truncation-trust radius
        cfg = HilbertConfig(n_max=60)
        sub = 6
        rho = np.zeros((cfg.dim, cfg.dim), dtype=complex)
        rho[:sub, :sub] = ginibre_density(sub, seed=7, rank=3)
        rho /= np.trace(rho).real
        xs = np.linspace(-2.5, 2.5, 26)
        ys = np.linspace(-4.0, 4.0, 161)
        grid = met.wigner(rho, xs, ys)
        marginal = np.trapezoid(grid.values, ys, axis=0)
        want = quadrature_density(rho, xs)
        assert np.max(np.abs(marginal - want)) < 1e-5


class TestReproducibility:
    def test_two_runs_byte_identical(self, tmp_path):
        config = sc.build_config(
            {
                "scenario.preset": "cat2",
                "hilbert.n_max": "18",
                "reservoir.n_samples": "8",
                "analysis.wigner_grid": "-2:2:0.5",
            }
        )
        sc.run_scenario(config, out_dir=tmp_path / "a")
        sc.run_scenario(config, out_dir=tmp_path / "b")
        for name in ("metrics.csv", "state_final.txt", "wigner_final.txt"):
            first = (tmp_path / "a" / name).read_bytes()
            second = (tmp_path / "b" / name).read_bytes()
            assert first == second
