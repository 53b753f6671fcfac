"""Observables: Wigner function, squeezing, cat fits, serialization."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import gammaln

from cavres.fock import (
    COHERENT_GUARD,
    HilbertConfig,
    coherent_state,
    density,
    fock_state,
    ideal_mfss,
    kerr_propagator,
)
import cavres.metrics as met
from cavres.scenarios import grid_axes
from oracles import (
    fit_cat_nelder_mead,
    make_ladder,
    thermal_state,
    wigner_clenshaw,
    wigner_laguerre,
)


# the -3.5:3.5:0.07 grid of the run configs
AXIS = np.linspace(-3.5, 3.5, 101)


def wigner_at(rho, xi):
    """W at one phase-space point, as a one-point grid."""
    xi = complex(xi)
    return met.wigner(rho, [xi.real], [xi.imag]).values[0, 0]


def random_density(dim, seed, rank=None):
    rng = np.random.default_rng(seed)
    shape = (dim, dim if rank is None else rank)
    g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def dephased_cat(k, seed, cfg, size=(1.2, 1.65)):
    """A cat with a drawn amplitude (|alpha| uniform in size) and phases, its
    Fock coherences scaled down by a drawn 5-20 % (Hermitian, positive, unit
    trace)."""
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(*size) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    pure = density(ideal_mfss(alpha, k, tuple(rng.uniform(0, 2 * np.pi, k - 1)), cfg))
    noise = rng.uniform(0.05, 0.2)
    return (1 - noise) * pure + noise * np.diag(np.diag(pure))


def squeezed_vacuum(r, phi, cfg):
    """S(r e^{i phi})|0>, truncated and renormalized: even Fock amplitudes
    (-e^{i phi} tanh r)^j sqrt((2j)!) / (2^j j!), formed in log space."""
    j = np.arange((cfg.dim + 1) // 2)
    log_fact = gammaln(np.arange(cfg.dim) + 1.0)
    log_mag = (j * math.log(math.tanh(r)) + 0.5 * log_fact[2 * j]
               - j * math.log(2.0) - log_fact[j])
    ket = np.zeros(cfg.dim, dtype=complex)
    ket[2 * j] = np.exp(log_mag) * (-np.exp(1j * phi)) ** j
    return ket / np.linalg.norm(ket)


def guard_coherent_density(cfg):
    """The largest coherent state the truncation guard admits, |alpha|^2 =
    COHERENT_GUARD * n_max, near the grid diagonal."""
    alpha = math.sqrt(COHERENT_GUARD * cfg.n_max) * np.exp(1j * (np.pi / 4 + 0.1))
    return density(coherent_state(alpha, cfg))


class TestScalars:
    cfg = HilbertConfig(n_max=30)

    def test_vacuum(self):
        rho = density(fock_state(0, self.cfg))
        assert met.mean_photon(rho) == 0.0
        assert met.purity(rho) == pytest.approx(1.0)

    def test_maximally_mixed_purity(self):
        d = 12
        rho = np.eye(d, dtype=complex) / d
        assert met.purity(rho) == pytest.approx(1 / d)

    def test_coherent_photon_number(self):
        cfg = HilbertConfig(n_max=60)
        rho = density(coherent_state(2.0, cfg))
        assert met.mean_photon(rho) == pytest.approx(4.0, abs=1e-9)
        assert met.purity(rho) == pytest.approx(1.0, abs=1e-12)

    def test_field_moments_match_brute_force(self):
        rho = random_density(self.cfg.dim, seed=8)
        a = make_ladder(self.cfg)
        amp, amp2, nbar = met.field_moments(rho)
        assert amp == pytest.approx(complex(np.trace(rho @ a)), abs=1e-13)
        assert amp2 == pytest.approx(complex(np.trace(rho @ a @ a)), abs=1e-13)
        assert nbar == pytest.approx(
            float(np.real(np.trace(rho @ a.conj().T @ a))), abs=1e-12
        )


class TestOverlapFidelity:
    cfg = HilbertConfig(n_max=20)

    def test_pure_state_overlap(self):
        psi = coherent_state(1.1, self.cfg)
        assert met.overlap_fidelity(density(psi), psi) == pytest.approx(1.0)

    def test_orthogonal(self):
        rho = density(fock_state(0, self.cfg))
        assert met.overlap_fidelity(rho, fock_state(1, self.cfg)) == 0.0

    def test_equal_mixture(self):
        ref = fock_state(2, self.cfg)
        orth = fock_state(5, self.cfg)
        rho = 0.5 * density(ref) + 0.5 * density(orth)
        assert met.overlap_fidelity(rho, ref) == pytest.approx(0.5)

    def test_global_phase_invariance(self):
        rho = random_density(self.cfg.dim, seed=4)
        ref = coherent_state(0.9 + 0.4j, self.cfg)
        f1 = met.overlap_fidelity(rho, ref)
        f2 = met.overlap_fidelity(rho, np.exp(1.23j) * ref)
        assert f1 == pytest.approx(f2, abs=1e-14)


class TestMetricsRecord:
    def test_rejects_bad_purity(self):
        with pytest.raises(ValueError):
            met.MetricsRecord(0, 0.0, 1.0, 1.5, 0.5, 0.0)

    def test_allows_nan_fidelity(self):
        rec = met.MetricsRecord(3, 1e-3, 2.0, 0.7, float("nan"), 1e-12)
        assert math.isnan(rec.fidelity)


class TestWigner:
    cfg = HilbertConfig(n_max=30)

    def test_vacuum_gaussian(self):
        rho = density(fock_state(0, self.cfg))
        assert wigner_at(rho, 0.0) == pytest.approx(2 / np.pi, abs=1e-12)
        for xi in (0.7, 0.3 - 1.1j, 1.5j):
            want = 2 / np.pi * np.exp(-2 * abs(xi) ** 2)
            assert wigner_at(rho, xi) == pytest.approx(want, abs=1e-12)

    def test_fock_one_negativity(self):
        rho = density(fock_state(1, self.cfg))
        assert wigner_at(rho, 0.0) == pytest.approx(-2 / np.pi, abs=1e-12)

    def test_coherent_displaced_gaussian(self):
        alpha = 0.8 - 0.5j
        rho = density(coherent_state(alpha, self.cfg))
        for xi in (alpha, 0.0, 0.2 + 0.1j):
            want = 2 / np.pi * np.exp(-2 * abs(xi - alpha) ** 2)
            assert wigner_at(rho, xi) == pytest.approx(want, abs=1e-10)

    def test_grid_matches_pointwise(self):
        rho = density(ideal_mfss(1.0, 2, (np.pi / 2,), self.cfg))
        xs = np.linspace(-2, 2, 9)
        ys = np.linspace(-1, 1, 5)
        grid = met.wigner(rho, xs, ys)
        for iy in (0, 2, 4):
            for ix in (0, 4, 8):
                want = wigner_at(rho, xs[ix] + 1j * ys[iy])
                assert grid.values[iy, ix] == pytest.approx(want, abs=1e-12)

    def test_normalization_riemann_sum(self):
        cfg = HilbertConfig(n_max=60)
        rho = density(ideal_mfss(1.65, 2, (np.pi / 2,), cfg))
        grid = met.wigner(rho, AXIS, AXIS)
        dx = grid.xs[1] - grid.xs[0]
        dy = grid.ys[1] - grid.ys[0]
        assert abs(grid.values.sum() * dx * dy - 1.0) < 0.02

    def test_linearity(self):
        rho1 = random_density(self.cfg.dim, seed=1)
        rho2 = random_density(self.cfg.dim, seed=2)
        xs = np.linspace(-1.5, 1.5, 7)
        mix = 0.3 * rho1 + 0.7 * rho2
        g1 = met.wigner(rho1, xs, xs)
        g2 = met.wigner(rho2, xs, xs)
        gm = met.wigner(mix, xs, xs)
        assert np.max(np.abs(gm.values - 0.3 * g1.values - 0.7 * g2.values)) < 1e-12

    def test_marginal_matches_hermite_expansion(self):
        # integrating W over y gives the X-quadrature distribution,
        # X = (a + a')/2 so psi_n(x) are Hermite functions of sqrt(2) x
        cfg = HilbertConfig(n_max=50)
        rho = density(ideal_mfss(1.5, 2, (np.pi / 2,), cfg))
        grid = met.wigner(rho, AXIS, AXIS)
        dy = grid.ys[1] - grid.ys[0]
        marginal = grid.values.sum(axis=0) * dy

        from numpy.polynomial.hermite import hermval

        dim = cfg.dim
        log_fact = np.cumsum(
            np.concatenate([[0.0], np.log(np.arange(1, dim))])
        )
        want = np.empty_like(grid.xs)
        for i, x in enumerate(grid.xs):
            coefs = np.zeros(dim)
            psi = np.empty(dim)
            for n in range(dim):
                coefs[:] = 0.0
                coefs[n] = 1.0
                norm = (2 / np.pi) ** 0.25 * np.exp(
                    -0.5 * (n * np.log(2) + log_fact[n])
                )
                psi[n] = norm * hermval(np.sqrt(2) * x, coefs) * np.exp(-x * x)
            want[i] = np.real(psi @ rho @ psi)
        assert np.max(np.abs(marginal - want)) < 1e-3

    @pytest.mark.parametrize("state, half_width", [
        ("coherent_guard", 4.2),
        ("squeezed_strong", 2.5),
    ])
    def test_grid_matches_laguerre_oracle(self, state, half_width):
        cfg = HilbertConfig(n_max=60)
        if state == "coherent_guard":
            rho = guard_coherent_density(cfg)
        else:
            rho = density(squeezed_vacuum(1.1, 0.7, cfg))
        ax = np.linspace(-half_width, half_width, 15)
        grid = met.wigner(rho, ax, ax)
        want = wigner_laguerre(rho, ax[None, :] + 1j * ax[:, None])
        assert np.max(np.abs(grid.values - want)) < 1e-10

    def test_point_matches_laguerre_oracle_far_out(self):
        rho = random_density(61, seed=5)
        xi = 3.5 + 3.5j
        assert wigner_at(rho, xi) == pytest.approx(
            wigner_laguerre(rho, xi), abs=1e-10
        )

    def test_guard_coherent_state_integrates_to_one(self):
        # the truncated state's map is still 4e-5 at |xi| = 8, past the trust radius
        rho = guard_coherent_density(HilbertConfig(n_max=60))
        ax = np.linspace(-9, 9, 181)
        with pytest.warns(UserWarning, match="trust radius"):
            grid = met.wigner(rho, ax, ax)
        step = ax[1] - ax[0]
        assert abs(grid.values.sum() * step * step - 1.0) < 1e-6

    def test_trust_radius_warning(self):
        cfg = HilbertConfig(n_max=10)
        rho = density(fock_state(0, cfg))
        xs = np.linspace(-4, 4, 5)
        with pytest.warns(UserWarning, match="trust radius"):
            met.wigner(rho, xs, xs)


# XMIN:XMAX:STEP grids and the n_max they are mapped at: the preset default
# (cat2, cat3 and banana) and the squeeze preset's own, then the grids of the
# cat2_preset, micromaser, banana_cached and wigner_states benchmark workloads
MAPPED_GRIDS = [
    ((-3.5, 3.5, 0.07), 60),
    ((-6.0, 6.0, 0.12), 60),
    ((-3.5, 3.5, 0.35), 60),
    ((-3.4, 3.4, 0.34), 40),
    ((-2.1, 2.1, 0.105), 16),
    ((-2.5, 2.5, 5.0 / 14), 60),
    ((-4.2, 4.2, 8.4 / 14), 60),
]


def clenshaw_grid(rho, xs, ys):
    """The reference map on the grid xs x ys, laid out as WignerGrid.values."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    return wigner_clenshaw(rho, xs[None, :] + 1j * ys[:, None])


def max_gap(rho, xs, ys):
    return np.max(np.abs(met.wigner(rho, xs, ys).values - clenshaw_grid(rho, xs, ys)))


@pytest.mark.filterwarnings("ignore:grid radius")
class TestWignerSharedSeries:
    """The map sums each Laguerre series once per distinct |xi| for all
    diagonals at once; the reference sums them per diagonal and point."""

    @pytest.mark.parametrize("spec, n_max", MAPPED_GRIDS)
    def test_bit_identical_on_mapped_grids(self, spec, n_max):
        ax = grid_axes(spec)
        for rho in (random_density(n_max + 1, seed=21),
                    density(ideal_mfss(1.5, 2, (np.pi / 2,), HilbertConfig(n_max=n_max)))):
            got = met.wigner(rho, ax, ax).values
            want = clenshaw_grid(rho, ax, ax)
            assert got.tobytes() == want.tobytes(), np.max(np.abs(got - want))

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_bit_identical_across_radius_chunks(self, monkeypatch, chunk):
        monkeypatch.setattr(met, "_RADIUS_CHUNK", chunk)
        rho = random_density(31, seed=22)
        ax = np.linspace(-2.0, 2.0, 21)
        got = met.wigner(rho, ax, ax).values
        assert got.tobytes() == clenshaw_grid(rho, ax, ax).tobytes()

    def test_non_square_grid(self):
        rho = random_density(31, seed=23)
        assert max_gap(rho, np.linspace(-2.5, 2.5, 13), np.linspace(-1.0, 1.0, 5)) <= 1e-15

    def test_unsorted_axes_with_repeats(self):
        rho = random_density(41, seed=24)
        xs = [0.3, -1.2, 0.3, 2.0, -0.3, 0.0, 0.0, -2.0]
        ys = [1.1, -1.1, 0.3, 0.3, -2.0, 0.0]
        assert max_gap(rho, xs, ys) <= 1e-15

    @pytest.mark.parametrize("xs, ys", [
        ([0.7], [-0.4]),
        ([0.0], [0.0]),
        ([1.3], np.linspace(-2, 2, 9)),
        (np.linspace(-2, 2, 9), [-1.3]),
    ])
    def test_single_point_axes(self, xs, ys):
        rho = random_density(61, seed=25)
        assert max_gap(rho, xs, ys) <= 1e-15

    def test_no_repeated_radius(self):
        rng = np.random.default_rng(26)
        xs, ys = rng.uniform(-3, 3, 17), rng.uniform(-3, 3, 11)
        xi = xs[None, :] + 1j * ys[:, None]
        assert np.unique(np.abs(xi)).size == xi.size
        assert max_gap(random_density(61, seed=26), xs, ys) <= 1e-15

    @pytest.mark.parametrize("xi", [2.2 - 0.9j, 3.1 + 3.3j])
    def test_value_independent_of_the_grid(self, xi):
        # 20,000 copies of one point: past the 16,384 points from which numpy
        # may swap a product's operands (see oracles.wigner_clenshaw)
        rho = random_density(61, seed=3)
        grid = met.wigner(rho, np.full(200, xi.real), np.full(100, xi.imag)).values
        assert np.all(grid == wigner_at(rho, xi))

    def test_every_truncation(self):
        ax = np.linspace(-2.4, 2.4, 9)
        for n_max in range(1, 61):
            rho = random_density(n_max + 1, seed=n_max)
            assert max_gap(rho, ax, ax[::-1]) <= 1e-15, n_max

    @pytest.mark.slow
    def test_peak_memory_not_above_reference(self):
        rho = random_density(61, seed=27)
        ax = np.linspace(-4.0, 4.0, 401)

        def peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        used = peak(lambda: met.wigner(rho, ax, ax))
        assert used <= peak(lambda: clenshaw_grid(rho, ax, ax))


class TestSqueezing:
    def test_coherent_is_reference(self):
        cfg = HilbertConfig(n_max=40)
        db, _ = met.squeezing_db(density(coherent_state(1.3 * np.exp(0.7j), cfg)))
        assert abs(db) < 1e-10

    def test_thermal_antisqueezed(self):
        cfg = HilbertConfig(n_max=40)
        db, _ = met.squeezing_db(thermal_state(0.5, cfg))
        # Var = (1 + 2 n_t)/4 for all angles; dB of the sigma ratio
        assert db == pytest.approx(-1.505149978319906, abs=1e-9)

    def test_closed_form_matches_theta_scan(self):
        rho = random_density(25, seed=12)
        amp, amp2, nbar = met.field_moments(rho)
        a_coef = amp2 - amp * amp
        b_coef = nbar - abs(amp) ** 2
        thetas = np.arange(0, np.pi, 1e-3)
        variances = 0.25 * (
            1 + 2 * b_coef + 2 * np.real(a_coef * np.exp(-2j * thetas))
        )
        scan_db = 10 * np.log10(np.sqrt(0.25 / variances.min()))
        db, theta = met.squeezing_db(rho)
        assert abs(db - scan_db) < 1e-6
        gap = abs(theta - thetas[np.argmin(variances)])
        assert min(gap, np.pi - gap) < 1.5e-3


class TestCatFit:
    def test_self_fit(self):
        cfg = HilbertConfig(n_max=40)
        rho = density(ideal_mfss(2.0, 2, (np.pi / 2,), cfg))
        fit = met.fit_cat(rho, 2)
        assert fit.fidelity >= 1 - 1e-6
        assert abs(abs(fit.alpha) - 2.0) < 1e-3

    def test_fidelity_is_reevaluated(self):
        cfg = HilbertConfig(n_max=30)
        rho = density(ideal_mfss(1.2, 2, (0.3,), cfg))
        fit = met.fit_cat(rho, 2)
        assert fit.fidelity == pytest.approx(
            met.overlap_fidelity(rho, fit.reference), abs=1e-14
        )

    def test_never_below_generating_cat(self):
        cfg = HilbertConfig(n_max=30)
        pure = ideal_mfss(1.4, 2, (np.pi / 2,), cfg)
        rho = 0.8 * density(pure) + 0.2 * thermal_state(0.3, cfg)
        fit = met.fit_cat(rho, 2)
        assert fit.fidelity >= met.overlap_fidelity(rho, pure) - 1e-12

    def test_three_component_kerr_state(self):
        # a pi/3 Kerr kick turns a coherent state into an exact 3-cat
        cfg = HilbertConfig(n_max=30)
        psi = kerr_propagator(np.pi / 3, cfg) @ coherent_state(1.2, cfg)
        fit = met.fit_cat(density(psi), 3)
        assert fit.fidelity >= 1 - 1e-4

    def test_rejects_small_k(self):
        cfg = HilbertConfig(n_max=10)
        with pytest.raises(ValueError):
            met.fit_cat(density(fock_state(0, cfg)), 1)

    def test_vacuum_heavy_state(self):
        # an alpha = 0 cat is the vacuum, which alone reaches 0.7
        cfg = HilbertConfig(n_max=30)
        rho = 0.7 * density(fock_state(0, cfg)) + 0.3 * density(fock_state(2, cfg))
        fit = met.fit_cat(rho, 2)
        assert fit.fidelity >= 0.7 - 1e-12
        assert fit.fidelity == pytest.approx(
            met.overlap_fidelity(rho, fit.reference), abs=1e-14
        )

    @pytest.mark.parametrize("label, n_max, k", [
        ("cat2-seed1", 40, 2),
        ("cat2-seed2", 60, 2),
        ("cat3-seed1", 40, 3),
        ("cat3-seed2", 60, 3),
        ("cat2-alpha4-seed1", 60, 2),
        ("cat3-alpha4-seed1", 60, 3),
        ("fock0", 30, 2),
        ("fock3", 30, 2),
        ("thermal1", 30, 2),
        ("coherent1.5", 40, 3),
        ("rank3", 60, 2),
        ("rank3", 60, 3),
    ])
    def test_matches_nelder_mead_oracle(self, label, n_max, k):
        # the amplitude-only search with exact phases reaches what the joint
        # Nelder-Mead search over amplitude and phases reaches, or more; the
        # coherent and rank-3 states have more than one local maximum in alpha
        # (with k = 2 the rank-3 state needs the k-th-moment start, the
        # coherent state and the rank-3 state with k = 3 need the rake); the
        # |alpha| ~ 4 cats check the rake where its nodes lie 0.67 apart
        cfg = HilbertConfig(n_max=n_max)
        if label.startswith("cat"):
            size = (3.9, 4.1) if "alpha4" in label else (1.2, 1.65)
            rho = dephased_cat(k, int(label[-1]), cfg, size)
        else:
            rho = {
                "fock0": lambda: density(fock_state(0, cfg)),
                "fock3": lambda: density(fock_state(3, cfg)),
                "thermal1": lambda: thermal_state(1.0, cfg),
                "coherent1.5": lambda: density(coherent_state(1.5, cfg)),
                "rank3": lambda: random_density(cfg.dim, 3, rank=3),
            }[label]()
        fit = met.fit_cat(rho, k)
        assert fit.fidelity >= fit_cat_nelder_mead(rho, k).fidelity - 1e-12


class TestPhaseStep:
    """The exact phase step inside fit_cat, at fixed amplitudes."""

    ALPHAS = (1.3 * np.exp(0.4j), 0.6 - 0.2j, -2.1 + 0.9j)

    @staticmethod
    def scan(m, g, k, points):
        axis = np.linspace(0, 2 * np.pi, points, endpoint=False)
        nodes = np.stack(np.meshgrid(*([axis] * (k - 1)), indexing="ij"), axis=-1)
        c = np.exp(1j * np.concatenate(
            [np.zeros(nodes.shape[:-1] + (1,)), nodes], axis=-1))
        num = np.einsum("...i,ij,...j->...", c.conj(), m, c).real
        return np.max(num / np.einsum("...i,ij,...j->...", c.conj(), g, c).real)

    @pytest.mark.parametrize("k, points", [(2, 10_000), (3, 256)])
    def test_beats_or_ties_phase_scan(self, k, points):
        cfg = HilbertConfig(n_max=30)
        for rho in (random_density(cfg.dim, 7), dephased_cat(k, 4, cfg)):
            for alpha in self.ALPHAS:
                value, _ = met._cat_profile(rho, alpha, k)
                m, g = met._cat_matrices(rho, np.array([alpha]), k)
                assert value >= self.scan(m[0], g[0], k, points) - 1e-12

    @pytest.mark.parametrize("k", [2, 3])
    def test_profile_is_the_truncated_overlap(self, k):
        # ideal_mfss renormalizes by the truncated norm, so the quotient must
        # use the truncated Gram matrix V'V: at n_max 20 and |alpha| = 2.28
        # the closed-form Gram matrix differs from it by 1.6e-7
        cfg = HilbertConfig(n_max=20)
        rho = random_density(cfg.dim, 11)
        for alpha in self.ALPHAS:
            value, theta = met._cat_profile(rho, alpha, k)
            ref = ideal_mfss(alpha, k, tuple(theta), cfg)
            assert value == pytest.approx(met.overlap_fidelity(rho, ref), abs=1e-14)


class TestGuardCircle:
    """Every amplitude the cat profile admits builds its ideal cat."""

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_admitted_amplitudes_build(self, k):
        # amplitudes on the guard circle, nudged by up to 3 ulps of radius:
        # rounding puts some rotated |alpha omega^j|^2 above COHERENT_GUARD
        # * n_max where |alpha|^2 is not
        cfg = HilbertConfig(n_max=40)
        rho = np.eye(cfg.dim, dtype=complex) / cfg.dim
        rng = np.random.default_rng(40 + k)
        radius = math.sqrt(COHERENT_GUARD * cfg.n_max)
        radii = radius + np.spacing(radius) * rng.integers(-3, 4, size=400)
        admitted = 0
        for alpha in radii * np.exp(1j * rng.uniform(0, 2 * np.pi, size=400)):
            value, theta = met._cat_profile(rho, complex(alpha), k)
            if value == 0.0:
                continue
            admitted += 1
            ref = ideal_mfss(complex(alpha), k, tuple(theta), cfg)
            assert value == pytest.approx(met.overlap_fidelity(rho, ref), abs=1e-14)
        assert 100 < admitted < 400


class TestSerialization:
    def test_csv_format(self):
        recs = [
            met.MetricsRecord(0, 0.0, 0.0, 1.0, float("nan"), 0.0),
            met.MetricsRecord(1, 2.5714e-4, 1.23456789012, 0.5, 0.25, 1e-13),
        ]
        text = met.records_to_csv(recs)
        lines = text.strip().split("\n")
        assert lines[0] == "sample,time_s,nbar,purity,fidelity,trace_err"
        assert len(lines) == 3
        assert lines[1].split(",")[4] == "nan"
        # 9 significant digits
        assert lines[2].split(",")[2] == "1.23456789"

    def test_wigner_text_round_trip(self):
        cfg = HilbertConfig(n_max=15)
        rho = density(coherent_state(0.7, cfg))
        xs = np.linspace(-1, 1, 5)
        ys = np.linspace(-0.5, 0.5, 3)
        grid = met.wigner(rho, xs, ys)
        text = met.wigner_to_text(grid)
        lines = text.strip().split("\n")
        assert lines[0].startswith("# xs: ")
        assert lines[1].startswith("# ys: ")
        assert len(lines) == 2 + ys.size
        back = np.loadtxt(text.strip().split("\n"), comments="#")
        assert back.shape == (ys.size, xs.size)
        assert np.max(np.abs(back - grid.values)) < 1e-8
