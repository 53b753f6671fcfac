"""Fock-space primitive tests.

Frozen constants below were computed from closed forms (Poisson weights,
coherent-state Gram overlaps) independently of the implementation.
"""

import cmath
import re
from math import lgamma, pi, sqrt

import numpy as np
import pytest

from cavres.fock import (
    COHERENT_GUARD,
    EIG_TOL,
    HERM_TOL,
    HilbertConfig,
    StateInvariantError,
    TruncationError,
    _coherent_amplitudes,
    _factorization,
    _log_factorials,
    canonical_phase,
    density,
    fock_state,
    ideal_mfss,
    validate_density,
)
from oracles import (
    coherent_amplitudes_mp,
    coherent_state,
    kerr_propagator,
    make_ladder,
    thermal_state,
)

CFG20 = HilbertConfig(n_max=20)
CFG60 = HilbertConfig(n_max=60)


class TestLadder:
    def test_superdiagonal_convention(self):
        a = make_ladder(CFG20)
        for n in range(1, 21):
            assert a[n - 1, n] == pytest.approx(np.sqrt(n))
        # nothing else is nonzero
        mask = np.zeros_like(a, dtype=bool)
        mask[np.arange(20), np.arange(1, 21)] = True
        assert np.all(a[~mask] == 0)

    def test_number_from_ladder(self):
        a = make_ladder(CFG60)
        n = a.conj().T @ a
        assert np.allclose(n, np.diag(np.arange(CFG60.dim)), atol=1e-12)

    def test_commutator_truncation_artifact_only_at_edge(self):
        a = make_ladder(CFG20)
        comm = a @ a.conj().T - a.conj().T @ a
        ident = np.eye(CFG20.dim)
        # interior: canonical commutation
        assert np.allclose(comm[:-1, :-1], ident[:-1, :-1], atol=1e-12)
        # edge slot carries the truncation defect -n_max
        assert comm[-1, -1] == pytest.approx(-CFG20.n_max)

    def test_nmax_validation(self):
        with pytest.raises(ValueError):
            HilbertConfig(n_max=0)
        with pytest.raises(ValueError):
            HilbertConfig(n_max=-3)


class TestCoherent:
    def test_poisson_amplitude_frozen(self):
        # closed form: exp(-0.32) * 0.8**3 / sqrt(3!) = 0.15178194073974513
        psi = coherent_state(0.8, CFG60)
        assert psi[3].real == pytest.approx(0.15178194073974513, abs=1e-12)
        assert abs(psi[3].imag) < 1e-15

    def test_unit_norm_and_canonical_phase(self):
        for alpha in (0.0, 1.3, 2.0 - 1.0j, -0.7 + 2.1j):
            psi = coherent_state(alpha, CFG60)
            assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
            assert psi[0].imag == pytest.approx(0.0, abs=1e-15)
            assert psi[0].real > 0

    def test_eigenstate_of_ladder(self):
        alpha = 1.2 - 0.4j
        psi = coherent_state(alpha, CFG60)
        a = make_ladder(CFG60)
        # a|alpha> = alpha|alpha> away from the truncation edge
        resid = a @ psi - alpha * psi
        assert np.linalg.norm(resid[:50]) < 1e-9

    def test_truncation_guard(self):
        with pytest.raises(TruncationError):
            coherent_state(4.0, CFG20)  # 16 > 0.6*20
        # boundary case passes
        coherent_state(np.sqrt(0.6 * 20) - 1e-6, CFG20)

    def test_vacuum(self):
        psi = coherent_state(0.0, CFG20)
        assert psi[0] == pytest.approx(1.0)
        assert np.all(psi[1:] == 0)

    def test_amplitudes_match_mpmath(self):
        # the cumulative product against each amplitude formed on its own in
        # 40-digit arithmetic, up to the coherent guard of every dim
        # (the amplitudes of a smaller dim are the leading ones of dim 61)
        pytest.importorskip("mpmath")
        dims = range(2, CFG60.dim + 1)
        worst = 0.0
        for phase in (0.0, 0.9, 2.5, -1.7, pi):
            cases = [(mag, dims) for mag in (0.0, 1e-3, 0.5, 3.0)]
            cases += [(sqrt(COHERENT_GUARD * (dim - 1)), [dim]) for dim in dims]
            for mag, sizes in cases:
                alpha = mag * cmath.exp(1j * phase)
                want = np.array(coherent_amplitudes_mp(alpha, max(sizes)))
                for dim in sizes:
                    got, ref = _coherent_amplitudes(alpha, dim), want[:dim]
                    live = np.abs(ref) > 1e-300
                    err = np.abs(got - ref)[live] / np.abs(ref[live])
                    worst = max(worst, err.max())
        assert worst <= 1e-13

    def test_zero_amplitude_is_the_vacuum(self):
        for dim in (2, 17, 61):
            want = np.zeros(dim, dtype=complex)
            want[0] = 1.0
            assert np.array_equal(_coherent_amplitudes(0.0, dim), want)
            assert np.array_equal(_coherent_amplitudes(np.zeros(3), dim), np.tile(want, (3, 1)))

    def test_log_factorial_table_is_shared_and_read_only(self):
        table = _log_factorials(CFG60.dim)
        assert _log_factorials(CFG60.dim) is table
        assert not table.flags.writeable
        assert table.tolist() == [lgamma(n + 1) for n in range(CFG60.dim)]


class TestKerr:
    def test_diagonal_phases(self):
        u = kerr_propagator(0.3, CFG20)
        n = np.arange(CFG20.dim)
        assert np.allclose(np.diag(u), np.exp(-0.3j * n * (n + 1)), atol=1e-15)
        assert np.count_nonzero(u - np.diag(np.diag(u))) == 0

    def test_pi_periodicity_gives_identity(self):
        # n(n+1) is even, so phi0 = pi is the identity (up to float-pi rounding,
        # whose phase error grows like n(n+1)*ulp ~ 4e-13 at n = 60)
        u = kerr_propagator(np.pi, CFG60)
        assert np.max(np.abs(u - np.eye(CFG60.dim))) < 1e-11

    def test_unitary(self):
        u = kerr_propagator(1.234, CFG60)
        assert np.max(np.abs(u.conj().T @ u - np.eye(CFG60.dim))) < 1e-12

    def test_half_pi_makes_two_component_cat(self):
        # exp(-i (pi/2) N(N+1)) |alpha> = (|-i alpha> + i |i alpha>)/sqrt(2)
        alpha = 1.2
        psi = kerr_propagator(np.pi / 2, CFG60) @ coherent_state(alpha, CFG60)
        target = (
            coherent_state(-1j * alpha, CFG60) * 1.0
            + 1j * coherent_state(1j * alpha, CFG60)
        ) / np.sqrt(2)
        overlap = abs(np.vdot(target, psi))
        assert overlap > 1 - 1e-6


class TestMfss:
    def test_two_component_gram_normalization(self):
        # k=2, alpha=5: components nearly orthogonal, coefficient -> 1/sqrt(2)
        psi = ideal_mfss(5.0, 2, [np.pi / 2], CFG60)
        proj = abs(np.vdot(coherent_state(5.0, CFG60), psi))
        assert proj == pytest.approx(1 / np.sqrt(2), abs=1e-10)

    def test_reproduces_rotated_cat(self):
        # k=2 with rel_phase pi/2 on alpha rotated by -pi/2 is the Kerr cat
        alpha = 1.5
        psi = ideal_mfss(alpha * np.exp(-1j * np.pi / 2), 2, [np.pi / 2], CFG60)
        target = (
            coherent_state(-1j * alpha, CFG60)
            + 1j * coherent_state(1j * alpha, CFG60)
        ) / np.sqrt(2)
        assert abs(np.vdot(target, psi)) > 1 - 1e-9

    def test_small_overlap_regime_norm(self):
        # alpha small: heavy component overlap; the superposition is still unit norm
        for theta in (0.0, 1.0, np.pi):
            psi = ideal_mfss(0.5, 2, [theta], CFG60)
            assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)

    def test_three_component(self):
        psi = ideal_mfss(2.0, 3, [0.4, -1.1], CFG60)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_cancellation_has_first_nonzero_real(self):
        # |alpha> - |-alpha>: vacuum amplitude cancels exactly
        psi = ideal_mfss(1.0, 2, [np.pi], CFG60)
        assert abs(psi[0]) < 1e-12
        assert psi[1].real > 0 and abs(psi[1].imag) < 1e-12

    def test_vanishing_superposition_raises(self):
        # at alpha = 0 every component is the vacuum: |0> - |0> and the sum of
        # the three cube roots of unity leave only rounding residue
        with pytest.raises(ValueError, match="degenerate"):
            ideal_mfss(0.0, 2, [np.pi], CFG20)
        with pytest.raises(ValueError, match="degenerate"):
            ideal_mfss(0.0, 3, [2 * np.pi / 3, 4 * np.pi / 3], CFG20)

    def test_tiny_odd_cat_is_one_photon(self):
        # |alpha> - |-alpha> = 2 alpha |1> + O(alpha^3): small, but no residue
        psi = ideal_mfss(1e-6, 2, [np.pi], CFG20)
        assert abs(psi[1]) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_bad_phase_count(self):
        with pytest.raises(ValueError):
            ideal_mfss(1.0, 3, [0.1], CFG60)

    def test_component_guard(self):
        with pytest.raises(TruncationError):
            ideal_mfss(4.0, 2, [0.0], CFG20)


def state_with_min_eigenvalue(dim, low, rng, real=False, rank=None):
    """Hermitian unit-trace matrix with smallest eigenvalue low, in a random
    eigenbasis; of the others, rank (default dim - 1) are positive and the
    rest 0."""
    g = rng.normal(size=(dim, dim))
    if not real:
        g = g + 1j * rng.normal(size=(dim, dim))
    basis, _ = np.linalg.qr(g)
    rank = dim - 1 if rank is None else rank
    w = np.zeros(dim)
    w[1:rank + 1] = rng.uniform(0.05, 1.0, size=rank)
    w[1:] *= (1.0 - low) / w[1:].sum()
    w[0] = low
    rho = (basis * w) @ basis.conj().T
    return 0.5 * (rho + rho.conj().T)


class TestValidators:
    def test_density_checks(self):
        rho = density(coherent_state(1.0, CFG20))
        validate_density(rho)
        with pytest.raises(StateInvariantError):
            validate_density(rho * 1.01)  # trace off
        bad = rho.copy()
        bad[0, 1] += 1e-6
        with pytest.raises(StateInvariantError):
            validate_density(bad)  # non-Hermitian
        neg = 1.5 * rho - 0.5 * density(fock_state(0, CFG20))
        with pytest.raises(StateInvariantError):
            validate_density(neg)  # negative eigenvalue
        for bad_value in (np.nan, np.inf, complex(0, np.nan)):
            for index in ((0, 0), (0, 1), (3, 2)):
                bad = rho.copy()
                bad[index] = bad_value
                with pytest.raises(StateInvariantError):
                    validate_density(bad)  # non-finite entry
                bad[index[::-1]] = np.conj(bad_value)
                with pytest.raises(StateInvariantError):
                    validate_density(bad)  # non-finite, mirrored

    @pytest.mark.parametrize("real", [False, True])
    @pytest.mark.parametrize("dim", [17, 41, 61])
    def test_eigenvalue_tolerance(self, dim, real):
        # lambda_min = -EIG_TOL / 2 passes and -2 EIG_TOL raises with its
        # value, for complex and real inputs alike
        rng = np.random.default_rng(dim)
        ok = state_with_min_eigenvalue(dim, -0.5 * EIG_TOL, rng, real=real)
        assert validate_density(ok) is ok
        bad = state_with_min_eigenvalue(dim, -2 * EIG_TOL, rng, real=real)
        assert bad.dtype == (float if real else complex)
        message = r"negative eigenvalue -2\.000e-08 < -1e-08"
        with pytest.raises(StateInvariantError, match=message):
            validate_density(bad)

    def test_eigenvalues_only_on_a_failed_factorization(self, monkeypatch):
        # positivity is certified by the Cholesky factorization; eigvalsh
        # runs only to decide and report a failure
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda h: calls.append(h) or eigvalsh(h))
        rng = np.random.default_rng(3)
        for rank in (1, 3, 40):
            validate_density(state_with_min_eigenvalue(41, 0.0, rng, rank=rank))
            validate_density(state_with_min_eigenvalue(41, -0.9 * EIG_TOL, rng, rank=rank))
        pure = density(coherent_state(1.0, CFG20))
        padded = np.zeros((2 * CFG20.dim, 2 * CFG20.dim), dtype=complex)
        padded[::2, ::2] = pure
        for layout in (pure, np.asfortranarray(pure), padded[::2, ::2]):
            validate_density(layout)
        assert calls == []
        with pytest.raises(StateInvariantError):
            validate_density(state_with_min_eigenvalue(41, -2 * EIG_TOL, rng))
        assert len(calls) == 1

    def test_verdict_matches_eigenvalue_rule_near_tolerance(self):
        # seeded property: on states 1e-3 EIG_TOL either side of the
        # tolerance, far outside the rounding band of about 1e-14, the
        # verdict is that of the smallest eigenvalue of (rho + rho')/2
        rng = np.random.default_rng(2024)
        verdicts = set()
        for dim in (17, 41, 61):
            for _ in range(40):
                low = -EIG_TOL * (1.0 + rng.choice([-1e-3, 1e-3]))
                rank = int(rng.integers(1, dim))
                rho = state_with_min_eigenvalue(
                    dim, low, rng, real=bool(rng.integers(2)), rank=rank
                )
                accept = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min() >= -EIG_TOL
                try:
                    validate_density(rho)
                    verdict = True
                except StateInvariantError as exc:
                    assert "negative eigenvalue" in str(exc)
                    verdict = False
                assert verdict == accept
                verdicts.add(verdict)
        assert verdicts == {True, False}

    # (matrix, message) per input dtype; message None means accepted.  Each
    # matrix is exact in its dtype, so the verdicts rest on no rounding.
    DTYPE_CASES = {
        "real": [
            ([[0.75, 0.25], [0.25, 0.25]], None),
            ([[0.75, 0.25], [0.0, 0.25]], "Hermiticity defect 2.500e-01 > 1e-10"),
            ([[0.75, 0.0], [0.0, 0.5]], "trace 1.25 deviates from 1"),
            ([[0.5, 0.75], [0.75, 0.5]], "negative eigenvalue -2.500e-01 < -1e-08"),
            ([[np.nan, 0.0], [0.0, 1.0]], "Hermiticity defect nan > 1e-10"),
        ],
        "complex": [
            ([[0.75, 0.25j], [-0.25j, 0.25]], None),
            ([[0.75, 0.25j], [0.25j, 0.25]], "Hermiticity defect 5.000e-01 > 1e-10"),
            ([[0.75, 0.0], [0.0, 0.5]], "trace 1.25 deviates from 1"),
            ([[0.5, 0.75j], [-0.75j, 0.5]], "negative eigenvalue -2.500e-01 < -1e-08"),
            ([[1.0, 0.0], [0.0, complex(0.0, np.nan)]], "Hermiticity defect nan > 1e-10"),
        ],
        "integer": [
            ([[1, 0], [0, 0]], None),
            ([[1, 1], [0, 0]], "Hermiticity defect 1.000e+00 > 1e-10"),
            ([[1, 0], [0, 1]], "trace 2 deviates from 1"),
            ([[1, 1], [1, 0]], "negative eigenvalue -6.180e-01 < -1e-08"),
        ],
    }

    @pytest.mark.parametrize("dtype, kind", [
        (np.float32, "real"), (np.float64, "real"),
        (np.complex64, "complex"), (np.complex128, "complex"), (np.int64, "integer"),
    ])
    def test_verdicts_per_input_dtype(self, dtype, kind):
        # the same verdicts and messages for every dtype, with the potrf of
        # the factorization dtype looked up once per input dtype: float64
        # for real and integer inputs, complex128 for complex ones
        for matrix, message in self.DTYPE_CASES[kind]:
            rho = np.array(matrix, dtype=dtype)
            if message is None:
                assert validate_density(rho) is rho
            else:
                with pytest.raises(StateInvariantError, match=re.escape(message)):
                    validate_density(rho)
        work, potrf = _factorization(np.dtype(dtype))
        assert work == (complex if kind == "complex" else float)
        assert potrf.typecode == ("z" if kind == "complex" else "d")
        assert _factorization(np.dtype(dtype))[1] is potrf

    def test_boolean_input_is_refused(self):
        # numpy has no boolean subtraction, so a boolean matrix is refused
        # with a TypeError before any check, even one that would pass
        with pytest.raises(TypeError):
            validate_density(np.array([[True, False], [False, False]]))

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_hermiticity_verdict_is_the_largest_modulus(self, dtype):
        # the test is max |rho - rho'| <= HERM_TOL whether the defect sits in
        # one entry or in every entry above the diagonal (a squared Frobenius
        # norm far above HERM_TOL^2), and a failure reports the largest modulus
        if dtype is complex:
            rho = density(coherent_state(1.0 + 0.5j, CFG20))
        else:
            rho = density(coherent_state(1.0, CFG20)).real
        dim = rho.shape[0]
        single = np.zeros((dim, dim))
        single[0, 1] = 1.0
        spread = np.triu(np.ones((dim, dim)), k=1)
        for pattern in (single, spread):
            validate_density(rho + 0.9 * HERM_TOL * pattern)
            with pytest.raises(StateInvariantError, match="Hermiticity defect 1.100e-10"):
                validate_density(rho + 1.1 * HERM_TOL * pattern)

    def test_thermal_state(self):
        rho = thermal_state(0.05, CFG60)
        validate_density(rho)
        nbar = np.trace(rho @ np.diag(np.arange(CFG60.dim))).real
        assert nbar == pytest.approx(0.05, abs=1e-10)

    def test_canonical_phase_noop_on_zero(self):
        z = np.zeros(4, dtype=complex)
        assert np.all(canonical_phase(z) == 0)
