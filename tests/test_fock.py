"""Fock-space primitive tests.

Frozen constants below were computed from closed forms (Poisson weights,
coherent-state Gram overlaps) independently of the implementation.
"""

import numpy as np
import pytest

from cavres.fock import (
    HilbertConfig,
    StateInvariantError,
    TruncationError,
    canonical_phase,
    coherent_state,
    density,
    fock_state,
    ideal_mfss,
    kerr_propagator,
    make_ladder,
    number_op,
    thermal_state,
    validate_density,
    validate_ket,
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
        assert np.allclose(n, number_op(CFG60), atol=1e-12)
        assert number_op(CFG60)[4, 4] == 4

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
        # alpha small: heavy component overlap; Gram normalization still unit norm
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

    def test_bad_phase_count(self):
        with pytest.raises(ValueError):
            ideal_mfss(1.0, 3, [0.1], CFG60)

    def test_component_guard(self):
        with pytest.raises(TruncationError):
            ideal_mfss(4.0, 2, [0.0], CFG20)


class TestValidators:
    def test_ket_norm(self):
        validate_ket(fock_state(3, CFG20))
        with pytest.raises(StateInvariantError):
            validate_ket(1.01 * fock_state(3, CFG20))

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

    def test_thermal_state(self):
        rho = thermal_state(0.05, CFG60)
        validate_density(rho)
        nbar = np.trace(rho @ number_op(CFG60)).real
        assert nbar == pytest.approx(0.05, abs=1e-10)

    def test_canonical_phase_noop_on_zero(self):
        z = np.zeros(4, dtype=complex)
        assert np.all(canonical_phase(z) == 0)
