"""Truncated Fock-space primitives for a single cavity mode.

Everything here works on a Hilbert space truncated at photon number
``n_max`` (dimension ``n_max + 1``).  Operators are plain dense complex
ndarrays; the annihilation operator the package assumes throughout has
``a[n-1, n] = sqrt(n)``, so ``a @ a.conj().T - a.conj().T @ a`` equals the
identity except in the last diagonal slot (the usual truncation artifact).

States are ndarrays as well: kets are 1-d complex vectors of unit norm,
density matrices are Hermitian, unit-trace, positive-semidefinite 2-d
arrays.  validate_density enforces the density-matrix invariants and is
called by the higher-level modules at their boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import lgamma

import numpy as np
from scipy.linalg import get_lapack_funcs

__all__ = [
    "COHERENT_GUARD",
    "HilbertConfig",
    "TruncationError",
    "StateInvariantError",
    "fock_state",
    "coherent_state",
    "kerr_propagator",
    "ideal_mfss",
    "density",
    "canonical_phase",
    "validate_density",
]

# Fraction of the cutoff that a coherent amplitude may occupy before the
# truncated Poisson tail is no longer negligible.
COHERENT_GUARD = 0.6

# Tolerances of validate_density: largest Hermiticity defect |rho - rho'|,
# largest trace deviation from 1 and most negative eigenvalue it admits.
# Positivity is certified by a Cholesky factorization of H + EIG_TOL I, with
# H = (rho + rho')/2: it succeeds when the smallest eigenvalue of H is at
# least -EIG_TOL, to within a rounding band of about dim eps |H| (1e-14 for a
# state).  eigvalsh runs only when the factorization fails, and decides.
HERM_TOL = 1e-10
TRACE_TOL = 1e-8
EIG_TOL = 1e-8


class TruncationError(ValueError):
    """Raised when a requested state does not fit the truncated space."""


class StateInvariantError(ValueError):
    """Raised when a state fails its norm/Hermiticity/positivity checks."""


@dataclass(frozen=True)
class HilbertConfig:
    """Truncation choice for the cavity mode.

    n_max is the highest retained photon number; the field dimension is
    n_max + 1.
    """

    n_max: int = 60

    def __post_init__(self) -> None:
        if not isinstance(self.n_max, (int, np.integer)) or self.n_max < 1:
            raise ValueError(f"n_max must be an integer >= 1, got {self.n_max!r}")

    @property
    def dim(self) -> int:
        return self.n_max + 1


def fock_state(n: int, cfg: HilbertConfig) -> np.ndarray:
    if not 0 <= n <= cfg.n_max:
        raise TruncationError(f"Fock index {n} outside 0..{cfg.n_max}")
    ket = np.zeros(cfg.dim, dtype=complex)
    ket[n] = 1.0
    return ket


@lru_cache(maxsize=None)
def _log_factorials(dim: int) -> np.ndarray:
    """lgamma(n + 1) for n < dim; read-only, shared by every call."""
    lg = np.array([lgamma(k + 1) for k in range(dim)])
    lg.flags.writeable = False
    return lg


def _coherent_amplitudes(alpha: "complex | np.ndarray", dim: int) -> np.ndarray:
    """Unnormalized truncated coherent amplitudes, log-space magnitudes.

    alpha may be an array; the amplitudes then run along a new last axis.
    """
    alpha = np.asarray(alpha, dtype=complex)[..., None]
    n = np.arange(dim)
    mag = np.abs(alpha)
    lg = _log_factorials(dim)
    # alpha = 0 is the vacuum: n log|alpha| is 0 at n = 0 and -inf above
    log_pow = n * np.log(np.where(mag > 0, mag, 1.0))
    log_pow = np.where((mag == 0) & (n > 0), -np.inf, log_pow)
    log_mag = -0.5 * mag**2 + log_pow - 0.5 * lg
    phase = np.angle(alpha) * n
    return np.exp(log_mag + 1j * phase)


def _past_guard(alpha: "complex | np.ndarray", n_max: int) -> "bool | np.ndarray":
    """Whether |alpha|^2 exceeds COHERENT_GUARD * n_max, elementwise on an
    array.  Every admission test of an amplitude goes through here, so an
    amplitude one caller admits is admitted by all of them."""
    return np.abs(alpha) ** 2 > COHERENT_GUARD * n_max


def coherent_state(alpha: complex, cfg: HilbertConfig) -> np.ndarray:
    """Truncated coherent state |alpha>, renormalized to unit norm.

    Refuses amplitudes whose mean photon number |alpha|^2 exceeds
    COHERENT_GUARD * n_max, where the discarded Poisson tail would no
    longer be negligible.
    """
    if _past_guard(alpha, cfg.n_max):
        raise TruncationError(
            f"|alpha|^2 = {abs(alpha)**2:.3f} exceeds {COHERENT_GUARD} * n_max "
            f"= {COHERENT_GUARD * cfg.n_max:.1f}; increase n_max"
        )
    amps = _coherent_amplitudes(alpha, cfg.dim)
    amps /= np.linalg.norm(amps)
    return canonical_phase(amps)


def kerr_propagator(phi0: float, cfg: HilbertConfig) -> np.ndarray:
    """Diagonal Kerr-evolution unitary diag(exp(-i phi0 n(n+1))).

    Since n(n+1) is even, the propagator is pi-periodic in phi0; phi0 = pi
    gives the identity.
    """
    if not np.isfinite(phi0):
        raise ValueError("phi0 must be finite")
    n = np.arange(cfg.dim)
    return np.diag(np.exp(-1j * phi0 * n * (n + 1)))


def ideal_mfss(
    alpha: complex,
    k: int,
    rel_phases: "np.ndarray | list[float] | tuple[float, ...]",
    cfg: HilbertConfig,
) -> np.ndarray:
    """Multi-component superposition of k coherent states on a circle.

    Builds sum_j exp(i theta_j) |alpha exp(2 pi i j / k)> with theta_0 = 0
    and theta_1..theta_{k-1} given by rel_phases, normalized by the norm of
    the truncated vector.  Raises ValueError when the components cancel,
    and TruncationError when |alpha| is past the coherent guard; that test
    is made on alpha alone, since the rotated amplitudes share its modulus
    and a rounded |alpha omega^j| could cross the guard where |alpha| does
    not.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    phases = np.asarray(rel_phases, dtype=float)
    if phases.shape != (k - 1,):
        raise ValueError(f"rel_phases must have length k-1 = {k - 1}")
    coeff = np.exp(1j * np.concatenate(([0.0], phases)))
    if _past_guard(alpha, cfg.n_max):
        raise TruncationError(
            f"|alpha|^2 = {abs(alpha)**2:.3f} exceeds guard for n_max = {cfg.n_max}"
        )

    alphas = alpha * np.exp(2j * np.pi * np.arange(k) / k)
    vec = np.zeros(cfg.dim, dtype=complex)
    scale = 0.0
    for c, a_j in zip(coeff, alphas):
        amps = _coherent_amplitudes(a_j, cfg.dim)
        vec += c * amps
        scale += np.linalg.norm(amps)
    # Components that cancel (an odd cat at alpha = 0) leave only rounding
    # residue, about 1e-16 of the components' size; normalizing it would
    # return an arbitrary state, so a norm at that level is no superposition.
    norm = np.linalg.norm(vec)
    if norm <= 1e-12 * scale:
        raise ValueError(f"degenerate superposition: norm {norm:.1e} is rounding residue")
    return canonical_phase(vec / norm)


def density(ket: np.ndarray) -> np.ndarray:
    """|psi><psi| for a ket."""
    return np.outer(ket, ket.conj())


def canonical_phase(ket: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Fix the global phase: first amplitude above tol made real positive."""
    for c in ket:
        if abs(c) > tol:
            return ket * np.exp(-1j * np.angle(c))
    return ket


def validate_density(rho: np.ndarray) -> np.ndarray:
    """Check Hermiticity, unit trace and positive semidefiniteness.

    Each check is written so that a NaN fails it: a non-finite entry makes
    the Hermiticity defect NaN (inf - inf against its own mirror), so it is
    rejected without a separate pass over the matrix.  Positivity is
    certified by one Cholesky factorization (LAPACK potrf) of
    H + EIG_TOL I, where H = (rho + rho')/2; only when that fails are the
    eigenvalues of H computed, and the smallest decides and is reported.
    Real and complex inputs are both accepted.
    """
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise StateInvariantError(f"density matrix must be square, got {rho.shape}")
    adj = rho.conj().T
    with np.errstate(invalid="ignore"):
        herm = np.abs(rho - adj).max()
    if not herm <= HERM_TOL:
        raise StateInvariantError(f"Hermiticity defect {herm:.3e} > {HERM_TOL}")
    tr = rho.trace().real
    if not abs(tr - 1.0) <= TRACE_TOL:
        raise StateInvariantError(f"trace {tr} deviates from 1 by more than {TRACE_TOL}")
    # 2 (H + EIG_TOL I), scaled by an exact factor 2 that leaves the verdict
    # as it is; its transpose is the Fortran-ordered conjugate, with the same
    # eigenvalues, so potrf factors it in place without a copy
    shifted = np.add(rho, adj, dtype=np.result_type(rho.dtype, float), order="C")
    shifted.reshape(-1)[:: rho.shape[0] + 1] += 2 * EIG_TOL
    (potrf,) = get_lapack_funcs(("potrf",), (shifted,))
    _, info = potrf(shifted.T, overwrite_a=True, clean=False)
    if info != 0:
        low = np.linalg.eigvalsh(0.5 * (rho + adj)).min()
        if not low >= -EIG_TOL:
            raise StateInvariantError(f"negative eigenvalue {low:.3e} < -{EIG_TOL}")
    return rho
