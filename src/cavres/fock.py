"""Truncated Fock-space primitives for a single cavity mode.

Everything here works on a Hilbert space truncated at photon number
``n_max`` (dimension ``n_max + 1``).  Operators are plain dense complex
ndarrays; the annihilation operator follows the convention
``a[n-1, n] = sqrt(n)``, so ``a @ a.conj().T - a.conj().T @ a`` equals the
identity except in the last diagonal slot (the usual truncation artifact).

States are ndarrays as well: kets are 1-d complex vectors of unit norm,
density matrices are Hermitian, unit-trace, positive-semidefinite 2-d
arrays.  The validators below enforce those invariants and are called by
the higher-level modules at their boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lgamma

import numpy as np

__all__ = [
    "COHERENT_GUARD",
    "HilbertConfig",
    "TruncationError",
    "StateInvariantError",
    "make_ladder",
    "number_op",
    "fock_state",
    "coherent_state",
    "thermal_state",
    "kerr_propagator",
    "ideal_mfss",
    "density",
    "canonical_phase",
    "validate_ket",
    "validate_density",
]

# Fraction of the cutoff that a coherent amplitude may occupy before the
# truncated Poisson tail is no longer negligible.
COHERENT_GUARD = 0.6


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


def make_ladder(cfg: HilbertConfig) -> np.ndarray:
    """Annihilation operator a with a[n-1, n] = sqrt(n)."""
    dim = cfg.dim
    a = np.zeros((dim, dim), dtype=complex)
    ns = np.arange(1, dim)
    a[ns - 1, ns] = np.sqrt(ns)
    return a


def number_op(cfg: HilbertConfig) -> np.ndarray:
    """Photon number operator N = a†a (diagonal 0..n_max)."""
    return np.diag(np.arange(cfg.dim, dtype=float)).astype(complex)


def fock_state(n: int, cfg: HilbertConfig) -> np.ndarray:
    if not 0 <= n <= cfg.n_max:
        raise TruncationError(f"Fock index {n} outside 0..{cfg.n_max}")
    ket = np.zeros(cfg.dim, dtype=complex)
    ket[n] = 1.0
    return ket


def _coherent_amplitudes(alpha: complex, dim: int) -> np.ndarray:
    """Unnormalized truncated coherent amplitudes, log-space magnitudes."""
    n = np.arange(dim)
    mag = np.abs(alpha)
    if mag == 0.0:
        amps = np.zeros(dim, dtype=complex)
        amps[0] = 1.0
        return amps
    lg = np.array([lgamma(k + 1) for k in range(dim)])
    log_mag = -0.5 * mag**2 + n * np.log(mag) - 0.5 * lg
    phase = np.angle(alpha) * n
    return np.exp(log_mag + 1j * phase)


def coherent_state(alpha: complex, cfg: HilbertConfig) -> np.ndarray:
    """Truncated coherent state |alpha>, renormalized to unit norm.

    Refuses amplitudes whose mean photon number |alpha|^2 exceeds
    COHERENT_GUARD * n_max, where the discarded Poisson tail would no
    longer be negligible.
    """
    if abs(alpha) ** 2 > COHERENT_GUARD * cfg.n_max:
        raise TruncationError(
            f"|alpha|^2 = {abs(alpha)**2:.3f} exceeds {COHERENT_GUARD} * n_max "
            f"= {COHERENT_GUARD * cfg.n_max:.1f}; increase n_max"
        )
    amps = _coherent_amplitudes(alpha, cfg.dim)
    amps /= np.linalg.norm(amps)
    return canonical_phase(amps)


def thermal_state(n_bar: float, cfg: HilbertConfig) -> np.ndarray:
    """Thermal (geometric) density matrix with mean occupation n_bar."""
    if n_bar < 0:
        raise ValueError("n_bar must be >= 0")
    if n_bar == 0:
        p = np.zeros(cfg.dim)
        p[0] = 1.0
    else:
        n = np.arange(cfg.dim)
        p = np.exp(n * np.log(n_bar / (1.0 + n_bar)))
        p /= p.sum()
    return np.diag(p).astype(complex)


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
    and theta_1..theta_{k-1} given by rel_phases.  The normalization uses
    the exact Gram matrix of the (non-orthogonal) coherent components; a
    final renormalization absorbs the (tiny, guarded) truncation residue.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    phases = np.asarray(rel_phases, dtype=float)
    if phases.shape != (k - 1,):
        raise ValueError(f"rel_phases must have length k-1 = {k - 1}")
    coeff = np.exp(1j * np.concatenate(([0.0], phases)))

    alphas = alpha * np.exp(2j * np.pi * np.arange(k) / k)
    # Exact coherent-state Gram matrix: <a_i|a_j> = exp(-|alpha|^2 + conj(a_i) a_j)
    gram = np.exp(-np.abs(alpha) ** 2 + np.conj(alphas)[:, None] * alphas[None, :])
    norm_sq = np.real(np.conj(coeff) @ gram @ coeff)
    if norm_sq <= 0:
        raise ValueError("degenerate superposition: zero norm")

    vec = np.zeros(cfg.dim, dtype=complex)
    for c, a_j in zip(coeff, alphas):
        if abs(a_j) ** 2 > COHERENT_GUARD * cfg.n_max:
            raise TruncationError(
                f"component |alpha|^2 = {abs(a_j)**2:.3f} exceeds guard for n_max = {cfg.n_max}"
            )
        vec += c * _coherent_amplitudes(a_j, cfg.dim)
    vec /= np.sqrt(norm_sq)
    # Truncation leaves the norm a hair off 1; fix it exactly.
    vec /= np.linalg.norm(vec)
    return canonical_phase(vec)


def density(ket: np.ndarray) -> np.ndarray:
    """|psi><psi| for a ket."""
    return np.outer(ket, ket.conj())


def canonical_phase(ket: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Fix the global phase: first amplitude above tol made real positive."""
    for c in ket:
        if abs(c) > tol:
            return ket * np.exp(-1j * np.angle(c))
    return ket


def validate_ket(ket: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    ket = np.asarray(ket)
    if ket.ndim != 1:
        raise StateInvariantError(f"ket must be 1-d, got shape {ket.shape}")
    norm = np.linalg.norm(ket)
    if abs(norm - 1.0) > tol:
        raise StateInvariantError(f"ket norm {norm} deviates from 1 by more than {tol}")
    return ket


def validate_density(
    rho: np.ndarray,
    herm_tol: float = 1e-10,
    trace_tol: float = 1e-8,
    eig_tol: float = 1e-8,
    check_positivity: bool = True,
) -> np.ndarray:
    """Check Hermiticity, unit trace and positive semidefiniteness.

    Each check is written so that a NaN fails it: a non-finite entry makes
    the Hermiticity defect NaN (inf - inf against its own mirror), so it is
    rejected without a separate pass over the matrix.
    """
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise StateInvariantError(f"density matrix must be square, got {rho.shape}")
    with np.errstate(invalid="ignore"):
        herm = np.max(np.abs(rho - rho.conj().T))
    if not herm <= herm_tol:
        raise StateInvariantError(f"Hermiticity defect {herm:.3e} > {herm_tol}")
    tr = np.trace(rho).real
    if not abs(tr - 1.0) <= trace_tol:
        raise StateInvariantError(f"trace {tr} deviates from 1 by more than {trace_tol}")
    if check_positivity:
        w = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
        if not w.min() >= -eig_tol:
            raise StateInvariantError(f"negative eigenvalue {w.min():.3e} < -{eig_tol}")
    return rho
