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


@lru_cache(maxsize=None)
def _sqrt_levels(dim: int) -> np.ndarray:
    """sqrt(n) for 1 <= n < dim; read-only, shared by every call."""
    table = np.sqrt(np.arange(1, dim, dtype=float))
    table.flags.writeable = False
    return table


def _coherent_amplitudes(alpha: "complex | np.ndarray", dim: int) -> np.ndarray:
    """Unnormalized truncated coherent amplitudes e^{-|alpha|^2/2}
    alpha^n / sqrt(n!), n < dim, as one cumulative product of
    e^{-|alpha|^2/2} and the factors alpha / sqrt(j), j = 1 .. n; alpha = 0
    gives the vacuum exactly.

    alpha may be an array; the amplitudes then run along a new last axis.
    Past |alpha| = 37.6 the leading factor e^{-|alpha|^2/2} falls below the
    normal range (1e-308): it loses precision and then vanishes, and every
    amplitude with it.  Callers either refuse that range by the coherent
    guard (|alpha|^2 <= COHERENT_GUARD * n_max, below 37.6^2 while n_max is
    at most 2,300) or discard the amplitudes there, as fit_cat's rake does.
    """
    alpha = np.asarray(alpha, dtype=complex)
    amps = np.empty((*alpha.shape, dim), dtype=complex)
    amps[..., 0] = np.exp(-0.5 * (alpha.real**2 + alpha.imag**2))
    np.divide(alpha[..., None], _sqrt_levels(dim), out=amps[..., 1:])
    return np.multiply.accumulate(amps, axis=-1, out=amps)


@lru_cache(maxsize=None)
def _root_table(k: int, dim: int) -> np.ndarray:
    """(k, dim) table of omega^(j n), omega = e^{2 pi i/k}: row j holds the
    phases that turn |alpha> into |alpha omega^j>.  Each entry is the root
    of index (j n) mod k, rounded once, so its rounding does not grow with
    n; read-only, shared by every call."""
    roots = np.exp(2j * np.pi * np.arange(k) / k)
    table = roots[np.outer(np.arange(k), np.arange(dim)) % k]
    table.flags.writeable = False
    return table


def _past_guard(alpha: "complex | np.ndarray", n_max: int) -> "bool | np.ndarray":
    """Whether |alpha|^2 exceeds COHERENT_GUARD * n_max, elementwise on an
    array.  Every admission test of an amplitude goes through here, so an
    amplitude one caller admits is admitted by all of them."""
    return np.abs(alpha) ** 2 > COHERENT_GUARD * n_max


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
    and TruncationError when |alpha| is past the coherent guard.
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

    # the components share |alpha|: |alpha omega^j> is one coherent vector
    # times row j of _root_table
    amps = _coherent_amplitudes(alpha, cfg.dim)
    vec = amps * (coeff @ _root_table(k, cfg.dim))
    scale = k * np.linalg.norm(amps)
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


def canonical_phase(ket: np.ndarray) -> np.ndarray:
    """Fix the global phase: first amplitude above 1e-12 made real positive."""
    for c in ket:
        if abs(c) > 1e-12:
            return ket * np.exp(-1j * np.angle(c))
    return ket


# dtypes whose Hermiticity defect validate_density bounds by one dot product
_DOUBLE_DTYPES = (np.dtype(float), np.dtype(complex))


@lru_cache(maxsize=None)
def _factorization(dtype: np.dtype) -> tuple[np.dtype, object]:
    """The dtype validate_density factors an input of this dtype in (float64
    for real, integer and boolean inputs, complex128 for complex ones) and
    LAPACK potrf for it, looked up once per input dtype."""
    work = np.result_type(dtype, float)
    (potrf,) = get_lapack_funcs(("potrf",), dtype=work)
    return work, potrf


def validate_density(rho: np.ndarray) -> np.ndarray:
    """Check Hermiticity, unit trace and positive semidefiniteness.

    Raises StateInvariantError when the Hermiticity defect max|rho - rho'|
    exceeds HERM_TOL, when |Tr rho - 1| exceeds TRACE_TOL, or when the
    smallest eigenvalue of H = (rho + rho')/2 is below -EIG_TOL; returns
    rho unchanged otherwise.  Each check is written so that a NaN fails it:
    a non-finite entry makes the Hermiticity defect NaN (inf - inf against
    its own mirror), so it is rejected without a separate pass over the
    matrix.  Positivity is certified by one Cholesky factorization (LAPACK
    potrf) of H + EIG_TOL I; only when that fails are the eigenvalues of H
    computed, and the smallest decides and is reported.  Real and complex
    inputs are both accepted; the factorization dtype and its potrf are
    looked up once per input dtype (_factorization).
    """
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise StateInvariantError(f"density matrix must be square, got {rho.shape}")
    # a C-ordered conjugate transpose: one strided pass here, and the
    # difference and sum below run over contiguous memory
    adj = np.conjugate(rho.T, order="C") if rho.dtype.kind == "c" else rho.T
    with np.errstate(invalid="ignore"):
        defect = rho - adj
    # sum |d_ij|^2 bounds max |d_ij|^2 and takes one dot product: in double
    # precision a sum below (HERM_TOL/2)^2 passes whatever its rounding, and
    # only a larger one (or NaN) has its largest modulus measured
    if not (
        defect.dtype in _DOUBLE_DTYPES and np.vdot(defect, defect).real <= 0.25 * HERM_TOL**2
    ):
        herm = np.abs(defect).max()
        if not herm <= HERM_TOL:
            raise StateInvariantError(f"Hermiticity defect {herm:.3e} > {HERM_TOL}")
    tr = rho.trace().real
    if not abs(tr - 1.0) <= TRACE_TOL:
        raise StateInvariantError(f"trace {tr} deviates from 1 by more than {TRACE_TOL}")
    # 2 (H + EIG_TOL I), scaled by an exact factor 2 that leaves the verdict
    # as it is; its transpose is the Fortran-ordered conjugate, with the same
    # eigenvalues, so potrf factors it in place without a copy
    work, potrf = _factorization(rho.dtype)
    shifted = np.add(rho, adj, dtype=work, order="C")
    shifted.reshape(-1)[:: rho.shape[0] + 1] += 2 * EIG_TOL
    _, info = potrf(shifted.T, overwrite_a=True, clean=False)
    if info != 0:
        low = np.linalg.eigvalsh(0.5 * (rho + adj)).min()
        if not low >= -EIG_TOL:
            raise StateInvariantError(f"negative eigenvalue {low:.3e} < -{EIG_TOL}")
    return rho
