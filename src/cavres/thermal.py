"""Thermal photon loss/gain for the cavity mode.

The finite-temperature damping generator

    L[rho] = kappa (1+n_t) (a rho a' - {a'a, rho}/2)
           + kappa n_t     (a' rho a - {a a', rho}/2)

couples density-matrix entries only along fixed diagonals m - n = const.
Each diagonal therefore evolves under a small real tridiagonal rate matrix,
and exp(L t) is assembled exactly from per-diagonal expm calls: relaxation
carries no time-step error here.  All operator products are taken on the
truncated space (a'|n_max> = 0), which keeps the generator trace-preserving
and completely positive on the retained levels.

ThermalPropagator keeps the 2 dim - 1 diagonal blocks (the lower diagonal
of offset -d shares the block of +d) zero-padded into one (2 dim - 1, dim,
dim) real stack.  Applying exp(L t) to a stack of matrices is one gather of
every matrix's diagonals into that padded layout, one batched real matmul
with the complex entries viewed as pairs of real columns, and one inverse
gather back; there is no loop over diagonals.  Joint (atom x field) matrices
go through the same gather with all four atom blocks side by side, since the
jumps act on the field factor only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

__all__ = ["CavityParams", "ThermalPropagator"]


@dataclass(frozen=True)
class CavityParams:
    """Cavity damping: field decay time t_c (s) and thermal occupation n_t.

    t_c is the 1/e time of the field amplitude, so the jump rate entering
    the dissipator is kappa = 2/t_c and the photon number relaxes as
    exp(-2 t/t_c) toward n_t.
    """

    t_c: float = 0.13
    n_t: float = 0.05

    def __post_init__(self) -> None:
        if not (self.t_c > 0 and np.isfinite(self.t_c)):
            raise ValueError(f"t_c must be positive and finite, got {self.t_c}")
        if not (self.n_t >= 0 and np.isfinite(self.n_t)):
            raise ValueError(f"n_t must be >= 0, got {self.n_t}")

    @property
    def kappa(self) -> float:
        return 2.0 / self.t_c


def _aadag_diag(dim: int) -> np.ndarray:
    """Diagonal of the truncated product a a' (last slot is 0)."""
    d = np.arange(1, dim + 1, dtype=float)
    d[-1] = 0.0
    return d


def rate_block(d: int, dim: int, cavity: CavityParams) -> np.ndarray:
    """Real rate matrix for the diagonal of offset d >= 0.

    Row m is the equation for rho[m, m+d]; the block is (dim-d) square.
    """
    if d < 0 or d >= dim:
        raise ValueError("offset out of range")
    kappa = cavity.kappa
    n_t = cavity.n_t
    length = dim - d
    m = np.arange(length, dtype=float)
    aad = _aadag_diag(dim)
    block = np.zeros((length, length))
    # decay into (m, m+d) from (m+1, m+d+1)
    up = kappa * (1 + n_t) * np.sqrt((m[:-1] + 1) * (m[:-1] + d + 1))
    block[np.arange(length - 1), np.arange(1, length)] = up
    # thermal gain into (m, m+d) from (m-1, m+d-1)
    if length > 1:
        down = kappa * n_t * np.sqrt(m[1:] * (m[1:] + d))
        block[np.arange(1, length), np.arange(length - 1)] = down
    diag = -kappa * (1 + n_t) * (m + (m + d)) / 2.0
    diag -= kappa * n_t * (aad[: length] + aad[d:]) / 2.0
    block[np.arange(length), np.arange(length)] += diag
    return block


def _stack_indices(dim: int, levels: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather and inverse-gather indices between a padded diagonal stack and
    a (levels*dim)-square matrix flattened row-major.

    gather[s, m, q] is the flat index of entry m of field diagonal
    k = s - (dim - 1) (column minus row) in atom block q = levels*a + b;
    entries past the end of a diagonal point at 0 and meet zero columns of
    the stack.  scatter[i] is the position of flat entry i in the gathered
    array.
    """
    k = np.arange(2 * dim - 1)[:, None] - (dim - 1)
    m = np.arange(dim)[None, :]
    row, col = m + np.maximum(-k, 0), m + np.maximum(k, 0)
    valid = np.maximum(row, col) < dim
    a, b = np.divmod(np.arange(levels * levels), levels)
    size = levels * dim
    gather = (a * dim + row[..., None]) * size + b * dim + col[..., None]
    valid = np.broadcast_to(valid[..., None], gather.shape)
    gather = np.where(valid, gather, 0)
    scatter = np.empty(size * size, dtype=np.intp)
    scatter[gather[valid]] = np.flatnonzero(valid)
    return gather, scatter


class ThermalPropagator:
    """exp(L t) for one fixed duration, applied to all diagonals at once."""

    def __init__(self, duration: float, cavity: CavityParams, dim: int):
        if duration < 0:
            raise ValueError("duration must be >= 0")
        self.duration = duration
        self.cavity = cavity
        self.dim = dim
        # slot dim-1+k holds the block of diagonal k; -d and +d share one
        self.stack = np.zeros((2 * dim - 1, dim, dim))
        for d in range(dim):
            block = expm(rate_block(d, dim, cavity) * duration)
            self.stack[dim - 1 + d, : dim - d, : dim - d] = block
            self.stack[dim - 1 - d, : dim - d, : dim - d] = block
        # field matrices (dim square) and joint ones (2 dim square)
        self._indices = {dim: _stack_indices(dim, 1), 2 * dim: _stack_indices(dim, 2)}

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """exp(L t) rho for a single field (or joint atom x field) matrix."""
        return self.apply_batched(rho[None, :, :])[0]

    def apply_batched(self, mats: np.ndarray) -> np.ndarray:
        """exp(L t) applied to a stack of matrices, shape (M, size, size).

        size is dim for field matrices, or 2 dim for joint (atom x field)
        matrices, whose four atom blocks relax independently.  The result may
        be a non-contiguous view.
        """
        count, size = mats.shape[0], mats.shape[-1]
        if size not in self._indices or mats.shape[1] != size:
            raise ValueError(
                f"expected matrices of size {self.dim} or {2 * self.dim}, got {mats.shape[1:]}"
            )
        gather, scatter = self._indices[size]
        cols = mats.astype(complex, copy=False).reshape(count, size * size).T
        picked = cols.take(gather, axis=0).reshape(2 * self.dim - 1, self.dim, -1)
        relaxed = np.matmul(self.stack, picked.view(float)).view(complex)
        out = relaxed.reshape(-1, count).take(scatter, axis=0)
        return out.T.reshape(count, size, size)

    def superop_matrix(self) -> np.ndarray:
        """Dense (dim^2, dim^2) matrix of exp(L t) in row-major vec ordering."""
        dim = self.dim
        flat = self._indices[dim][0][..., 0]
        mat = np.zeros((dim * dim, dim * dim), dtype=complex)
        # padded entries all land on mat[0, 0] with weight exactly 0
        np.add.at(mat, (flat[:, :, None], flat[:, None, :]), self.stack)
        return mat

