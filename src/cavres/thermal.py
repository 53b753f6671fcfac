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

ThermalPropagator keeps one real block per offset |k| (the diagonals -k and
+k share it) in a few stacks, one for each run of at most _BUCKET_SPAN
consecutive offsets.  A stack holds one slot per |k| of its run, ascending,
and is zero-padded only to its own longest diagonal: at n_max = 60 the four
stacks hold 61 slots and do 1.41 times the useful multiply-adds (diagonal 0
fills both columns of its slot), where one stack padded to dim did 2.97
times.  Up to _BUCKET_SPAN offsets there is a single stack.  Applying
exp(L t) to a stack of matrices is one gather, one batched real matmul per
stack and one inverse gather back, with no loop over diagonals: the gather
puts diagonals -k and +k of every atom block and every matrix side by side
as the columns of the slot of |k|, the complex entries viewed as pairs of
real columns, and each matmul writes its slice of one buffer.  Joint
(atom x field) matrices go through the same gathers with all four atom
blocks side by side, since the jumps act on the field factor only.
Propagators of different durations share the gather tables (one set per
dim and atom levels) and the rate blocks (one set per dim and cavity).
exp(L 2t) is exactly exp(L t) squared, so squared() doubles a step with one
matmul per stack in place of dim expm calls.  A Hermitian joint matrix is
fixed by the diagonals +k >= 0 of its four atom blocks, so apply_hermitian
gathers only those, through one flat index, and writes each -k diagonal
back as the conjugate of its relaxed mirror: half the columns of
apply_batched, read from and written to the transit kernel's batch-last
layout as it is.
"""

from __future__ import annotations

import copy
import threading
from dataclasses import dataclass
from functools import lru_cache

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


# Offsets per diagonal stack.  A longer run pads its shorter diagonals to the
# length of its longest one, a shorter run adds a matmul call; at n_max 60,
# runs of 10 to 20 offsets tied and longer ones were slower (see CHANGES.md),
# with one slot per offset as with two, and 20 keeps every n_max up to 19 in
# one stack.
_BUCKET_SPAN = 20


@lru_cache(maxsize=16)
def _rate_blocks(dim: int, cavity: CavityParams) -> tuple[np.ndarray, ...]:
    """rate_block(d, dim, cavity) for d = 0 .. dim-1, shared read-only by
    the propagators of every duration."""
    blocks = tuple(rate_block(d, dim, cavity) for d in range(dim))
    for block in blocks:
        block.flags.writeable = False
    return blocks


def _bucket_offsets(dim: int) -> list[np.ndarray]:
    """Offsets |k| of each stack, ascending: 0 .. dim-1 split into
    ceil(dim / _BUCKET_SPAN) runs of nearly equal length."""
    return np.array_split(np.arange(dim), -(-dim // _BUCKET_SPAN))


@lru_cache(maxsize=16)
def _stack_indices(
    dim: int, levels: int
) -> tuple[tuple[np.ndarray, ...], tuple[int, ...], np.ndarray]:
    """Gather and inverse-gather indices between the diagonal stacks and a
    (levels*dim)-square matrix flattened row-major.

    For each stack, gather[s, m, sign, q] is the flat index of entry m of
    field diagonal -k (sign 0) or +k (sign 1), for the stack's s-th offset
    k, in atom block q = levels*a + b.  Entries past the end of a diagonal
    point at 0 and meet zero columns of the stack; diagonal -0 repeats +0,
    and the inverse gather reads only the latter.  Laid end to end, the
    gathered arrays of stack j fill positions bounds[j] to bounds[j+1], and
    scatter[i] is the position of flat entry i.  Read-only, shared by every
    propagator.
    """
    a, b = np.divmod(np.arange(levels * levels), levels)
    size = levels * dim
    gathers, bounds = [], [0]
    scatter = np.empty(size * size, dtype=np.intp)
    for offsets in _bucket_offsets(dim):
        k = offsets[:, None, None]
        m = np.arange(dim - offsets[0])[None, :, None]
        plus = np.array([0, 1])  # sign 0: entry (m+k, m); sign 1: entry (m, m+k)
        row, col = m + k * (1 - plus), m + k * plus
        inside = (m + k < dim)[..., None]
        gather = (a * dim + row[..., None]) * size + b * dim + col[..., None]
        valid = np.broadcast_to(inside & ((k > 0) | (plus == 1))[..., None], gather.shape)
        scatter[gather[valid]] = bounds[-1] + np.flatnonzero(valid)
        gathers.append(np.where(inside, gather, 0))
        gathers[-1].flags.writeable = False
        bounds.append(bounds[-1] + gather.size)
    scatter.flags.writeable = False
    return tuple(gathers), tuple(bounds), scatter


@lru_cache(maxsize=16)
def _half_plan(dim: int) -> tuple[np.ndarray, tuple[int, ...], np.ndarray]:
    """Gather and scatter indices of apply_hermitian on joint (2 dim)-square
    matrices flattened row-major.

    A Hermitian joint matrix is fixed by the field diagonals +k >= 0 of its
    four atom blocks: diagonal -k of block (a, b) is the conjugate of
    diagonal +k of block (b, a), and each real block maps conjugates to
    conjugates.  gather holds the flat index of entry m of diagonal +k in
    atom block q = 2a + b, laid out (slot, m, q) for each stack and the
    stacks end to end, stack j at positions bounds[j] to bounds[j+1];
    entries past the end of a diagonal point at 0 and meet zero columns of
    the stack.  Read from the relaxed entries followed by their conjugates,
    scatter[i] is the position of flat entry i: its own on a diagonal
    k >= 0, its mirror's plus bounds[-1] on k < 0.  Read-only, shared by
    every propagator.
    """
    a, b = np.divmod(np.arange(4), 2)
    size = 2 * dim
    buckets = _bucket_offsets(dim)
    half = 4 * sum(len(offsets) * (dim - offsets[0]) for offsets in buckets)
    gathers, bounds = [], [0]
    scatter = np.empty(size * size, dtype=np.intp)
    for offsets in buckets:
        k = offsets[:, None, None]
        m = np.arange(dim - offsets[0])[None, :, None]
        # entry (a dim + m, b dim + m + k), and its mirror on diagonal -k of
        # block (b, a), which diagonal 0 leaves to block (b, a) itself
        gather = (a * dim + m) * size + b * dim + m + k
        mirror = (b * dim + m + k) * size + a * dim + m
        inside = np.broadcast_to(m + k < dim, gather.shape)
        below = inside & (k > 0)
        scatter[gather[inside]] = bounds[-1] + np.flatnonzero(inside)
        scatter[mirror[below]] = half + bounds[-1] + np.flatnonzero(below)
        gathers.append(np.where(inside, gather, 0).ravel())
        bounds.append(bounds[-1] + gather.size)
    gather = np.concatenate(gathers)
    gather.flags.writeable = scatter.flags.writeable = False
    return gather, tuple(bounds), scatter


# apply_batched's and apply_hermitian's gather and matmul buffers: scratch
# memory, one block of each per thread, which every propagator reuses and no
# call reads before writing.
# Allocated afresh on each call, arrays of this size were handed back to the
# operating system and page-faulted in again each time, which made the loss
# steps up to five times slower per matrix at some batch sizes (see
# CHANGES.md).
_WORKSPACE = threading.local()


def _workspace(rows: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Two (rows, count) complex buffers from this thread's workspace, which
    grows to the largest request and is kept for every later call."""
    size = rows * count
    buf = getattr(_WORKSPACE, "buf", None)
    if buf is None or buf.size < 2 * size:
        buf = _WORKSPACE.buf = np.empty(2 * size, dtype=complex)
    return buf[:size].reshape(rows, count), buf[size:2 * size].reshape(rows, count)


def _half_workspace(dim: int, count: int) -> tuple[np.ndarray, np.ndarray, list]:
    """apply_hermitian's buffers from this thread's workspace: the gathered
    entries, the relaxed ones followed by their conjugates, and for each
    stack the real views its matmul reads and writes, made once rather than
    at every step.  One set per thread, for the last (dim, count) asked,
    kept for every later call."""
    held = getattr(_WORKSPACE, "half", None)
    if held is None or held[0] != (dim, count):
        bounds = _half_plan(dim)[1]
        picked = np.empty((bounds[-1], count), dtype=complex)
        both = np.empty((2 * bounds[-1], count), dtype=complex)
        views = []
        for offsets, lo, hi in zip(_bucket_offsets(dim), bounds, bounds[1:]):
            shape = (len(offsets), dim - offsets[0], -1)
            views.append((picked[lo:hi].reshape(shape).view(float),
                          both[lo:hi].reshape(shape).view(float)))
        held = _WORKSPACE.half = ((dim, count), picked, both, views)
    return held[1:]


class ThermalPropagator:
    """exp(L t) for one fixed duration, applied to all diagonals at once."""

    def __init__(self, duration: float, cavity: CavityParams, dim: int):
        if duration < 0:
            raise ValueError("duration must be >= 0")
        self.duration = duration
        self.cavity = cavity
        self.dim = dim
        blocks = [expm(rate * duration) for rate in _rate_blocks(dim, cavity)]
        # one stack per run of offsets, one slot per |k|
        self.stacks = []
        for offsets in _bucket_offsets(dim):
            length = dim - offsets[0]
            stack = np.zeros((len(offsets), length, length))
            for slot, d in enumerate(offsets):
                stack[slot, : dim - d, : dim - d] = blocks[d]
            self.stacks.append(stack)
        # field matrices (dim square) and joint ones (2 dim square)
        self._indices = {dim: _stack_indices(dim, 1), 2 * dim: _stack_indices(dim, 2)}

    def squared(self) -> ThermalPropagator:
        """exp(L 2t) as exp(L t) squared: one batched matmul per stack on
        the same gather tables.  A slot's zero padding squares to zero, so
        each block is squared on its own."""
        sq = copy.copy(self)
        sq.duration = 2 * self.duration
        sq.stacks = [stack @ stack for stack in self.stacks]
        return sq

    def adjoint(self) -> ThermalPropagator:
        """The Hilbert-Schmidt adjoint of exp(L t), with
        <Y, exp(L t) X> = <adjoint(Y), X>: each diagonal's real block
        transposed, on the same gather tables."""
        adj = copy.copy(self)
        adj.stacks = [stack.transpose(0, 2, 1) for stack in self.stacks]
        return adj

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
        gathers, bounds, scatter = self._indices[size]
        cols = mats.astype(complex, copy=False).reshape(count, size * size).T
        picked, relaxed = _workspace(bounds[-1], count)
        for stack, gather, lo, hi in zip(self.stacks, gathers, bounds, bounds[1:]):
            # every index is in range; mode "raise" would buffer the output
            np.take(cols, gather.ravel(), axis=0, out=picked[lo:hi], mode="clip")
            shape = (*stack.shape[:2], -1)
            np.matmul(
                stack,
                picked[lo:hi].reshape(shape).view(float),
                out=relaxed[lo:hi].reshape(shape).view(float),
            )
        out = relaxed.take(scatter, axis=0)
        return out.T.reshape(count, size, size)

    def apply_hermitian(self, held: np.ndarray) -> np.ndarray:
        """exp(L t) applied to Hermitian joint matrices held batch last,
        shape (2 dim, 2 dim, M), C-contiguous complex, as
        TransitKernel.propagate_batched holds them; the result comes in the
        same layout.

        Only the diagonals +k >= 0 of the four atom blocks are gathered and
        relaxed, on half the columns of apply_batched; every -k entry is
        written back as the conjugate of its relaxed mirror (_half_plan), so
        a non-Hermitian input loses its anti-Hermitian part off the field
        diagonal.
        """
        gather, bounds, scatter = _half_plan(self.dim)
        count, half = held.shape[-1], bounds[-1]
        picked, both, views = _half_workspace(self.dim, count)
        # every index is in range; mode "raise" would buffer the output
        np.take(held.reshape(-1, count), gather, axis=0, out=picked, mode="clip")
        for stack, (operand, relaxed) in zip(self.stacks, views):
            np.matmul(stack, operand, out=relaxed)
        np.conjugate(both[:half], out=both[half:])
        return both.take(scatter, axis=0).reshape(held.shape)
