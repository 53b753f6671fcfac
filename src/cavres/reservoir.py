"""Engineered atomic reservoir acting on the cavity field.

Each sample period t_i either injects one prepared atom (probability
p_at) that crosses the cavity, or leaves the field alone; in both cases
the field relaxes thermally.  Iterating the per-sample map drives the
field toward the reservoir's pointer state: a coherent state for a
resonant-only stream, cats / squeezed / banana states when the crossing
acquires dispersive wings.

Two transit backends share this engine.  "numeric" integrates the full
time-dependent schedule with loss interleaved (see dynamics); "analytic"
applies the instantaneous composite crossing.  The deterministic mixing
mode averages the atom/no-atom branches; monte_carlo draws one branch per
sample from a seeded generator.

A crossing without loss is one excitation-conserving unitary, so it acts on
the field through two bidiagonal Kraus operators built straight from its
pair coefficients (_kraus_pair): no joint matrix is formed.  The analytic
backend takes the coefficients of the closed form, and a loss-free numeric
crossing those of the kernel's slices composed in order (exact, since no
loss step sits between them).  Both branches of an analytic sample relax
over the same t_i, so every analytic or loss-free sample is
R((1 - p_at) I + p_at A): one product with a cached sparse map, where
A = sum_m K_m (x) conj(K_m) (25,561 nonzeros at n_max 60), then one
relaxation R when there is a cavity.  A Monte-Carlo draw is the same map at
p_at 1 or 0.

The sample map is linear in the state, and build_sample_superop gives it
for every config as one sparse (dim^2, dim^2) operator S, the ensemble
average for a Monte-Carlo config: without a cavity the loss-free Kraus map
itself, and with one R times that map for an analytic crossing.  Only a
deterministic numeric run long enough to pay for the build
(n_samples >= 3 dim) iterates S; every other run applies sample_map
directly.  Transit and loss conserve the joint excitation difference, so
the lossy numeric crossing maps each field diagonal only to its
neighbours: its S is assembled from four branch maps K_gg, K_ee, K_ge and
K_eg read off probe propagations (column grouping over the known diagonal
structure, as for sparse Jacobians; Curtis, Powell and Reid, J. Inst.
Math. Appl. 13, 117 (1974)).
The probes cross the adjoint of the crossing, where one image holds a
probe's read-off for all four maps as its four atom blocks, and R is read
the same way off the adjoint relaxation.  Two probes share each
propagation and part by Hermiticity, so a build takes ceil(dim/2) probe
propagations, and one reader builds each map in its own orientation.  The
branch maps depend on neither u nor p_at and are cached, so runs in one
process that differ only in those two reuse one build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache, reduce

import numpy as np
from scipy import sparse

from cavres.fock import HilbertConfig, TruncationError, validate_density
from cavres.thermal import CavityParams, ThermalPropagator
from cavres.dynamics import (
    TransitProfile,
    _compose,
    _one_entry_cache,
    _pair_coefficients,
    atom_ket,
    embed_with_atom,
    get_kernel,
    phi0_of,
    theta_of,
    trace_atom,
)
from cavres.metrics import MetricsRecord, mean_photon, overlap_fidelity, purity

__all__ = [
    "ReservoirConfig",
    "TrajectoryResult",
    "TrajectoryError",
    "relax",
    "sample_map",
    "run_trajectory",
    "switch_off_decay",
    "build_sample_superop",
]


class TrajectoryError(RuntimeError):
    """State invariant violated during a trajectory; carries the sample index."""

    def __init__(self, message: str, sample_index: int):
        super().__init__(message)
        self.sample_index = sample_index


# Largest cavity loss over one transit, kappa t_i = 2 t_i / t_c.  A 3-sample
# cat2 run first failed its state checks at kappa t_i of 2.2e6 (profile.v,
# n_max 60) to 1.0e7 (cavity.t_c, n_max 15), with trace errors above 1e-8,
# and a NaN state far beyond; the presets sit at 4e-3.
_KAPPA_T_MAX = 1e5


@dataclass(frozen=True)
class ReservoirConfig:
    """One reservoir scenario: who crosses the cavity, and how often.

    cavity None disables loss entirely (ideal cavity).  monte_carlo mode
    requires an explicit seed so that every output can be reproduced.  The
    loss over one transit, kappa t_i, is bounded by _KAPPA_T_MAX, more than
    20 times below where runs start to fail their state checks.
    """

    profile: TransitProfile
    u: float
    cavity: CavityParams | None = CavityParams()
    p_at: float = 0.3
    n_samples: int = 200
    mixing_mode: str = "deterministic"
    seed: int | None = None
    backend: str = "numeric"

    def __post_init__(self) -> None:
        if not math.isfinite(self.u):
            raise ValueError(f"u must be finite, got {self.u}")
        if not 0.0 <= self.p_at <= 1.0:
            raise ValueError(f"p_at must lie in [0, 1], got {self.p_at}")
        if self.n_samples < 0:
            raise ValueError(f"n_samples must be >= 0, got {self.n_samples}")
        if self.mixing_mode not in ("deterministic", "monte_carlo"):
            raise ValueError(f"unknown mixing_mode {self.mixing_mode!r}")
        if self.mixing_mode == "monte_carlo" and self.seed is None:
            raise ValueError("monte_carlo mixing requires an explicit seed")
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.backend not in ("numeric", "analytic"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.cavity is not None:
            loss = self.cavity.kappa * self.profile.t_i
            if not loss <= _KAPPA_T_MAX:
                raise ValueError(
                    f"cavity loss over one transit kappa t_i = 2 t_i / t_c = {loss:.3g} "
                    f"exceeds {_KAPPA_T_MAX:.0e}: raise cavity.t_c or profile.v"
                )


@dataclass
class TrajectoryResult:
    """Outcome of iterating the sample map.

    records[j] holds the metrics after j samples (index 0 is the initial
    state, at time j * t_i).  truncation_peak is the largest population
    seen above 0.9 * n_max, a health check on the basis size.
    """

    final_state: np.ndarray
    records: list[MetricsRecord]
    truncation_peak: float


# Each cache below keeps one entry: a run, its switch-off and each serial
# sweep value use one key, and a u or p_at sweep shares the key of the
# u-independent builds.  _branch_maps, like get_kernel, drops its entry
# before it builds the next; the lookups made once per sample stay on the
# C lru_cache, which is cheaper per call.
@lru_cache(maxsize=1)
def _relax_propagator(duration: float, cavity: CavityParams, dim: int) -> ThermalPropagator:
    return ThermalPropagator(duration, cavity, dim)


def relax(rho: np.ndarray, duration: float, cavity: CavityParams | None) -> np.ndarray:
    """Free thermal relaxation of the field for the given duration; cavity
    None is an ideal cavity, which returns a copy of rho."""
    if duration < 0:
        raise ValueError(f"duration must be >= 0, got {duration}")
    if cavity is None:
        return rho.copy()
    return _relax_propagator(duration, cavity, rho.shape[0]).apply(rho)


def _kraus_pair(coeffs, psi: np.ndarray) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
    """Field-space Kraus pair K_m = (<m_atom| tensor I) U (|psi> tensor I),
    m in {g, e}, of an excitation-conserving crossing U with pair
    coefficients (ag, ae, bg, bl; see dynamics._pair_coefficients), for an
    atom injected in psi = (psi_g, psi_e):

        K_g = psi_g diag(ag) + psi_e subdiag(bg)
        K_e = psi_e diag(ae) + psi_g superdiag(bl)

    K_g is lower- and K_e upper-bidiagonal."""
    ag, ae, bg, bl = coeffs
    psi_g, psi_e = psi
    k_g = sparse.diags([psi_g * ag, psi_e * bg], [0, -1], format="csr")
    k_e = sparse.diags([psi_e * ae, psi_g * bl], [0, 1], format="csr")
    return k_g, k_e


def _crossing_coefficients(profile: TransitProfile, backend: str, dim: int):
    """Pair coefficients of the loss-free crossing.  analytic: the composite
    U_d(phi0) U_r(Theta) U_d(phi0)', whose dephasing only adds the Kerr
    gratings exp(-+2i phi0 (n+1)) to the exchange entries bg and bl of U_r.
    numeric: the kernel's slices composed in order, exact here since no loss
    step sits between them."""
    cfg = HilbertConfig(n_max=dim - 1)
    if backend == "numeric":
        slices = get_kernel(profile, cfg, None).slices
        return reduce(lambda acc, later: _compose(later, acc), slices)
    ag, ae, bg, bl = _pair_coefficients(1.0, 0.0, theta_of(profile), cfg)
    phi0 = 0.0 if profile.delta_disp == 0 else phi0_of(profile)
    grating = np.exp(-2j * phi0 * np.arange(1, dim))
    return ag, ae, bg * grating, bl * grating.conj()


@lru_cache(maxsize=1)
def _kraus_map(
    profile: TransitProfile, backend: str, u: float, p_at: float, dim: int
) -> sparse.csr_matrix:
    """(1 - p_at) I + p_at A on row-major vec, for the loss-free crossing
    A = sum_m K_m (x) conj(K_m) over its Kraus pair (_kraus_pair) in either
    backend; the identity at p_at 0, with no crossing built.  K_g is lower-
    and K_e upper-bidiagonal, so A has 2 (2 dim - 1)^2 - dim^2 entries
    (11,441 at n_max 40)."""
    s_map = sparse.identity(dim * dim, dtype=complex, format="csr")
    if p_at > 0.0:
        k_g, k_e = _kraus_pair(_crossing_coefficients(profile, backend, dim), atom_ket(u))
        crossing = (
            sparse.kron(k_g, k_g.conj(), format="csr")
            + sparse.kron(k_e, k_e.conj(), format="csr")
        )
        s_map = (1.0 - p_at) * s_map + p_at * crossing
        s_map.eliminate_zeros()
    return s_map


def sample_map(
    rho: np.ndarray,
    config: ReservoirConfig,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """One sample period of the reservoir.

    Deterministic mode mixes the atom and no-atom branches with weight
    p_at; monte_carlo mode draws one branch (pass the trajectory's
    generator via rng, else a fresh one is seeded from config.seed), which
    is the deterministic map at p_at 1 or 0.  An analytic or loss-free
    sample is one product with the Kraus map (_kraus_map), then one
    relaxation if there is a cavity; a lossy numeric sample propagates the
    joint state through the kernel, whose loss steps read only the
    Hermitian half of it (rho is a density matrix).
    """
    p_at = config.p_at
    if config.mixing_mode == "monte_carlo":
        if rng is None:
            rng = np.random.default_rng(config.seed)
        p_at = 1.0 if rng.random() < config.p_at else 0.0
    if p_at == 0.0:
        return relax(rho, config.profile.t_i, config.cavity)
    if config.backend == "analytic" or config.cavity is None:
        dim = rho.shape[0]
        s_map = _kraus_map(config.profile, config.backend, config.u, p_at, dim)
        out = (s_map @ rho.reshape(-1)).reshape(dim, dim)
        if config.cavity is None:
            return out
        return relax(out, config.profile.t_i, config.cavity)
    # one numeric crossing by one atom, loss interleaved; the joint state
    # |u><u| (x) rho is Hermitian, so the loss steps relax half of it
    kernel = get_kernel(config.profile, HilbertConfig(n_max=rho.shape[0] - 1), config.cavity)
    joint = embed_with_atom(rho, atom_ket(config.u))
    atom_part = trace_atom(kernel.propagate(joint, hermitian=True))
    if p_at == 1.0:
        return atom_part
    return (1.0 - p_at) * relax(rho, config.profile.t_i, config.cavity) + p_at * atom_part


# ---------------------------------------------------------------------------
# sample operator
# ---------------------------------------------------------------------------

# Probe matrices per push through a map: as many as fit in the joint
# (2 dim x 2 dim) entries of _PROBE_BATCH of them at n_max 60, and never
# fewer than _PROBE_BATCH.  Larger pushes were up to 9 % faster at n_max 60
# but grow the loss steps' workspace in proportion, so up to n_max 60 no
# field needs more workspace than n_max 60 does, and a smaller field goes out
# in fewer pushes, each of which pays the propagation's fixed cost (see
# CHANGES.md).
_PROBE_BATCH = 8
_PROBE_ENTRIES = _PROBE_BATCH * 122**2


def _probes(dim: int, levels: np.ndarray) -> np.ndarray:
    """Probe matrices for the given levels p: probe p is 1 where
    min(row, col) = p, so it holds element p of every field diagonal at once."""
    field = np.arange(dim)
    return (np.minimum.outer(field, field) == levels[:, None, None]).astype(float)


def _probe_images(push, dim: int) -> np.ndarray:
    """conj(push(P_p)) for the probes p = 0 .. dim-1, stacked, where push
    maps a stack of field matrices to a stack of images and preserves
    Hermiticity.  Probes p and q = p + ceil(dim/2) travel together as
    P_p + i P_q, and part as the conjugated Hermitian and anti-Hermitian
    parts of the pair's image W, (conj(W) + W^T)/2 and (W^T - conj(W))/2i:
    ceil(dim/2) matrices are pushed, as many at a time as _PROBE_ENTRIES
    admits.  Conjugated in the split rather than after it, a real image keeps
    +0 imaginary parts."""
    sent = -(-dim // 2)
    batch = max(_PROBE_BATCH, _PROBE_ENTRIES // (2 * dim) ** 2)
    images = None
    for start in range(0, sent, batch):
        first = np.arange(start, min(start + batch, sent))
        second = first[first + sent < dim] + sent
        field = _probes(dim, first).astype(complex)
        field[:len(second)] += 1j * _probes(dim, second)
        out = push(field)
        if images is None:
            images = np.empty((dim, *out.shape[1:]), dtype=complex)
        out_conj, out_t = out.conj(), out.swapaxes(-1, -2)
        images[second] = (out_t[:len(second)] - out_conj[:len(second)]) / 2j
        images[first] = (out_conj + out_t) / 2
    return images


def _read_map(images: np.ndarray, shift: int) -> sparse.csr_matrix:
    """CSR matrix, on row-major vec, of a field map K that sends diagonal k
    (column - row) only to k + shift, read off images[p] = conj(K'(P_p)),
    the conjugated probe images under its Hilbert-Schmidt adjoint K'
    (_probe_images).  K' sends k + shift back to k and P_p holds one element
    of each diagonal, so row (r, c) of K is images[min(r, c)] along diagonal
    c - r - shift, in ascending columns.  Exact zeros are kept, so maps of
    one dim and shift share one pattern."""
    dim = images.shape[-1]
    levels = np.arange(dim)
    k_in = (levels[None, :] - levels[:, None] - shift).reshape(-1)
    valid = np.abs(k_in)[:, None] + levels < dim
    row, m = np.nonzero(valid)
    k = k_in[row]
    r_in, c_in = m + np.maximum(-k, 0), m + np.maximum(k, 0)
    probe = np.minimum(*np.divmod(row, dim))
    return sparse.csr_matrix(
        (images[probe, r_in, c_in], r_in * dim + c_in,
         np.concatenate(([0], np.cumsum(valid.sum(axis=1))))),
        shape=(dim * dim, dim * dim),
    )


@_one_entry_cache
def _branch_maps(
    profile: TransitProfile, cfg: HilbertConfig, cavity: CavityParams
) -> tuple[sparse.csr_matrix, ...]:
    """K_gg, K_ee, K_ge and K_eg, with K_ab(X) = Tr_atom K(|a><b| tensor X)
    for the lossy crossing K (a loss-free crossing is its Kraus map).
    Transit and loss both conserve the joint excitation difference, so K_gg
    and K_ee keep each field diagonal k on k, K_ge sends it to k + 1 and
    K_eg to k - 1.  All four are read off the crossing's adjoint K':
    K_ab'(Y) = <a|K'(I tensor Y)|b>, so one adjoint propagation of
    I tensor P gives probe P's image under every K_ab' as one atom block,
    and _read_map reads K_ab off those blocks.  I tensor P is Hermitian and
    K' preserves Hermiticity, so _probe_images pushes ceil(dim/2) paired
    probes.  None of the four maps depends on the atom state u or on p_at.
    """
    adjoint = get_kernel(profile, cfg, cavity).adjoint()
    dim = cfg.dim

    def push(field: np.ndarray) -> np.ndarray:
        joint = np.zeros((len(field), 2, dim, 2, dim), dtype=complex)
        joint[:, 0, :, 0, :] = field
        joint[:, 1, :, 1, :] = field
        return adjoint.propagate_batched(joint.reshape(len(field), 2 * dim, 2 * dim))

    images = _probe_images(push, dim)
    return tuple(
        _read_map(images[:, a * dim:(a + 1) * dim, b * dim:(b + 1) * dim], shift)
        for a, b, shift in ((0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, -1))
    )


def build_sample_superop(config: ReservoirConfig, cfg: HilbertConfig) -> sparse.csr_matrix:
    """Sparse matrix S of the deterministic sample map on vectorized states.

    Row-major vec convention: vec(rho)[i * dim + j] = rho[i, j].  S exists
    for every config; a Monte-Carlo config gets its ensemble average, the
    map of its deterministic twin.  Without a cavity S is the loss-free
    Kraus map that sample_map applies (_kraus_map), the identity at p_at 0.
    With one, R is the thermal relaxation over t_i, read off paired probes
    pushed through its adjoint (_probe_images, _read_map).  An analytic
    crossing gives S = R (_kraus_map), the order in which sample_map applies
    the two.  A numeric one gives S = (1 - p_at) R + p_at A_u, with the
    lossy crossing A_u = |psi_g|^2 K_gg + |psi_e|^2 K_ee + psi_g psi_e* K_ge
    + c.c. built from the cached u-independent branch maps, whose read-off
    shares R's diagonal-k-to-k pattern for K_gg and K_ee.  Every map is read
    off the same steps as the direct path, so the two agree to rounding.
    Which runs iterate S is run_trajectory's rule alone.
    """
    if config.cavity is None:
        # a copy: the cached map is the one every loss-free sample applies
        return _kraus_map(config.profile, config.backend, config.u, config.p_at, cfg.dim).copy()
    relaxation = _relax_propagator(config.profile.t_i, config.cavity, cfg.dim).adjoint()
    s_map = _read_map(_probe_images(relaxation.apply_batched, cfg.dim), shift=0)
    if config.backend == "analytic":
        s_map = s_map @ _kraus_map(config.profile, config.backend, config.u, config.p_at, cfg.dim)
    elif config.p_at > 0.0:
        k_gg, k_ee, k_ge, k_eg = _branch_maps(config.profile, cfg, config.cavity)
        psi_g, psi_e = atom_ket(config.u)
        cross = psi_g * np.conj(psi_e)
        # R, K_gg and K_ee keep diagonal k on k over one pattern, so their
        # part of S is summed on R's data in place, in the order of
        # (1 - p_at) R + p_at (|psi_g|^2 K_gg + |psi_e|^2 K_ee); the
        # k -> k +- 1 maps are added after it
        s_map.data *= 1.0 - config.p_at
        s_map.data += config.p_at * (
            abs(psi_g) ** 2 * k_gg.data + abs(psi_e) ** 2 * k_ee.data
        )
        s_map = (
            s_map
            + config.p_at * (cross * k_ge)
            + config.p_at * (np.conj(cross) * k_eg)
        )
    s_map.eliminate_zeros()
    return s_map


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

def _snapshot(
    j: int,
    t_i: float,
    rho: np.ndarray,
    reference: np.ndarray | None,
) -> MetricsRecord:
    fid = float("nan") if reference is None else overlap_fidelity(rho, reference)
    # positional in field order (sample_index, time, n_bar, purity, fidelity,
    # trace_error): keywords cost about a microsecond more per record
    return MetricsRecord(
        j, j * t_i, mean_photon(rho), purity(rho), fid, abs(float(rho.trace().real) - 1.0)
    )


def _police_state(rho: np.ndarray, j: int, first_high: int) -> float:
    """Validate invariants; return the population on the levels from
    first_high up, those above 0.9 * n_max."""
    try:
        validate_density(rho)
    except ValueError as exc:
        raise TrajectoryError(f"sample {j}: {exc}", j) from exc
    peak = float(rho.diagonal()[first_high:].sum().real)
    if peak > 1e-4:
        raise TruncationError(
            f"sample {j}: population {peak:.2e} above 0.9 n_max; "
            "the basis is too small for this trajectory"
        )
    return peak


def run_trajectory(
    rho0: np.ndarray,
    config: ReservoirConfig,
    observer=None,
    reference: np.ndarray | None = None,
) -> TrajectoryResult:
    """Iterate the sample map n_samples times, recording metrics each period.

    observer(j, rho_copy) is called after every recorded sample (including
    j = 0).  reference, when given, is the pure state fidelity is tracked
    against.  rho0 is policed before anything is built.
    Deterministic numeric runs with n_samples >= 3 dim iterate the sparse
    operator of build_sample_superop.  With a cavity its ceil(dim/2) probe
    propagations cost about as much as 0.25-0.3 dim direct samples at n_max
    16 and 0.75-0.85 dim at n_max 60; without one it is the Kraus map that
    sample_map applies.  All other runs call sample_map each sample, though
    the operator exists for them too; an analytic or loss-free sample there
    is one sparse product with a cached map plus at most one relaxation, as
    cheap as an operator product (README, Long runs).  The two paths agree
    to rounding.
    """
    cfg = HilbertConfig(n_max=rho0.shape[0] - 1)
    rho = rho0.astype(complex)
    # the first level above 0.9 n_max
    first_high = int(0.9 * cfg.n_max) + 1
    peak = _police_state(rho, 0, first_high)
    t_i = config.profile.t_i

    use_operator = (
        config.mixing_mode == "deterministic"
        and config.backend == "numeric"
        and config.n_samples >= 3 * cfg.dim
    )

    rng = None
    if config.mixing_mode == "monte_carlo":
        rng = np.random.default_rng(config.seed)

    superop = build_sample_superop(config, cfg) if use_operator else None

    records = [_snapshot(0, t_i, rho, reference)]
    if observer is not None:
        observer(0, rho.copy())

    for j in range(1, config.n_samples + 1):
        if superop is not None:
            rho = (superop @ rho.reshape(-1)).reshape(cfg.dim, cfg.dim)
        else:
            rho = sample_map(rho, config, rng=rng)
        peak = max(peak, _police_state(rho, j, first_high))
        records.append(_snapshot(j, t_i, rho, reference))
        if observer is not None:
            observer(j, rho.copy())

    return TrajectoryResult(final_state=rho, records=records, truncation_peak=peak)


def switch_off_decay(
    traj: TrajectoryResult,
    extra_time: float,
    config: ReservoirConfig,
    reference: np.ndarray | None = None,
) -> TrajectoryResult:
    """Continue a finished trajectory with the atom stream off.

    Pure relaxation in steps of t_i: the deterministic sample map with
    p_at = 0, run through run_trajectory.  Metrics are sampled on the same
    period grid, and the records continue past the last sample index.
    """
    if extra_time < 0:
        raise ValueError(f"extra_time must be >= 0, got {extra_time}")
    t_i = config.profile.t_i
    n_extra = int(np.ceil(extra_time / t_i - 1e-12))
    if n_extra == 0:
        return traj

    off = replace(config, p_at=0.0, n_samples=n_extra, mixing_mode="deterministic")
    tail = run_trajectory(traj.final_state, off, reference=reference)
    start = traj.records[-1].sample_index
    continued = [
        replace(rec, sample_index=start + rec.sample_index,
                time=(start + rec.sample_index) * t_i)
        for rec in tail.records[1:]
    ]
    return TrajectoryResult(
        final_state=tail.final_state,
        records=traj.records + continued,
        truncation_peak=max(traj.truncation_peak, tail.truncation_peak),
    )
