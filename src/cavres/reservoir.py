"""Engineered atomic reservoir acting on the cavity field.

Each sample period t_i either injects one prepared atom (probability
p_at) that crosses the cavity, or leaves the field alone; in both cases
the field relaxes thermally.  Iterating the per-sample map drives the
field toward the reservoir's pointer state: a coherent state for a
resonant-only stream, cats / squeezed / banana states when the crossing
acquires dispersive wings.

Two transit backends share this engine.  "numeric" integrates the full
time-dependent schedule with loss interleaved (see dynamics); "analytic"
applies the instantaneous composite propagator through its two Kraus
operators and composes relaxation over t_i afterwards.  The deterministic
mixing mode averages the atom/no-atom branches; monte_carlo draws one branch
per sample from a seeded generator.

The deterministic numeric map is linear in the state, so a trajectory long
enough to pay for it (n_samples >= 3 dim) first builds the map as one sparse
(dim^2, dim^2) operator and then iterates sparse matrix-vector products;
Monte-Carlo runs, the analytic backend and shorter runs apply sample_map
directly.  Transit and loss conserve the joint excitation difference, so
the crossing maps each field diagonal only to its neighbours: the operator
is assembled from three branch maps K_gg, K_ee and K_ge read off 3 dim
probe propagations (column grouping over the known diagonal structure, as
for sparse Jacobians; Curtis, Powell and Reid, J. Inst. Math. Appl. 13, 117
(1974)).  The branch maps depend on neither u nor p_at and are cached, so
runs in one process that differ only in those two reuse one build.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy import sparse

from cavres.fock import HilbertConfig, TruncationError, validate_density
from cavres.thermal import CavityParams, ThermalPropagator
from cavres.dynamics import (
    AtomPreparation,
    TransitOptions,
    TransitProfile,
    embed_with_atom,
    get_kernel,
    phi0_of,
    theta_of,
    trace_atom,
    u_composite,
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
    "micromaser_amplitude",
]


class TrajectoryError(RuntimeError):
    """State invariant violated during a trajectory; carries the sample index."""

    def __init__(self, message: str, sample_index: int):
        super().__init__(message)
        self.sample_index = sample_index


@dataclass(frozen=True)
class ReservoirConfig:
    """One reservoir scenario: who crosses the cavity, and how often.

    cavity None disables loss entirely (ideal cavity).  monte_carlo mode
    requires an explicit seed so that every output can be reproduced.
    """

    profile: TransitProfile
    u: float
    cavity: CavityParams | None = CavityParams()
    p_at: float = 0.3
    n_samples: int = 200
    mixing_mode: str = "deterministic"
    seed: int | None = None
    backend: str = "numeric"
    options: TransitOptions = TransitOptions()

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_at <= 1.0:
            raise ValueError(f"p_at must lie in [0, 1], got {self.p_at}")
        if self.n_samples < 0:
            raise ValueError(f"n_samples must be >= 0, got {self.n_samples}")
        if self.mixing_mode not in ("deterministic", "monte_carlo"):
            raise ValueError(f"unknown mixing_mode {self.mixing_mode!r}")
        if self.mixing_mode == "monte_carlo" and self.seed is None:
            raise ValueError("monte_carlo mixing requires an explicit seed")
        if self.backend not in ("numeric", "analytic"):
            raise ValueError(f"unknown backend {self.backend!r}")

    @property
    def atom(self) -> AtomPreparation:
        return AtomPreparation(self.u)


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


@lru_cache(maxsize=64)
def _relax_propagator(duration: float, cavity: CavityParams, dim: int) -> ThermalPropagator:
    return ThermalPropagator(duration, cavity, dim)


def relax(rho: np.ndarray, duration: float, cavity: CavityParams) -> np.ndarray:
    """Free thermal relaxation of the field for the given duration."""
    if duration < 0:
        raise ValueError(f"duration must be >= 0, got {duration}")
    return _relax_propagator(duration, cavity, rho.shape[0]).apply(rho)


@lru_cache(maxsize=32)
def _analytic_kraus(
    profile: TransitProfile, u: float, dim: int
) -> tuple[np.ndarray, np.ndarray]:
    """Field-space Kraus pair of the instantaneous composite crossing.

    K_m = (<m_atom| tensor I) U (|u_atom> tensor I) for m in {g, e}.
    """
    cfg = HilbertConfig(n_max=dim - 1)
    theta = theta_of(profile)
    phi0 = 0.0 if profile.delta_disp == 0 else phi0_of(profile, "second")
    u_mat = u_composite(theta, phi0, cfg)
    atom = AtomPreparation(u).ket()
    injected = atom[0] * u_mat[:, :dim] + atom[1] * u_mat[:, dim:]
    return injected[:dim], injected[dim:]


def _atom_branch(rho: np.ndarray, config: ReservoirConfig, cfg: HilbertConfig) -> np.ndarray:
    """Field map of one crossing by one atom (loss included per backend)."""
    if config.backend == "numeric":
        kernel = get_kernel(config.profile, cfg, config.cavity, config.options)
        joint = embed_with_atom(rho, config.atom.ket())
        return trace_atom(kernel.propagate(joint))
    k_g, k_e = _analytic_kraus(config.profile, config.u, cfg.dim)
    out = k_g @ rho @ k_g.conj().T + k_e @ rho @ k_e.conj().T
    if config.cavity is not None:
        out = relax(out, config.profile.t_i, config.cavity)
    return out


def _empty_branch(rho: np.ndarray, config: ReservoirConfig) -> np.ndarray:
    if config.cavity is None:
        return rho.copy()
    return relax(rho, config.profile.t_i, config.cavity)


def sample_map(
    rho: np.ndarray,
    config: ReservoirConfig,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """One sample period of the reservoir.

    Deterministic mode mixes the atom and no-atom branches with weight
    p_at; monte_carlo mode draws one branch (pass the trajectory's
    generator via rng, else a fresh one is seeded from config.seed).
    """
    cfg = HilbertConfig(n_max=rho.shape[0] - 1)
    if config.mixing_mode == "monte_carlo":
        if rng is None:
            rng = np.random.default_rng(config.seed)
        if rng.random() < config.p_at:
            return _atom_branch(rho, config, cfg)
        return _empty_branch(rho, config)
    if config.p_at == 0.0:
        return _empty_branch(rho, config)
    atom_part = _atom_branch(rho, config, cfg)
    if config.p_at == 1.0:
        return atom_part
    return (1.0 - config.p_at) * _empty_branch(rho, config) + config.p_at * atom_part


# ---------------------------------------------------------------------------
# sample operator
# ---------------------------------------------------------------------------

_PROBE_BATCH = 8  # probe matrices per kernel call; small batches stay in cache


def _probes(dim: int) -> np.ndarray:
    """Stack of dim probe matrices: probe p is 1 where min(row, col) = p,
    so it holds element p of every field diagonal at once."""
    levels = np.arange(dim)
    return (np.minimum.outer(levels, levels) == levels[:, None, None]).astype(complex)


def _diagonal_map(images: np.ndarray, shift: int) -> sparse.csr_matrix:
    """CSR matrix, on row-major vec, of a field map that sends diagonal k
    (column - row) only to diagonal k + shift, read off the images of the
    _probes: entry (r, c) of images[p] is the map's element from element p
    of input diagonal c - r - shift to output entry (r, c).
    """
    dim = images.shape[-1]
    levels = np.arange(dim)
    k_in = levels[None, :] - levels[:, None] - shift
    p = levels[:, None, None]
    valid = np.abs(k_in) + p < dim
    cols = (p + np.maximum(-k_in, 0)) * dim + p + np.maximum(k_in, 0)
    rows = np.broadcast_to(np.arange(dim * dim).reshape(dim, dim), valid.shape)
    out = sparse.csr_matrix(
        (images[valid], (rows[valid], cols[valid])), shape=(dim * dim, dim * dim)
    )
    out.eliminate_zeros()
    return out


@lru_cache(maxsize=4)
def _branch_maps(
    profile: TransitProfile,
    cfg: HilbertConfig,
    cavity: CavityParams | None,
    options: TransitOptions,
) -> tuple[sparse.csr_matrix, ...]:
    """K_gg, K_ee, K_ge and K_eg, with K_ab(X) = Tr_atom K(|a><b| tensor X)
    for the lossy crossing K.  Transit and loss both conserve the joint
    excitation difference, so K_gg and K_ee keep each field diagonal k on k
    and K_ge sends it to k + 1; dim probes per map therefore read off every
    element.  K_eg(X) = K_ge(X')' needs no probes of its own.  None of the
    four depends on the atom state u or on p_at.
    """
    kernel = get_kernel(profile, cfg, cavity, options)
    dim = cfg.dim
    probes = _probes(dim)
    maps = []
    for a, b in ((0, 0), (1, 1), (0, 1)):
        images = np.empty_like(probes)
        for start in range(0, dim, _PROBE_BATCH):
            chunk = probes[start:start + _PROBE_BATCH]
            joint = np.zeros((len(chunk), 2 * dim, 2 * dim), dtype=complex)
            joint[:, a * dim:(a + 1) * dim, b * dim:(b + 1) * dim] = chunk
            out = kernel.propagate_batched(joint).reshape(len(chunk), 2, dim, 2, dim)
            images[start:start + len(chunk)] = out[:, 0, :, 0, :] + out[:, 1, :, 1, :]
        maps.append(_diagonal_map(images, shift=b - a))
        if (a, b) == (0, 1):
            # K_eg(X) = K_ge(X')' and the probes are real symmetric
            maps.append(_diagonal_map(images.conj().transpose(0, 2, 1), shift=-1))
    return tuple(maps)


def build_sample_superop(config: ReservoirConfig, cfg: HilbertConfig) -> sparse.csr_matrix:
    """Sparse matrix S = (1 - p_at) R + p_at A_u of the deterministic numeric
    sample map on vectorized states.

    Row-major vec convention: vec(rho)[i * dim + j] = rho[i, j].  R is the
    thermal relaxation over t_i (identity without a cavity); the atom branch
    is A_u = |psi_g|^2 K_gg + |psi_e|^2 K_ee + psi_g psi_e* K_ge + c.c., built
    from the cached u-independent branch maps.  Every map is read off probes
    sent through the same steps as the direct path, so the two agree to
    rounding.
    """
    if config.mixing_mode != "deterministic" or config.backend != "numeric":
        raise ValueError(
            "the sample operator applies to deterministic mixing with the numeric "
            f"backend only, got {config.mixing_mode!r} mixing, {config.backend!r} backend"
        )
    dim = cfg.dim

    if config.cavity is not None:
        prop = _relax_propagator(config.profile.t_i, config.cavity, dim)
        r_map = _diagonal_map(prop.apply_batched(_probes(dim)), shift=0)
    else:
        r_map = sparse.identity(dim * dim, dtype=complex, format="csr")
    if config.p_at == 0.0:
        return r_map

    k_gg, k_ee, k_ge, k_eg = _branch_maps(config.profile, cfg, config.cavity, config.options)
    psi_g, psi_e = config.atom.ket()
    cross = psi_g * np.conj(psi_e)
    a_map = (
        abs(psi_g) ** 2 * k_gg
        + abs(psi_e) ** 2 * k_ee
        + cross * k_ge
        + np.conj(cross) * k_eg
    )
    if config.p_at == 1.0:
        return a_map
    return (1.0 - config.p_at) * r_map + config.p_at * a_map


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
    return MetricsRecord(
        sample_index=j,
        time=j * t_i,
        n_bar=mean_photon(rho),
        purity=purity(rho),
        fidelity=fid,
        trace_error=abs(float(np.real(np.trace(rho))) - 1.0),
    )


def _police_state(rho: np.ndarray, j: int, cfg: HilbertConfig) -> float:
    """Validate invariants; return the population above 0.9 * n_max."""
    try:
        validate_density(rho)
    except ValueError as exc:
        raise TrajectoryError(f"sample {j}: {exc}", j) from exc
    high = np.arange(cfg.dim) > 0.9 * cfg.n_max
    peak = float(np.real(np.diag(rho)[high].sum()))
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
    operator of build_sample_superop, whose 3 dim probe propagations cost
    no more than 3 dim direct samples; all others call sample_map each
    sample.  The two paths agree to rounding.
    """
    cfg = HilbertConfig(n_max=rho0.shape[0] - 1)
    rho = rho0.astype(complex)
    peak = _police_state(rho, 0, cfg)
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
        peak = max(peak, _police_state(rho, j, cfg))
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


def micromaser_amplitude(u: float, theta: float) -> float:
    """Equilibrium coherent amplitude 2u/Theta of a weak resonant stream."""
    return 2.0 * u / theta
