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

The deterministic map is affine in the state, so a numeric trajectory long
enough to pay for it (n_samples >= dim^2 / 2) first builds the map as one
dense (dim^2, dim^2) matrix and then iterates matrix-vector products; every
other trajectory applies sample_map directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

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
    seed: int | None = None
    observations: list = field(default_factory=list)


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
# superoperator cache
# ---------------------------------------------------------------------------

def build_sample_superop(config: ReservoirConfig, cfg: HilbertConfig) -> np.ndarray:
    """Dense matrix of the deterministic numeric sample map on vectorized states.

    Row-major vec convention: vec(rho)[i * dim + j] = rho[i, j].  Built by
    propagating basis matrices through the same slice decomposition as the
    direct path, so the two agree to rounding.
    """
    if config.mixing_mode != "deterministic" or config.backend != "numeric":
        raise ValueError(
            "the superoperator cache applies to deterministic mixing with the numeric "
            f"backend only, got {config.mixing_mode!r} mixing, {config.backend!r} backend"
        )
    dim = cfg.dim
    nvec = dim * dim

    if config.cavity is not None:
        r_mat = _relax_propagator(config.profile.t_i, config.cavity, dim).superop_matrix()
    else:
        r_mat = np.eye(nvec, dtype=complex)
    if config.p_at == 0.0:
        return r_mat

    kernel = get_kernel(config.profile, cfg, config.cavity, config.options)
    atom = config.atom.ket()
    proj = np.outer(atom, atom.conj())
    atom_full = np.empty((nvec, nvec), dtype=complex)
    chunk = 16  # basis matrices per batch; small batches stay in cache
    for start in range(0, nvec, chunk):
        cols = np.arange(start, min(start + chunk, nvec))
        basis = np.zeros((cols.size, dim, dim), dtype=complex)
        basis[np.arange(cols.size), cols // dim, cols % dim] = 1.0
        joint = (
            proj[None, :, None, :, None] * basis[:, None, :, None, :]
        ).reshape(cols.size, 2 * dim, 2 * dim)
        out = kernel.propagate_batched(joint)
        blocks = out.reshape(cols.size, 2, dim, 2, dim)
        traced = blocks[:, 0, :, 0, :] + blocks[:, 1, :, 1, :]
        atom_full[:, cols] = traced.reshape(cols.size, nvec).T

    if config.p_at == 1.0:
        return atom_full
    return (1.0 - config.p_at) * r_mat + config.p_at * atom_full


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
    j = 0); non-None return values are collected into observations.
    reference, when given, is the pure state fidelity is tracked against.
    Deterministic numeric runs with n_samples >= dim^2 / 2 iterate the dense
    matrix of build_sample_superop; all others call sample_map each sample.
    The two paths agree to rounding.
    """
    cfg = HilbertConfig(n_max=rho0.shape[0] - 1)
    validate_density(rho0)
    t_i = config.profile.t_i

    dense = (
        config.mixing_mode == "deterministic"
        and config.backend == "numeric"
        and config.n_samples >= cfg.dim * cfg.dim // 2
    )

    rng = None
    if config.mixing_mode == "monte_carlo":
        rng = np.random.default_rng(config.seed)

    superop = build_sample_superop(config, cfg) if dense else None

    rho = rho0.astype(complex).copy()
    records = [_snapshot(0, t_i, rho, reference)]
    observations: list = []
    if observer is not None:
        out = observer(0, rho.copy())
        if out is not None:
            observations.append((0, out))
    peak = _police_state(rho, 0, cfg)

    for j in range(1, config.n_samples + 1):
        if superop is not None:
            rho = (superop @ rho.reshape(-1)).reshape(cfg.dim, cfg.dim)
        else:
            rho = sample_map(rho, config, rng=rng)
        peak = max(peak, _police_state(rho, j, cfg))
        records.append(_snapshot(j, t_i, rho, reference))
        if observer is not None:
            out = observer(j, rho.copy())
            if out is not None:
                observations.append((j, out))

    return TrajectoryResult(
        final_state=rho,
        records=records,
        truncation_peak=peak,
        seed=config.seed,
        observations=observations,
    )


def switch_off_decay(
    traj: TrajectoryResult,
    extra_time: float,
    config: ReservoirConfig,
    reference: np.ndarray | None = None,
) -> TrajectoryResult:
    """Continue a finished trajectory with the atom stream off.

    Pure relaxation in steps of t_i, metrics sampled on the same period
    grid; extends the records past the last sample index.
    """
    if extra_time < 0:
        raise ValueError(f"extra_time must be >= 0, got {extra_time}")
    t_i = config.profile.t_i
    n_extra = int(np.ceil(extra_time / t_i - 1e-12))
    if n_extra == 0:
        return traj

    cfg = HilbertConfig(n_max=traj.final_state.shape[0] - 1)
    rho = traj.final_state.copy()
    records = list(traj.records)
    start = records[-1].sample_index
    peak = traj.truncation_peak
    for step in range(1, n_extra + 1):
        if config.cavity is not None:
            rho = relax(rho, t_i, config.cavity)
        j = start + step
        peak = max(peak, _police_state(rho, j, cfg))
        records.append(_snapshot(j, t_i, rho, reference))

    return TrajectoryResult(
        final_state=rho,
        records=records,
        truncation_peak=peak,
        seed=traj.seed,
        observations=list(traj.observations),
    )


def micromaser_amplitude(u: float, theta: float) -> float:
    """Equilibrium coherent amplitude 2u/Theta of a weak resonant stream."""
    return 2.0 * u / theta
