"""Single-atom transit dynamics through the cavity.

The atom crosses the Gaussian cavity mode with velocity v, so the vacuum
Rabi coupling seen along the trajectory is

    Omega(t) = Omega_0 exp(-(v t / w)^2),   |v t| <= window_factor * w.

While it crosses, the atom-cavity detuning follows a three-segment
schedule: +Delta (dispersive), 0 for a span t_r centered on the waist
(resonant), then -Delta.  In the interaction frame the Hamiltonian is

    H(t) = (delta(t)/2) (|e><e| - |g><g|) +
           i (Omega(t)/2) (|g><e| a' - |e><g| a)

which couples only the pairs {|e,n>, |g,n+1>}.  Every exact-step and
analytic propagator below lives on the joint space ordered atom (x) field
with atom basis (|g>, |e>), joint dimension 2*(n_max+1).

Analytic limits: a resonant segment of pulse area Theta realizes the
block rotation _pair_coefficients(1, 0, Theta); a far-detuned segment
realizes the dephasing diag(exp(-i phi0 N)) on g and diag(exp(+i phi0
(N+1))) on e, with phi0 = -(1/4 delta) * int Omega^2 dt; both are Gaussian
integrals, taken in closed form with erf and erfc (theta_of, phi0_of).  The
full crossing approaches the composite U_d(phi0) U_r(Theta) U_d(phi0)', a
Kerr-conjugated exchange whose off-diagonal pair entries pick up
exp(+-2i phi0 (n+1)) gratings; the analytic backend holds it only as those
pair coefficients (reservoir._kraus_pair).  On the truncated space the top
pair partner |g, n_max+1> is absent, so the resonant blocks complete the
lone |e, n_max> level as identity; this is exactly the exponential of the
truncated generator and keeps every step unitary.

The numeric crossing is built from two exact symmetries.  Omega(t) is even
in t and the exit detuning is minus the approach one, so the exit wing is
the approach wing run backwards at -Delta.  In each pair,
H(Omega, -delta) = P H(Omega, delta)^T P with P swapping |g,n+1> and |e,n>,
so a step at -delta is P S^T P for the step S at +delta, and a product of
such steps reversed in time is P (product)^T P: every exit slice is an
approach slice with its diagonal pair entries swapped (_mirrored).  And the
loss steps inside a wing last one slice, twice the half-slice steps at its
ends, so they are those half-steps squared (ThermalPropagator.squared).
"""

from __future__ import annotations

import copy
import functools
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from cavres.fock import HilbertConfig
from cavres.thermal import CavityParams, ThermalPropagator

__all__ = [
    "TransitProfile",
    "atom_ket",
    "TransitOptions",
    "theta_of",
    "phi0_of",
    "embed_with_atom",
    "trace_atom",
    "TransitKernel",
    "get_kernel",
]


@dataclass(frozen=True)
class TransitProfile:
    """Geometry and schedule of one atomic crossing.

    omega0         peak vacuum Rabi frequency (rad/s)
    w              Gaussian mode waist (m)
    v              atomic velocity (m/s)
    delta_disp     magnitude of the dispersive detuning (rad/s, >= 0)
    t_r            resonant span centered on the waist crossing (s)
    window_factor  half-window in units of w/v (transit time t_i = 2*f*w/v)
    """

    omega0: float
    w: float
    v: float
    delta_disp: float
    t_r: float
    window_factor: float = 1.5

    def __post_init__(self) -> None:
        for name in ("omega0", "w", "v", "t_r", "window_factor"):
            val = getattr(self, name)
            if not (val > 0 and np.isfinite(val)):
                raise ValueError(f"{name} must be positive and finite, got {val}")
        if not (self.delta_disp >= 0 and np.isfinite(self.delta_disp)):
            raise ValueError(f"delta_disp must be >= 0, got {self.delta_disp}")
        if not self.t_r < self.t_i:
            raise ValueError(
                f"resonant span t_r = {self.t_r} must fit inside the transit t_i = {self.t_i}"
            )

    @property
    def t_i(self) -> float:
        """Transit duration: |v t| <= window_factor * w."""
        return 2.0 * self.window_factor * self.w / self.v


def atom_ket(u: float) -> np.ndarray:
    """Injected atom state cos(u/2)|g> + sin(u/2)|e>."""
    return np.array([np.cos(u / 2), np.sin(u / 2)], dtype=complex)


@dataclass(frozen=True)
class TransitOptions:
    """Step settings of the transit kernel.

    fine_steps   exact frozen-midpoint pair-block substeps per dispersive
                 segment
    loss_slices  Strang slices per dispersive segment for the dissipator;
                 keep the slice span well below the pair-rotation period
                 2 pi / sqrt((delta/2)^2 + g_n^2), otherwise the O(tau^3)
                 splitting errors add coherently instead of averaging out
    """

    fine_steps: int = 1024
    loss_slices: int = 32

    def __post_init__(self) -> None:
        if self.fine_steps < 1 or self.loss_slices < 1:
            raise ValueError("fine_steps and loss_slices must be >= 1")


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------

def _segments(profile: TransitProfile) -> list[tuple[float, float, float]]:
    """(t0, t1, delta) for the dispersive/resonant/dispersive segments."""
    half_i, half_r = profile.t_i / 2, profile.t_r / 2
    return [
        (-half_i, -half_r, +profile.delta_disp),
        (-half_r, +half_r, 0.0),
        (+half_r, +half_i, -profile.delta_disp),
    ]


def theta_of(profile: TransitProfile) -> float:
    """Pulse area of the resonant window, Theta = int Omega dt over [-t_r/2, t_r/2].

    In closed form, Theta = Omega_0 (w/v) sqrt(pi) erf(v t_r / (2 w)).
    """
    w, v = profile.w, profile.v
    return profile.omega0 * (w / v) * math.sqrt(math.pi) * math.erf(v * profile.t_r / (2 * w))


def phi0_of(profile: TransitProfile) -> float:
    """Dispersive phase phi0 = -(1/(4 delta)) int Omega(t)^2 dt over the exit
    segment (delta = -Delta, so phi0 > 0).  The approach segment mirrors it
    in time with delta = +Delta, so its phase is exactly -phi0, the adjoint
    dephasing.  The exit segment spans t_lo <= t <= t_hi on one side of the
    waist, so in closed form the integral is
    Omega_0^2 (w/v) sqrt(pi/8) (erfc(sqrt2 v t_lo / w) - erfc(sqrt2 v t_hi / w));
    erfc keeps the difference accurate when the segment lies in the tails,
    where erf(b) - erf(a) would cancel.
    """
    if profile.delta_disp == 0:
        raise ValueError("dispersive phase undefined for delta_disp = 0")
    t_lo, t_hi, delta = _segments(profile)[2]
    w, v = profile.w, profile.v
    tails = math.erfc(math.sqrt(2) * v * t_lo / w) - math.erfc(math.sqrt(2) * v * t_hi / w)
    val = profile.omega0**2 * (w / v) * math.sqrt(math.pi / 8) * tails
    return -val / (4.0 * delta)


# ---------------------------------------------------------------------------
# pair-block propagators
# ---------------------------------------------------------------------------

def _pair_coefficients(omega, delta, dt, cfg: HilbertConfig):
    """Exact exp(-i H dt) for frozen (omega, delta) in the paired basis.

    Returns the four coefficient arrays of the step unitary:
      ag[m]  amplitude |g,m> -> |g,m>           (m = 0..n_max)
      ae[n]  amplitude |e,n> -> |e,n>           (n = 0..n_max)
      bg[n]  amplitude |e,n> -> |g,n+1>         (n = 0..n_max-1)
      bl[n]  amplitude |g,n+1> -> |e,n>
    The lone levels |g,0> and |e,n_max> carry pure detuning phases.
    omega, delta and dt may be arrays of one shape; the coefficient arrays
    then carry that shape in front of the level index.
    """
    omega, delta, dt = (np.asarray(x, dtype=float)[..., None] for x in (omega, delta, dt))
    n = np.arange(cfg.n_max, dtype=float)
    g = 0.5 * omega * np.sqrt(n + 1.0)
    lam = np.hypot(0.5 * delta, g)
    ang = lam * dt
    c = np.cos(ang)
    # sin(lam dt)/lam with the lam -> 0 limit dt
    s = np.where(lam > 0, np.sin(ang) / np.where(lam > 0, lam, 1.0), dt)

    shape = g.shape[:-1] + (cfg.dim,)
    ag = np.empty(shape, dtype=complex)
    ae = np.empty(shape, dtype=complex)
    ag[..., :1] = np.exp(+0.5j * delta * dt)
    ag[..., 1:] = c + 0.5j * delta * s
    ae[..., :-1] = c - 0.5j * delta * s
    ae[..., -1:] = np.exp(-0.5j * delta * dt)
    bg = g * s
    bl = -g * s
    return ag, ae, bg.astype(complex), bl.astype(complex)


def _compose(later, earlier):
    """Pair coefficients of the product later @ earlier.

    Each pair {|g,n+1>, |e,n>} carries the 2x2 block [[ag[n+1], bg[n]],
    [bl[n], ae[n]]]; the lone levels multiply their phases.
    """
    AG, AE, BG, BL = later
    ag, ae, bg, bl = earlier
    new_ag = AG * ag
    new_ag[..., 1:] += BG * bl
    new_ae = AE * ae
    new_ae[..., :-1] += BL * bg
    new_bg = AG[..., 1:] * bg + BG * ae[..., :-1]
    new_bl = BL * ag[..., 1:] + AE[..., :-1] * bl
    return new_ag, new_ae, new_bg, new_bl


def _apply_left(coeffs, x: np.ndarray, dim: int) -> np.ndarray:
    """U @ x using the sparse pair structure (x has 2*dim rows, any trailing axes)."""
    ag, ae, bg, bl = (c.reshape(c.shape + (1,) * (x.ndim - 1)) for c in coeffs)
    xg, xe = x[:dim], x[dim:]
    y = np.empty_like(x)
    np.multiply(ag, xg, out=y[:dim])
    y[1:dim] += bg * xe[:-1]
    np.multiply(ae, xe, out=y[dim:])
    y[dim:-1] += bl * xg[1:]
    return y


def embed_with_atom(rho_field: np.ndarray, atom: np.ndarray) -> np.ndarray:
    """rho_field tensor |atom><atom| in atom (x) field ordering."""
    return np.kron(np.outer(atom, atom.conj()), rho_field)


def trace_atom(rho_joint: np.ndarray) -> np.ndarray:
    """Partial trace over the two-level atom."""
    dim = rho_joint.shape[0] // 2
    blocks = rho_joint.reshape(2, dim, 2, dim)
    return blocks[0, :, 0, :] + blocks[1, :, 1, :]


# ---------------------------------------------------------------------------
# numeric integration
# ---------------------------------------------------------------------------

def _frozen_midpoint_steps(
    profile: TransitProfile, t0, span, delta, n_steps: int, cfg: HilbertConfig
):
    """Pair coefficients of the product of n_steps exact frozen-midpoint steps
    across [t0, t0 + span] at detuning delta.

    t0, span and delta may be arrays of one shape (one entry per slice); all
    slices are then composed together, one substep at a time.
    """
    dt = np.asarray(span, dtype=float) / n_steps
    acc = None
    for j in range(n_steps):
        mids = t0 + dt * (j + 0.5)
        omegas = profile.omega0 * np.exp(-((profile.v * mids / profile.w) ** 2))
        step = _pair_coefficients(omegas, delta, dt, cfg)
        acc = step if acc is None else _compose(step, acc)
    return acc


def _mirrored(coeffs):
    """Pair coefficients of P U^T P, where P swaps |g,n+1> and |e,n> in every
    pair: the step U at detuning delta becomes the step at -delta.  Each pair
    block [[ag[n+1], bg[n]], [bl[n], ae[n]]] becomes [[ae[n], bg[n]],
    [bl[n], ag[n+1]]], and the lone levels |g,0> and |e,n_max> trade their
    phases."""
    ag, ae, bg, bl = coeffs
    return np.roll(ae, 1, axis=-1), np.roll(ag, -1, axis=-1), bg, bl


class TransitKernel:
    """Precomputed one-crossing propagation machinery for a fixed scenario.

    The crossing is cut into Strang slices: loss_slices per dispersive
    segment, each spanning (t1 - t0) / loss_slices, and the resonant window
    as one slice.  Every slice conserves excitation number, so it is kept as
    its pair coefficients (ag, ae, bg, bl; see _pair_coefficients) and acts
    on joint states as O(dim^2) updates of row pairs, both halves of
    U X U' on contiguous rows with a transposed copy in between.  The
    approach slices are products of exact frozen-midpoint substeps, composed
    for all of them at once; exit slice j is approach slice
    loss_slices - 1 - j mirrored (see the module docstring), which is the
    same discretization as composing it, to rounding.  The resonant slice
    is the exact rotation of pulse area Theta, since there H(t) commutes
    with itself.

    With a cavity attached, each slice is Strang-wrapped in two half-steps
    of loss.  All of them share one generator, so the two half-steps that
    meet at a slice boundary are merged into one exact step:
    loss_steps[k] runs before slice k, and the last one after the final
    slice.  That leaves three durations, each one ThermalPropagator: half a
    slice at the two ends, a whole slice inside each wing (the end step
    squared) and half a slice plus half the resonant span on either side of
    the resonant slice.  A loss step acts alike on a state and on its
    transpose, since diagonal k of atom block (a, b) and diagonal -k of
    block (b, a) relax by one real block.
    """

    def __init__(
        self,
        profile: TransitProfile,
        cfg: HilbertConfig,
        cavity: CavityParams | None = None,
        options: TransitOptions = TransitOptions(),
    ):
        self.profile = profile
        self.cfg = cfg
        self.cavity = cavity
        self.options = options

        (t0, t1, delta), res, _ = _segments(profile)
        n_slices = options.loss_slices
        n_sub = -(-options.fine_steps // n_slices)  # ceil per slice
        tau = (t1 - t0) / n_slices
        approach = _frozen_midpoint_steps(
            profile, t0 + tau * np.arange(n_slices), tau, delta, n_sub, cfg
        )
        # exit slice j mirrors approach slice n_slices - 1 - j
        exit_wing = _mirrored(tuple(c[::-1] for c in approach))
        resonant = _pair_coefficients(1.0, 0.0, theta_of(profile), cfg)
        # the resonant slice sits between the two dispersive runs
        self.slices = (
            [tuple(c[k] for c in approach) for k in range(n_slices)]
            + [resonant]
            + [tuple(c[k] for c in exit_wing) for k in range(n_slices)]
        )
        self._slices_conj = [tuple(c.conj() for c in co) for co in self.slices]

        self.loss_steps: list[ThermalPropagator] = []
        if cavity is not None:
            # ends, inside a wing, and either side of the resonant slice
            end = ThermalPropagator(tau / 2, cavity, cfg.dim)
            inner = end.squared()
            bridge = ThermalPropagator((res[1] - res[0]) / 2 + tau / 2, cavity, cfg.dim)
            wing = [end] + [inner] * (n_slices - 1) + [bridge]
            self.loss_steps = wing + wing[::-1]

    def adjoint(self) -> TransitKernel:
        """The crossing's Hilbert-Schmidt adjoint K', with
        <Y, K(X)> = <K'(Y), X>: the slices in reverse order as U' (pair
        coefficients ag*, ae*, bl*, bg*) and the loss steps in reverse order,
        each its own adjoint.  It propagates like the kernel itself."""
        adj = copy.copy(self)
        reverse = self.slices[::-1]
        adj.slices = [(ag.conj(), ae.conj(), bl.conj(), bg.conj()) for ag, ae, bg, bl in reverse]
        adj._slices_conj = [(ag, ae, bl, bg) for ag, ae, bg, bl in reverse]
        adjoints = {step: step.adjoint() for step in set(self.loss_steps)}
        adj.loss_steps = [adjoints[step] for step in self.loss_steps[::-1]]
        return adj

    def propagate(self, rho_joint: np.ndarray) -> np.ndarray:
        return self.propagate_batched(rho_joint[None])[0]

    def propagate_batched(self, stack: np.ndarray) -> np.ndarray:
        """Propagate a stack (M, 2 dim, 2 dim) of joint states through the crossing."""
        dim = self.cfg.dim
        # states as (2 dim, 2 dim, M): row pairs on axis 0, column pairs on
        # axis 1, and the batch last, where the loss steps' gather wants it
        out = np.ascontiguousarray(np.moveaxis(stack, 0, -1), dtype=complex)
        for k, (coeffs, conj) in enumerate(zip(self.slices, self._slices_conj)):
            out = self._loss_step(k, out)
            # both halves of U Z U' are contiguous row updates.  Held as Z,
            # rows with U, a transposed copy and rows with conj(U) leave
            # (U Z U')^T; held as Z^T, conj(U) first and U second leave
            # U Z U'.  The held orientation toggles at every slice.
            first, second = (coeffs, conj) if k % 2 == 0 else (conj, coeffs)
            out = _apply_left(first, out, dim)
            out = np.ascontiguousarray(out.swapaxes(0, 1))
            out = _apply_left(second, out, dim)
        out = self._loss_step(len(self.slices), out)
        # 2 loss_slices + 1 slices, an odd count, leave the state transposed
        return np.moveaxis(out.swapaxes(0, 1), -1, 0)

    def _loss_step(self, k: int, states: np.ndarray) -> np.ndarray:
        if not self.loss_steps:
            return states
        relaxed = self.loss_steps[k].apply_batched(np.moveaxis(states, -1, 0))
        return np.moveaxis(relaxed, 0, -1)


_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


def _one_entry_cache(build):
    """build cached for one key, like lru_cache(maxsize=1) with its
    cache_info() and cache_clear(), except that a new key releases the held
    entry before it builds: with lru_cache the old and the new build are
    both alive at the new build's peak.  For builds that hold megabytes and
    whose key changes from one scenario to the next."""
    held = {}
    stats = [0, 0]  # hits, misses

    @functools.wraps(build)
    def cached(*args, **kwargs):
        key = (args, tuple(kwargs.items()))
        if key in held:
            stats[0] += 1
            return held[key]
        held.clear()
        stats[1] += 1
        held[key] = value = build(*args, **kwargs)
        return value

    def cache_clear():
        held.clear()
        stats[:] = [0, 0]

    cached.cache_info = lambda: _CacheInfo(*stats, 1, len(held))
    cached.cache_clear = cache_clear
    return cached


# one entry: a run, its switch-off and each serial sweep value use one key
@_one_entry_cache
def get_kernel(
    profile: TransitProfile, cfg: HilbertConfig, cavity: CavityParams | None
) -> TransitKernel:
    return TransitKernel(profile, cfg, cavity)
