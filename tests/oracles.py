"""Reference forms the library is validated against.

Fixed-step RK4 on the Schrodinger equation and on the full master equation,
the dissipator in plain matrix form, and the Wigner function summed term by
term from scipy's Laguerre polynomials.  None of this runs in the library:
every transit there goes through the exact pair-block kernel, every
relaxation through the per-diagonal exponentials of ThermalPropagator and
every Wigner map through a Clenshaw recurrence.  Tests compare those fast
paths with the brute-force forms kept here.
"""

from __future__ import annotations

import numpy as np
from scipy.special import eval_genlaguerre, gammaln

from cavres.dynamics import _segments, rabi_coupling
from cavres.fock import HilbertConfig
from cavres.thermal import CavityParams, _aadag_diag


def rk4_propagator(
    omega_fn,
    delta: float,
    t0: float,
    t1: float,
    n_steps: int,
    cfg: HilbertConfig,
) -> np.ndarray:
    """Fixed-step RK4 for dU/dt = -i H(t) U over one constant-delta span."""
    dim = cfg.dim
    dt = (t1 - t0) / n_steps
    u = np.eye(2 * dim, dtype=complex)

    def f(t, m):
        co = _h_coeffs(omega_fn(t), delta, cfg)
        return -1j * _h_apply(co, m, dim)

    t = t0
    for _ in range(n_steps):
        k1 = f(t, u)
        k2 = f(t + dt / 2, u + dt / 2 * k1)
        k3 = f(t + dt / 2, u + dt / 2 * k2)
        k4 = f(t + dt, u + dt * k3)
        u = u + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += dt
    return u


def _h_coeffs(omega: float, delta: float, cfg: HilbertConfig):
    g = 0.5 * omega * np.sqrt(np.arange(1, cfg.dim, dtype=float))
    return 0.5 * delta, g


def _h_apply(coeffs, x: np.ndarray, dim: int) -> np.ndarray:
    """H @ x via the pair structure."""
    half_delta, g = coeffs
    xg, xe = x[:dim], x[dim:]
    yg = -half_delta * xg
    yg[1:] += 1j * g[:, None] * xe[:-1]
    ye = +half_delta * xe
    ye[:-1] += -1j * g[:, None] * xg[1:]
    return np.concatenate([yg, ye], axis=0)


def rk4_transit_unitary(profile, cfg: HilbertConfig, phase_per_step: float = 0.05) -> np.ndarray:
    """Loss-free crossing as the product of one RK4 propagator per segment.

    Each segment takes the fewest steps with max(|delta|, omega0) * dt <=
    phase_per_step.
    """
    rate = max(profile.delta_disp, profile.omega0)
    u = np.eye(2 * cfg.dim, dtype=complex)
    for (t0, t1, delta) in _segments(profile):
        n = max(1, int(np.ceil((t1 - t0) * rate / phase_per_step)))
        u = rk4_propagator(lambda t: rabi_coupling(t, profile), delta, t0, t1, n, cfg) @ u
    return u


def rk4_master(
    rho_joint: np.ndarray,
    profile,
    cavity: CavityParams | None,
    cfg: HilbertConfig,
    phase_per_step: float = 0.05,
) -> np.ndarray:
    """Fixed-step RK4 of the full master equation across the crossing.

    Step bound: max(|delta|, omega0) * dt <= phase_per_step, with step
    boundaries aligned to the three segment edges.
    """
    dim = cfg.dim
    rho = rho_joint.astype(complex)
    rate = max(profile.delta_disp, profile.omega0)

    def f(t, r, delta):
        co = _h_coeffs(rabi_coupling(t, profile), delta, cfg)
        comm = _h_apply(co, r, dim) - _h_apply(co, r.conj().T, dim).conj().T
        out = -1j * comm
        if cavity is not None:
            out = out + dissipator_rhs(r, cavity, joint=True)
        return out

    for (t0, t1, delta) in _segments(profile):
        n_steps = max(1, int(np.ceil((t1 - t0) * rate / phase_per_step)))
        dt = (t1 - t0) / n_steps
        t = t0
        for _ in range(n_steps):
            k1 = f(t, rho, delta)
            k2 = f(t + dt / 2, rho + dt / 2 * k1, delta)
            k3 = f(t + dt / 2, rho + dt / 2 * k2, delta)
            k4 = f(t + dt, rho + dt * k3, delta)
            rho = rho + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            rho = 0.5 * (rho + rho.conj().T)
            t += dt
    return rho


def dissipator_rhs(rho: np.ndarray, cavity: CavityParams, joint: bool = False) -> np.ndarray:
    """L[rho] in matrix form.

    With joint=True the matrix is an (atom x field) state and the jumps act
    on the rightmost (field) index pair.
    """
    if joint:
        size = rho.shape[0]
        dim = size // 2
        blocks = rho.reshape(2, dim, 2, dim)
        out = np.empty_like(blocks)
        for i in range(2):
            for j in range(2):
                out[i, :, j, :] = _field_rhs(blocks[i, :, j, :], cavity)
        return out.reshape(size, size)
    return _field_rhs(rho, cavity)


def _field_rhs(rho: np.ndarray, cavity: CavityParams) -> np.ndarray:
    dim = rho.shape[0]
    kappa, n_t = cavity.kappa, cavity.n_t
    n = np.arange(dim, dtype=float)
    aad = _aadag_diag(dim)
    sq = np.sqrt(n[1:])

    out = np.zeros_like(rho)
    # a rho a': shift both indices up by one, weight sqrt((m+1)(n+1))
    out[:-1, :-1] += kappa * (1 + n_t) * sq[:, None] * sq[None, :] * rho[1:, 1:]
    # a' rho a: shift both indices down, weight sqrt(m n)
    out[1:, 1:] += kappa * n_t * sq[:, None] * sq[None, :] * rho[:-1, :-1]
    # anticommutator parts are diagonal scalings
    scale = -0.5 * kappa * (1 + n_t) * (n[:, None] + n[None, :])
    scale -= 0.5 * kappa * n_t * (aad[:, None] + aad[None, :])
    out += scale * rho
    return out


def wigner_laguerre(rho: np.ndarray, xi) -> np.ndarray:
    """W at the points xi, summed term by term over the upper triangle.

    W = (2/pi) sum_{m<=n} c_mn Re[rho_mn (-1)^m (2 xi)^(n-m) sqrt(m!/n!)
        e^{-2|xi|^2} L_m^(n-m)(4|xi|^2)], c = 1 on the diagonal and 2 off it.
    The magnitude of every prefactor is formed in log space, so each term is
    accurate to rounding and none overflows.
    """
    xi = np.asarray(xi, dtype=complex)
    m, n = np.triu_indices(rho.shape[0])
    k = (n - m)[:, None]
    r = 2.0 * np.abs(xi).ravel()[None, :]
    lg = gammaln(np.arange(rho.shape[0]) + 1.0)
    log_pow = k * np.log(np.where(r > 0, r, 1.0))
    log_pow = np.where((k > 0) & (r == 0), -np.inf, log_pow)
    mag = np.exp(log_pow + 0.5 * (lg[m] - lg[n])[:, None] - 0.5 * r**2)
    phase = np.exp(1j * k * np.angle(xi).ravel()[None, :])
    laguerre = eval_genlaguerre(m[:, None], k, r**2)
    coef = rho[m, n] * np.where(m % 2, -1.0, 1.0) * np.where(n == m, 1.0, 2.0)
    terms = coef[:, None] * mag * laguerre * phase
    return (2.0 / np.pi * terms.real.sum(axis=0)).reshape(xi.shape)
