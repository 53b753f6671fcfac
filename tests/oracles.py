"""Reference forms the library is validated against.

The dense annihilation operator, the thermal state, the dense
Jaynes-Cummings Hamiltonian for frozen coupling and detuning, fixed-step RK4
on the Schrodinger equation and on the full master equation, the dissipator
in plain matrix form, the Wigner function summed term by term from scipy's
Laguerre polynomials and by one Clenshaw recurrence per diagonal and point,
and the cat fit as a Nelder-Mead search over the amplitude and the phases
together.  None of this runs in the library: every transit there goes
through the exact pair-block kernel, every relaxation through the
per-diagonal exponentials of ThermalPropagator, every Wigner map through one
Clenshaw recurrence per distinct |xi| for all diagonals at once, and every
cat fit through the amplitude-only search with exact phases.  Tests compare
those fast paths with the brute-force forms kept here.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize
from scipy.special import eval_genlaguerre, gammaln

from cavres.dynamics import _segments, rabi_coupling
from cavres.fock import COHERENT_GUARD, HilbertConfig, ideal_mfss
from cavres.metrics import CatFitResult, field_moments, overlap_fidelity
from cavres.thermal import CavityParams, _aadag_diag


def make_ladder(cfg: HilbertConfig) -> np.ndarray:
    """Annihilation operator a with a[n-1, n] = sqrt(n)."""
    dim = cfg.dim
    a = np.zeros((dim, dim), dtype=complex)
    ns = np.arange(1, dim)
    a[ns - 1, ns] = np.sqrt(ns)
    return a


def thermal_state(n_bar: float, cfg: HilbertConfig) -> np.ndarray:
    """Thermal (geometric) density matrix with mean occupation n_bar."""
    if n_bar == 0:
        p = np.zeros(cfg.dim)
        p[0] = 1.0
    else:
        n = np.arange(cfg.dim)
        p = np.exp(n * np.log(n_bar / (1.0 + n_bar)))
        p /= p.sum()
    return np.diag(p).astype(complex)


def jc_hamiltonian(omega: float, delta: float, cfg: HilbertConfig) -> np.ndarray:
    """Dense interaction-frame Hamiltonian for frozen (omega, delta)."""
    dim = cfg.dim
    h = np.zeros((2 * dim, 2 * dim), dtype=complex)
    idx = np.arange(dim)
    h[idx, idx] = -0.5 * delta
    h[dim + idx, dim + idx] = +0.5 * delta
    g = 0.5 * omega * np.sqrt(idx[:-1] + 1.0)
    h[1 + idx[:-1], dim + idx[:-1]] = +1j * g   # <g,n+1| H |e,n>
    h[dim + idx[:-1], 1 + idx[:-1]] = -1j * g
    return h


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


def _laguerre_series(coef: np.ndarray, k: int, x: np.ndarray) -> np.ndarray:
    """sum_m coef[m] l_m(x) by Clenshaw's recurrence, for the normalized
    Laguerre functions l_m = (-1)^m sqrt(m! k!/(m+k)!) L_m^(k)(x), which obey
    l_{m+1} = (x - 2m-k-1) p_m l_m - sqrt(m(m+k)) p_m l_{m-1},
    p_m = 1/sqrt((m+1)(m+k+1)), from l_0 = 1."""
    c = coef.tolist()
    b1 = b2 = np.zeros(x.shape, dtype=complex)
    for m in range(len(c) - 1, -1, -1):
        p = 1.0 / math.sqrt((m + 1) * (m + k + 1))
        q = -math.sqrt((m + 1) * (m + k + 1) / ((m + 2) * (m + k + 2)))
        b1, b2 = c[m] + (x - (2 * m + k + 1)) * p * b1 + q * b2, b1
    return b1


def wigner_clenshaw(rho: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """W at every entry of the complex array xi: one Clenshaw recurrence per
    diagonal k at every point, combined by Horner's rule in 2 xi / sqrt(k+1).
    The same arithmetic as metrics.wigner, term by term, without sharing the
    series between points of equal |xi|.  From 16,384 points on (256 kB of
    complex temporaries) numpy computes w * (2 xi / sqrt(k+1)) in place in
    the temporary, operands swapped, and where its complex multiply fuses
    multiply-adds the last bit of W can then differ from a smaller grid's."""
    dim = rho.shape[0]
    x = 4.0 * np.abs(xi) ** 2
    w = np.zeros(xi.shape, dtype=complex)
    for k in range(dim - 1, -1, -1):
        coef = np.diagonal(rho, k) * (1.0 if k == 0 else 2.0)
        w = _laguerre_series(coef, k, x) + w * (2.0 / math.sqrt(k + 1) * xi)
    return 2.0 / np.pi * np.exp(-0.5 * x) * w.real


def _cat_overlap(x: np.ndarray, rho: np.ndarray, k: int, cfg: HilbertConfig) -> float:
    alpha = complex(x[0], x[1])
    if abs(alpha) ** 2 > COHERENT_GUARD * cfg.n_max:
        return 0.0
    try:
        ref = ideal_mfss(alpha, k, tuple(x[2:]), cfg)
    except ValueError:
        return 0.0
    return overlap_fidelity(rho, ref)


def fit_cat_nelder_mead(
    rho: np.ndarray,
    k: int,
    init: CatFitResult | None = None,
) -> CatFitResult:
    """Best ideal k-component cat approximation of rho.

    Maximizes <ref| rho |ref> over the complex component amplitude and the
    k-1 relative phases with Nelder-Mead restarts; falls back to a coarse
    16 x 16 x 8^(k-1) grid when the simplex stalls.  Deterministic, and the
    returned fidelity is never below the initialization's.
    """
    if k < 2:
        raise ValueError("a cat needs at least 2 components")
    cfg = HilbertConfig(n_max=rho.shape[0] - 1)

    starts: list[np.ndarray] = []
    if init is not None:
        starts.append(
            np.array([init.alpha.real, init.alpha.imag, *init.rel_phases])
        )
    amp, amp2, nbar = field_moments(rho)
    # <a^k> of an equally spaced cat is alpha^k regardless of the phases,
    # so the k-th moment pins the pointer direction up to relabeling
    n = np.arange(cfg.dim)
    mom = np.diag(rho, k=-k)
    fact = np.exp(
        0.5
        * (
            np.cumsum(np.concatenate([[0.0], np.log(np.maximum(n[1:], 1))]))[k:]
            - np.cumsum(np.concatenate([[0.0], np.log(np.maximum(n[1:], 1))]))[:-k]
        )
    )
    a_k = complex(np.sum(fact * mom))
    direction = np.angle(a_k) / k if abs(a_k) > 1e-12 else 0.0
    mag = float(np.sqrt(max(nbar, 1e-6)))
    for jrot in range(k):
        base = mag * np.exp(1j * (direction + 2 * np.pi * jrot / k))
        for phase_seed in np.linspace(0, 2 * np.pi, 4, endpoint=False):
            starts.append(
                np.array([base.real, base.imag, *([phase_seed] * (k - 1))])
            )

    best_x, best_f = None, -1.0
    for x0 in starts:
        res = minimize(
            lambda x: -_cat_overlap(x, rho, k, cfg),
            x0,
            method="Nelder-Mead",
            options={"xatol": 1e-7, "fatol": 1e-12, "maxiter": 4000},
        )
        if -res.fun > best_f:
            best_f, best_x = -res.fun, res.x

    init_f = -1.0 if init is None else _cat_overlap(
        np.array([init.alpha.real, init.alpha.imag, *init.rel_phases]), rho, k, cfg
    )
    if best_f < max(init_f, 0.0) + 1e-9:
        # simplex stalled; rake a coarse grid and polish the best cell
        span = mag + 1.0
        axes = np.linspace(-span, span, 16)
        phase_axis = np.linspace(0, 2 * np.pi, 8, endpoint=False)
        grids = np.meshgrid(axes, axes, *([phase_axis] * (k - 1)), indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=1)
        vals = np.array([_cat_overlap(p, rho, k, cfg) for p in pts])
        x0 = pts[int(np.argmax(vals))]
        res = minimize(
            lambda x: -_cat_overlap(x, rho, k, cfg),
            x0,
            method="Nelder-Mead",
            options={"xatol": 1e-7, "fatol": 1e-12, "maxiter": 4000},
        )
        if -res.fun > best_f:
            best_f, best_x = -res.fun, res.x

    if init is not None and init_f >= best_f:
        best_x = np.array([init.alpha.real, init.alpha.imag, *init.rel_phases])

    alpha = complex(best_x[0], best_x[1])
    phases = tuple(float(p % (2 * np.pi)) for p in best_x[2:])
    reference = ideal_mfss(alpha, k, phases, cfg)
    return CatFitResult(
        alpha=alpha,
        rel_phases=phases,
        fidelity=overlap_fidelity(rho, reference),
        reference=reference,
    )
