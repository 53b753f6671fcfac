"""Field-state observables and analysis.

Photon statistics, the Wigner quasi-probability on a quadrature grid,
overlap fidelity against pure references, best-fit multi-component cat
states, and quadrature squeezing.

Conventions fixed here and relied on by the tests:
  - quadrature X_theta = (a e^{-i theta} + a' e^{i theta}) / 2, so the
    vacuum variance is 1/4 and squeezing in dB is the standard-deviation
    ratio 10 log10(sigma_vac / min_theta sigma_theta);
  - W(xi) = (2/pi) Tr[D(-xi) rho D(xi) Pi] normalized to
    int W d^2xi = 1, with D the displacement and Pi the photon-number
    parity;
  - fidelity is the overlap <ref| rho |ref> with a pure reference, not
    the Uhlmann fidelity.

W is evaluated in the Laguerre form of the Fock-basis Wigner functions,

    W(xi) = (2/pi) sum_{m<=n} c_mn Re[rho_mn (-1)^m (2 xi)^(n-m)
            sqrt(m!/n!) e^{-2|xi|^2} L_m^(n-m)(4|xi|^2)],

with c_mn = 1 on the diagonal and 2 off it: a Clenshaw recurrence sums each
diagonal's Laguerre series and Horner's rule in 2 xi / sqrt(k+1) combines
the diagonals, as in QuTiP's wigner(method="clenshaw") (Johansson, Nation
and Nori, Comput. Phys. Commun. 184, 1234 (2013)).  The series depend on xi
only through |xi|, so they cost O(dim^2) per distinct |xi| and Horner's rule
O(dim) per point, with no cancelling sums: W is the exact Wigner function of
the truncated state at every xi.

The best-fit cat is found by variable projection.  At a fixed component
amplitude alpha the overlap with a k-component cat is a ratio c'Mc / c'Gc
of k x k forms in the component coefficients c = (1, e^{i theta_1}, ...).
The components share |alpha|, so they are one truncated coherent vector (one
cumulative product) times the rows of a cached table of the roots
omega^(j n), and M and G come from one product with rho.  The relative
phases are solved exactly: by one closed-form step for k = 2; for k >= 3 by
two sweeps of coordinate ascent in closed-form steps from the best node of a
phase grid (one real product of the forms with a cached table of the nodes'
coefficient pairs), finished by Newton steps on all phases at once.
Nelder-Mead then searches alpha alone, its simplex held in Python floats,
from the k-th-moment direction and from the best node of a coarse alpha
rake.  The k x k steps and the simplex are plain Python, where numpy's
per-call cost would dominate.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from operator import mul

import numpy as np

from cavres.fock import (
    COHERENT_GUARD,
    HilbertConfig,
    _coherent_amplitudes,
    _log_factorials,
    _past_guard,
    _root_table,
    ideal_mfss,
)

__all__ = [
    "MetricsRecord",
    "WignerGrid",
    "CatFitResult",
    "mean_photon",
    "purity",
    "field_moments",
    "overlap_fidelity",
    "wigner",
    "trust_radius",
    "squeezing_db",
    "fit_cat",
    "wigner_to_text",
    "records_to_csv",
    "CSV_HEADER",
]

CSV_HEADER = "sample,time_s,nbar,purity,fidelity,trace_err"


@dataclass(frozen=True)
class MetricsRecord:
    """Scalar observables of one trajectory snapshot."""

    sample_index: int
    time: float
    n_bar: float
    purity: float
    fidelity: float
    trace_error: float

    def __post_init__(self) -> None:
        if not -1e-8 <= self.purity <= 1 + 1e-8:
            raise ValueError(f"purity {self.purity} outside [0, 1]")
        if not math.isnan(self.fidelity) and not -1e-8 <= self.fidelity <= 1 + 1e-8:
            raise ValueError(f"fidelity {self.fidelity} outside [0, 1]")


@dataclass(frozen=True)
class WignerGrid:
    """W sampled on a cartesian grid of xi = x + i y.

    values[iy, ix] = W(xs[ix] + 1j * ys[iy]); rows sweep y.
    """

    xs: np.ndarray
    ys: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class CatFitResult:
    """Best multi-component cat approximation of a state.

    fidelity is re-evaluated from (alpha, rel_phases), never trusted
    from the optimizer.
    """

    alpha: complex
    rel_phases: tuple[float, ...]
    fidelity: float
    reference: np.ndarray


@lru_cache(maxsize=None)
def _levels(dim: int) -> np.ndarray:
    """Photon numbers 0 .. dim-1 as floats; read-only, shared by every call."""
    levels = np.arange(dim, dtype=float)
    levels.flags.writeable = False
    return levels


def mean_photon(rho: np.ndarray) -> float:
    """Mean photon number Tr(N rho): the real part of the diagonal dotted
    with the photon numbers."""
    return float(_levels(rho.shape[0]).dot(rho.diagonal().real))


def purity(rho: np.ndarray) -> float:
    """Squared Frobenius norm |rho|_F^2 = sum |rho_ij|^2, which is Tr rho^2
    on the Hermitian states validate_density admits."""
    return float(np.vdot(rho, rho).real)


def field_moments(rho: np.ndarray) -> tuple[complex, complex, float]:
    """(<a>, <a^2>, <N>) of a field density matrix."""
    dim = rho.shape[0]
    n = np.arange(dim)
    # Tr(rho a^k) sums the k-th lower diagonal of rho against <n-k|a^k|n>
    sq1 = np.sqrt(n[1:])
    amp = complex(np.sum(sq1 * np.diag(rho, k=-1)))
    sq2 = np.sqrt(n[2:] * (n[2:] - 1.0))
    amp2 = complex(np.sum(sq2 * np.diag(rho, k=-2)))
    nbar = float(np.real(np.diag(rho) @ n))
    return amp, amp2, nbar


def overlap_fidelity(rho: np.ndarray, reference: np.ndarray) -> float:
    """<ref| rho |ref> for a pure reference ket."""
    return float(np.real(np.vdot(reference, rho @ reference)))


# ---------------------------------------------------------------------------
# Wigner function
# ---------------------------------------------------------------------------

def trust_radius(cfg: HilbertConfig) -> float:
    """Largest |xi| at which the truncated basis still represents the field:
    the coherent amplitude the COHERENT_GUARD admits at this n_max."""
    return float(np.sqrt(COHERENT_GUARD * cfg.n_max))


# Distinct radii per pass of the Laguerre recurrence: its three (dim, chunk)
# complex work arrays stay near 0.75 MB at n_max 60 whatever the grid size.
_RADIUS_CHUNK = 256


@lru_cache(maxsize=None)
def _clenshaw_tables(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(s, p, q) indexed [m, k] for the normalized Laguerre functions
    l_m = (-1)^m sqrt(m! k!/(m+k)!) L_m^(k)(x) of every diagonal k, which obey
    l_{m+1} = (x - 2m-k-1) p_m l_m - sqrt(m(m+k)) p_m l_{m-1} from l_0 = 1:
    s = 2m+k+1, p = 1/sqrt((m+1)(m+k+1)) and Clenshaw's
    q = -sqrt((m+1)(m+k+1) / ((m+2)(m+k+2))), each rounded once from exact
    integers; read-only, shared by every map."""
    m, k = np.arange(dim)[:, None], np.arange(dim)[None, :]
    s = (2 * m + k + 1).astype(float)
    p = 1.0 / np.sqrt(((m + 1) * (m + k + 1)).astype(float))
    q = -np.sqrt(((m + 1) * (m + k + 1)).astype(float) / ((m + 2) * (m + k + 2)).astype(float))
    for table in (s, p, q):
        table.flags.writeable = False
    return s, p, q


def _laguerre_series(coef: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(dim, len(x)) array of sum_m coef[k, m] l_m(x), with l_m the
    functions of diagonal k, in row k: one Clenshaw recurrence over m for
    every k at once.  Diagonal k has dim - k terms, so at step m only the
    rows k < dim - m are live, and each row starts from zeros at its own
    last term, as a lone recurrence would.  The three iterates rotate
    through fixed buffers whose rows stay 0 until they are live."""
    dim = coef.shape[0]
    s, p, q = _clenshaw_tables(dim)
    scale = np.empty((dim, x.size))
    b0, b1, b2 = (np.zeros((dim, x.size), dtype=complex) for _ in range(3))
    for m in range(dim - 1, -1, -1):
        live = dim - m
        t = scale[:live]
        np.subtract(x, s[m, :live, None], out=t)
        t *= p[m, :live, None]
        np.multiply(t, b1[:live], out=b0[:live])
        b0[:live] += coef[:live, m, None]
        b2[:live] *= q[m, :live, None]
        b0[:live] += b2[:live]
        b0, b1, b2 = b2, b0, b1
    return b1


def _wigner_values(rho: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """W at every entry of the complex array xi.

    The Laguerre series depend on xi only through x = 4|xi|^2, so they are
    summed once per distinct x, _RADIUS_CHUNK values at a time.  One sort
    of the points by x yields the distinct values and, for each chunk of
    them, the slice of points Horner's step over the diagonals runs on.
    """
    dim = rho.shape[0]
    x = 4.0 * np.abs(xi) ** 2
    points = xi.ravel()
    order = np.argsort(x, axis=None)
    radii = x.ravel()[order]
    first = np.ones(radii.size, dtype=bool)  # marks each distinct x
    np.not_equal(radii[1:], radii[:-1], out=first[1:])
    radii = radii[first]
    starts = np.append(np.flatnonzero(first), first.size)
    # coef[k, m] = c_{m, m+k} rho_{m, m+k}, zero past m = dim - 1 - k
    m, n = np.triu_indices(dim)
    coef = np.zeros((dim, dim), dtype=complex)
    coef[n - m, m] = rho[m, n]
    coef *= np.where(np.arange(dim) == 0, 1.0, 2.0)[:, None]
    w = np.empty(xi.size)
    for lo in range(0, radii.size, _RADIUS_CHUNK):
        hi = min(lo + _RADIUS_CHUNK, radii.size)
        series = _laguerre_series(coef, radii[lo:hi])
        span = slice(starts[lo], starts[hi])
        at = np.cumsum(first[span]) - 1
        pts = order[span]
        xi_c = points[pts]
        acc = np.zeros(pts.size, dtype=complex)
        # a named factor: numpy may compute a product with a large temporary
        # in that temporary, operands swapped, and its complex multiply
        # rounds differently then; so each W(xi) is independent of the grid
        factor = np.empty_like(xi_c)
        for k in range(dim - 1, -1, -1):
            np.multiply(2.0 / math.sqrt(k + 1), xi_c, out=factor)
            acc = series[k, at] + acc * factor
        w[pts] = acc.real
    return 2.0 / np.pi * np.exp(-0.5 * x) * w.reshape(xi.shape)


def wigner(rho: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> WignerGrid:
    """Wigner function on the cartesian grid xs x ys, exact for the
    truncated state."""
    cfg = HilbertConfig(n_max=rho.shape[0] - 1)
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)

    radius = float(np.hypot(np.max(np.abs(xs)), np.max(np.abs(ys))))
    if radius > trust_radius(cfg):
        warnings.warn(
            f"grid radius {radius:.2f} exceeds the truncation trust radius "
            f"{trust_radius(cfg):.2f}; W there is exact for the truncated state, "
            f"but the truncation no longer represents the field",
            stacklevel=2,
        )

    values = _wigner_values(rho, xs[None, :] + 1j * ys[:, None])
    return WignerGrid(xs=xs, ys=ys, values=values)


# ---------------------------------------------------------------------------
# squeezing
# ---------------------------------------------------------------------------

def squeezing_db(rho: np.ndarray) -> tuple[float, float]:
    """(squeezing in dB, minimizing quadrature angle).

    Var X_theta = (1 + 2 B + 2 Re[A e^{-2 i theta}]) / 4 with
    A = <a^2> - <a>^2 and B = <N> - |<a>|^2, minimized in closed form
    at theta = (arg A + pi) / 2.  The dB value is the standard-deviation
    ratio 10 log10(sigma_vac / sigma_min) with sigma_vac = 1/2: positive
    means squeezed below vacuum noise.
    """
    amp, amp2, nbar = field_moments(rho)
    a_coef = amp2 - amp * amp
    b_coef = nbar - abs(amp) ** 2
    var_min = 0.25 * (1.0 + 2.0 * b_coef - 2.0 * abs(a_coef))
    theta = 0.0 if abs(a_coef) == 0 else ((np.angle(a_coef) + np.pi) / 2) % np.pi
    return float(5.0 * np.log10(0.25 / var_min)), float(theta)


# ---------------------------------------------------------------------------
# cat fitting
# ---------------------------------------------------------------------------

# The amplitude search of fit_cat: the Nelder-Mead tolerances.  The
# phase step: coordinate-ascent sweeps before the Newton finish, the cap on
# Newton steps, and the cap on sweeps when the finish hands back to them.
_SIMPLEX = {"xatol": 1e-7, "fatol": 1e-12, "maxiter": 4000}
_NEWTON_SWEEPS = 2
_NEWTON_STEPS = 10
_MAX_SWEEPS = 200


def _best_phase(
    a: float, b: float, c: float, d: float, e: float, f: float
) -> tuple[float, float] | None:
    """(theta, value): the maximum of (a + b cos theta + c sin theta) /
    (d + e cos theta + f sin theta), or None.

    The stationary points solve p sin theta + q cos theta + r = 0 with
    p = ae - bd, q = cd - af and r = ce - bf; the better of its two roots
    is returned.  A root where the denominator, a c'Gc, is not positive
    (it vanishes only by rounding, at small |alpha|) is skipped, and None
    means both were.
    """
    p, q, r = a * e - b * d, c * d - a * f, c * e - b * f
    # p sin + q cos = h cos(theta - phi); h = 0 only where the quotient is flat
    h = math.hypot(p, q)
    phi = math.atan2(p, q)
    half = math.acos(max(-1.0, min(1.0, -r / h))) if h > 0 else 0.0
    best = None
    for theta in (phi + half, phi - half):
        cos, sin = math.cos(theta), math.sin(theta)
        den = d + e * cos + f * sin
        if den > 0:
            value = (a + b * cos + c * sin) / den
            if best is None or value > best[1]:
                best = (theta, value)
    return best


def _quotient(c: list[complex], prods: list[list[complex]]) -> float:
    """c'Mc / c'Gc from prods = (Mc, Gc); -inf where c'Gc is not positive."""
    cc = [x.conjugate() for x in c]
    num, den = (sum(map(mul, cc, prod)).real for prod in prods)
    return num / den if den > 0 else -math.inf


def _products(mats, c: list[complex]) -> list[list[complex]]:
    """(Mc, Gc) for mats = (M, G) as nested lists."""
    return [[sum(map(mul, row, c)) for row in mat] for mat in mats]


def _sweep(mats, c: list[complex], prods, theta: list[float], value: float) -> float:
    """One cycle of closed-form steps over theta_1 .. theta_{k-1}, updating
    c, prods = (Mc, Gc) and theta in place; value is the quotient before
    it, and the quotient after it is returned.

    With theta_j free and the others held, c'Mc = A + 2 Re(w e^{-i theta_j})
    with w = (Mc)_j - M_jj c_j and A = c'Mc - 2 Re(conj(c_j) w) at the
    current c_j, and likewise for G, so each step is _best_phase's closed
    form; where that has no root, theta_j stays.
    """
    cc = [x.conjugate() for x in c]
    for j in range(1, len(c)):
        parts = []
        for mat, prod in zip(mats, prods):
            w = prod[j] - mat[j][j] * c[j]
            parts += [sum(map(mul, cc, prod)).real - 2 * (cc[j] * w).real, 2 * w.real, 2 * w.imag]
        step = _best_phase(*parts)
        if step is None:
            continue
        theta[j - 1], value = step
        new = cmath.exp(1j * theta[j - 1])
        delta, c[j], cc[j] = new - c[j], new, new.conjugate()
        for mat, prod in zip(mats, prods):
            for i, row in enumerate(mat):
                prod[i] += row[j] * delta
    return value


def _solve_definite(a: list[list[float]], b: list[float]) -> list[float] | None:
    """x with a x = b by Gaussian elimination without pivoting, or None
    where the symmetric a is not positive definite, which is where a pivot
    is not positive (the pivots are those of a's LDL' factorization)."""
    n = len(b)
    a, b = [row[:] for row in a], b[:]
    for i in range(n):
        if a[i][i] <= 0:
            return None
        for r in range(i + 1, n):
            f = a[r][i] / a[i][i]
            for col in range(i + 1, n):
                a[r][col] -= f * a[i][col]
            b[r] -= f * b[i]
    x = [0.0] * n
    for i in reversed(range(n)):
        x[i] = (b[i] - sum(map(mul, a[i][i + 1:], x[i + 1:]))) / a[i][i]
    return x


def _newton_step(
    mats, c: list[complex], prods, value: float
) -> tuple[list[float], float] | None:
    """(step, gain): the Newton step on theta_1 .. theta_{k-1} of f = N / D,
    N = c'Mc and D = c'Gc, and the gain its quadratic model predicts; None
    where f's Hessian is not negative definite or D is not positive.

    For a Hermitian form, dN/dtheta_j = 2 Im(conj(c_j) (Mc)_j), and
    d2N/dtheta_j dtheta_l is 2 Re(conj(c_j) M_jl c_l) off the diagonal and
    2 M_jj - 2 Re(conj(c_j) (Mc)_j) on it; then grad f = (grad N -
    f grad D) / D and hess f = (hess N - f hess D - grad f grad D' -
    grad D grad f') / D.
    """
    (m, g), (y, z) = mats, prods
    k = len(c)
    cc = [x.conjugate() for x in c]
    den = sum(map(mul, cc, z)).real
    if den <= 0:
        return None
    sy, sz = ([cc[j] * p[j] for j in range(1, k)] for p in (y, z))
    grad_d = [2 * s.imag for s in sz]
    grad = [(2 * s.imag - value * d) / den for s, d in zip(sy, grad_d)]
    neg_hess = [[0.0] * (k - 1) for _ in range(k - 1)]
    for a in range(k - 1):
        for b in range(a + 1):
            if a == b:
                hn, hd = m[a + 1][a + 1].real - sy[a].real, g[a + 1][a + 1].real - sz[a].real
            else:
                hn = (cc[a + 1] * m[a + 1][b + 1] * c[b + 1]).real
                hd = (cc[a + 1] * g[a + 1][b + 1] * c[b + 1]).real
            neg_hess[a][b] = neg_hess[b][a] = (
                grad[a] * grad_d[b] + grad_d[a] * grad[b] - 2 * (hn - value * hd)
            ) / den
    step = _solve_definite(neg_hess, grad)
    return None if step is None else (step, 0.5 * sum(map(mul, step, grad)))


def _newton_finish(mats, c: list[complex], prods, theta: list[float], value: float):
    """(done, value): Newton steps from the current phases, updating c,
    prods and theta in place.

    The gain a step's quadratic model predicts, P, estimates how far the
    quotient is below its maximum, and near the maximum Newton's method
    leaves about P^2 after the step.  So the steps stop (done) at a
    predicted gain of at most 1e-15, untaken, or after a step taken with
    P <= 1e-10.  A step that lowers the quotient is rejected; it, a Hessian
    that is not negative definite, or _NEWTON_STEPS steps without a stop
    return done = False.
    """
    for _ in range(_NEWTON_STEPS):
        newton = _newton_step(mats, c, prods, value)
        if newton is None:
            break
        step, predicted = newton
        if predicted <= 1e-15:
            return True, value
        trial = [t + s for t, s in zip(theta, step)]
        c_trial = [1.0 + 0j] + [cmath.exp(1j * t) for t in trial]
        prods_trial = _products(mats, c_trial)
        trial_value = _quotient(c_trial, prods_trial)
        if trial_value < value:
            break
        theta[:], c[:], prods[:], value = trial, c_trial, prods_trial, trial_value
        if predicted <= 1e-10:
            return True, value
    return False, value


def _phase_ascent(
    m: np.ndarray, g: np.ndarray, theta: "np.ndarray | list[float]"
) -> tuple[float, list[float]]:
    """(value, theta): the maximum of c'Mc / c'Gc over c = (1,
    e^{i theta_1}, ..., e^{i theta_{k-1}}) reached from the given phases.

    Cyclic coordinate ascent (_sweep), in which no step lowers the quotient,
    then Newton steps on all phases at once (_newton_finish) after
    _NEWTON_SWEEPS sweeps; where they hand back, the sweeps go on until one
    gains at most 1e-15, or for _MAX_SWEEPS in all.  Plain Python
    arithmetic: the matrices are k x k, where numpy's per-call cost would
    dominate.
    """
    mats = (m.tolist(), g.tolist())
    theta = [float(t) for t in theta]
    c = [1.0 + 0j] + [cmath.exp(1j * t) for t in theta]
    prods = _products(mats, c)
    value = _quotient(c, prods)
    for sweep in range(1, _MAX_SWEEPS + 1):
        prev = value
        value = _sweep(mats, c, prods, theta, value)
        if value - prev <= 1e-15:
            break
        if sweep == _NEWTON_SWEEPS:
            done, value = _newton_finish(mats, c, prods, theta, value)
            if done:
                break
    return value, theta


def _cat_matrices(
    rho: np.ndarray, alphas: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """(M, G) of shape (B, k, k) for each amplitude of a 1-d array.

    V = [v_0 ... v_{k-1}] holds the truncated unnormalized components
    v_j = |alpha omega^j> (omega = e^{2 pi i/k}); M = V' rho V and G = V'V
    is the truncated Gram matrix.  Since ideal_mfss renormalizes by the
    truncated norm, the overlap of rho with ideal_mfss(alpha, k, theta) is
    c'Mc / c'Gc with c = (1, e^{i theta_1}, ...).  The components share
    |alpha|, so v_j = v_0 omega^(j n) is one coherent vector times a row of
    _root_table; one product with rho gives rho V, and one product of V'
    with [rho V, V] both forms.
    """
    dim = rho.shape[0]
    v = _coherent_amplitudes(alphas, dim)[:, None, :] * _root_table(k, dim)
    both = np.concatenate(((v.reshape(-1, dim) @ rho.T).reshape(v.shape), v), axis=1)
    forms = v.conj() @ both.transpose(0, 2, 1)
    return forms[..., :k], forms[..., k:]


@lru_cache(maxsize=None)
def _phase_nodes(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The 8^(k-1) grid of relative phases and the (2k^2, 8^(k-1)) real
    table that turns a k x k form F, viewed as its (Re F_ij, Im F_ij) pairs,
    into Re(c'Fc) at every node's coefficients c = (1, e^{i theta_1}, ...):
    column p holds (Re w_ij, -Im w_ij) with w_ij = conj(c_i) c_j.  Read-only,
    shared by every fit."""
    axis = np.linspace(0, 2 * np.pi, 8, endpoint=False)
    nodes = np.stack(np.meshgrid(*([axis] * (k - 1)), indexing="ij"), axis=-1)
    nodes = nodes.reshape(-1, k - 1)
    coeff = np.exp(1j * np.concatenate([np.zeros((len(nodes), 1)), nodes], axis=1))
    w = coeff.conj()[:, :, None] * coeff[:, None, :]
    table = np.stack((w.real, -w.imag), axis=-1).reshape(len(nodes), -1).T
    nodes.flags.writeable = table.flags.writeable = False
    return nodes, table


def _phase_grid(m: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best value of c'Mc / c'Gc on the 8^(k-1) grid of relative phases, and
    its node, for each pair of a (B, k, k) stack: one real product of the
    forms' (re, im) pairs with _phase_nodes' table.  Nodes where c'Gc is not
    positive are skipped; the node c = (1, ..., 1) never is."""
    nodes, table = _phase_nodes(m.shape[-1])
    forms = np.concatenate((m, g)).view(float).reshape(2 * len(m), -1) @ table
    num, den = forms[: len(m)], forms[len(m):]
    vals = np.divide(num, den, out=np.full(num.shape, -np.inf), where=den > 0)
    return vals.max(axis=1), nodes[vals.argmax(axis=1)]


def _cat_profile(rho: np.ndarray, alpha: complex, k: int) -> tuple[float, list[float]]:
    """(value, theta): the best overlap of rho with a k-component cat of
    amplitude alpha over the relative phases theta.  For k = 2,
    c'Mc = M_00 + M_11 + 2 Re(M_01 e^{i theta}) and likewise c'Gc, so
    _best_phase's closed form is the maximum; for k >= 3 the best node of
    the phase grid seeds _phase_ascent.  Zero past the coherent guard, and
    never below zero."""
    if _past_guard(alpha, rho.shape[0] - 1):
        return 0.0, [0.0] * (k - 1)
    if alpha == 0:  # every component is the vacuum
        return float(rho[0, 0].real), [0.0] * (k - 1)
    m, g = _cat_matrices(rho, np.array([alpha]), k)
    if k > 2:
        value, theta = _phase_ascent(m[0], g[0], _phase_grid(m, g)[1][0])
    else:
        parts = []
        for (x00, x01), (_, x11) in (m[0].tolist(), g[0].tolist()):
            parts += [x00.real + x11.real, 2 * x01.real, -2 * x01.imag]
        best = _best_phase(*parts)
        if best is None:  # theta = 0, the even cat, has a positive c'Gc
            best = (0.0, (parts[0] + parts[1]) / (parts[3] + parts[4]))
        theta, value = [best[0]], best[1]
    # c'Mc >= 0: a negative value is the rounding of a cancelling numerator
    return max(value, 0.0), theta


def _nelder_mead(f, x0) -> tuple[np.ndarray, float]:
    """(x, f(x)): the lowest vertex that a Nelder-Mead simplex search of f
    from the two-coordinate x0 reaches.

    The unbounded, non-adaptive method of scipy.optimize.minimize(method=
    "Nelder-Mead", options=_SIMPLEX), step for step: reflection 1,
    expansion 2, contraction and shrink 1/2; the first simplex moves each
    coordinate of x0 in turn by 5 %, or to 0.00025 where it is zero; the
    search stops once every vertex lies within xatol of the best in each
    coordinate and every value within fatol of its value, or after
    maxiter - 1 steps.  The three vertices and their values are Python
    floats, where numpy's per-call cost would dominate, and every new
    coordinate is the same one rounding of the same expression as scipy's.
    They are ordered by a stable sort with NaN last, twice after the first
    evaluations, as scipy orders them by np.argsort, which on three entries
    is stable too, so ties fall as they do there; f gets each point as a
    new array.
    """
    xatol, fatol, maxiter = _SIMPLEX["xatol"], _SIMPLEX["fatol"], _SIMPLEX["maxiter"]
    x, y = (float(v) for v in x0)
    sim = [(x, y), (1.05 * x if x != 0 else 0.00025, y), (x, 1.05 * y if y != 0 else 0.00025)]
    fsim = [f(np.array(p)) for p in sim]

    def ordered(sim, fsim):
        order = sorted(range(3), key=lambda i: (fsim[i] != fsim[i], fsim[i]))
        return [sim[i] for i in order], [fsim[i] for i in order]

    sim, fsim = ordered(*ordered(sim, fsim))
    for _ in range(maxiter - 1):
        (bx, by), (mx, my), (wx, wy) = sim  # best, middle, worst
        # written so that a NaN fails the test, as it fails scipy's max
        if all(abs(v) <= xatol for v in (mx - bx, my - by, wx - bx, wy - by)) and all(
            abs(fsim[0] - v) <= fatol for v in fsim[1:]
        ):
            break
        xbar, ybar = (bx + mx) / 2, (by + my) / 2
        xr = (2 * xbar - wx, 2 * ybar - wy)
        fxr = f(np.array(xr))
        if fxr < fsim[0]:
            xe = (3 * xbar - 2 * wx, 3 * ybar - 2 * wy)
            fxe = f(np.array(xe))
            sim[2], fsim[2] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[1]:
            sim[2], fsim[2] = xr, fxr
        else:
            if fxr < fsim[2]:  # outside contraction
                xc = (1.5 * xbar - 0.5 * wx, 1.5 * ybar - 0.5 * wy)
                fxc = f(np.array(xc))
                accept = fxc <= fxr
            else:  # inside contraction
                xc = (0.5 * xbar + 0.5 * wx, 0.5 * ybar + 0.5 * wy)
                fxc = f(np.array(xc))
                accept = fxc < fsim[2]
            if accept:
                sim[2], fsim[2] = xc, fxc
            else:  # shrink toward the best vertex
                for j in (1, 2):
                    sim[j] = (bx + 0.5 * (sim[j][0] - bx), by + 0.5 * (sim[j][1] - by))
                    fsim[j] = f(np.array(sim[j]))
        sim, fsim = ordered(sim, fsim)
    return np.array(sim[0]), float(np.min(fsim))


def fit_cat(rho: np.ndarray, k: int) -> CatFitResult:
    """Best ideal k-component cat approximation of rho.

    Variable projection (Golub and Pereyra, SIAM J. Numer. Anal. 10, 413
    (1973)): for a fixed component amplitude alpha the best k-1 relative
    phases are solved exactly (_cat_profile), so Nelder-Mead searches only
    (Re alpha, Im alpha); _nelder_mead is scipy's simplex method and
    tolerances in a few lines, which keeps scipy.optimize out of the import.
    An evaluation builds one coherent vector, turns it into the k components
    with the shared table of roots omega^(j n) (_root_table) and makes one
    product with rho; the phases then take one closed-form step for k = 2,
    and for k >= 3 two coordinate-ascent sweeps from the best node of the
    8^(k-1) phase grid and a Newton finish.  The profile can hold more than
    one local maximum in alpha, and on random states each of the two starts
    finds maxima the other misses: the k-th-moment direction at |alpha| =
    sqrt(nbar), and the best node of a 16 x 16 rake over |Re alpha|,
    |Im alpha| <= sqrt(nbar) + 1, ranked by the phase grid alone.
    Deterministic; the better search's fidelity is re-evaluated from
    ideal_mfss.  Of the k relabelings alpha omega^s of one cat, the fit
    reports the one with -pi/k < arg alpha <= pi/k.
    """
    if k < 2:
        raise ValueError("a cat needs at least 2 components")
    cfg = HilbertConfig(n_max=rho.shape[0] - 1)

    mag = math.sqrt(max(mean_photon(rho), 1e-6))
    # <a^k> of an equally spaced cat is alpha^k regardless of the phases,
    # so the k-th moment pins the pointer direction up to relabeling
    log_fact = _log_factorials(cfg.dim)
    a_k = complex(np.sum(np.exp(0.5 * (log_fact[k:] - log_fact[:-k])) * np.diag(rho, k=-k)))
    direction = np.angle(a_k) / k if abs(a_k) > 1e-12 else 0.0
    axis = np.linspace(-(mag + 1.0), mag + 1.0, 16)
    rake = (axis[:, None] + 1j * axis[None, :]).ravel()
    # ranked a quarter at a time: a pass's (64, k, dim) components and its
    # (64, 8^(k-1)) phase grid stay small
    coarse = np.concatenate(
        [_phase_grid(*_cat_matrices(rho, part, k))[0] for part in np.split(rake, 4)]
    )
    coarse[_past_guard(rake, cfg.n_max)] = 0.0

    def loss(x: np.ndarray) -> float:
        return -_cat_profile(rho, complex(x[0], x[1]), k)[0]

    runs = [
        _nelder_mead(loss, [a0.real, a0.imag])
        for a0 in (mag * np.exp(1j * direction), rake[int(np.argmax(coarse))])
    ]
    x, _ = min(runs, key=lambda run: run[1])  # the first on a tie
    alpha = complex(x[0], x[1])
    theta = [0.0, *_cat_profile(rho, alpha, k)[1]]
    # alpha omega^s with theta'_j = theta_(j+s) - theta_s is the same cat:
    # report the one with -pi/k < arg alpha <= pi/k, so the answer does not
    # depend on which relabeling the search happened to reach
    s = (1 - math.ceil(k * cmath.phase(alpha) / (2 * math.pi) + 0.5)) % k
    if s:
        alpha *= cmath.exp(2j * math.pi * s / k)
    phases = tuple(float((theta[(j + s) % k] - theta[s]) % (2 * np.pi)) for j in range(1, k))
    reference = ideal_mfss(alpha, k, phases, cfg)
    return CatFitResult(
        alpha=alpha,
        rel_phases=phases,
        fidelity=overlap_fidelity(rho, reference),
        reference=reference,
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def wigner_to_text(grid: WignerGrid) -> str:
    """Two-line header with the axes, then the value matrix row-major."""
    lines = [
        "# xs: " + " ".join(f"{v:.9g}" for v in grid.xs),
        "# ys: " + " ".join(f"{v:.9g}" for v in grid.ys),
    ]
    for row in grid.values:
        lines.append(" ".join(f"{v:.9g}" for v in row))
    return "\n".join(lines) + "\n"


def records_to_csv(records) -> str:
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            f"{r.sample_index},{r.time:.9g},{r.n_bar:.9g},"
            f"{r.purity:.9g},{r.fidelity:.9g},{r.trace_error:.9g}"
        )
    return "\n".join(lines) + "\n"
