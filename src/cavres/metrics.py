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
of k x k forms in the component coefficients c = (1, e^{i theta_1}, ...),
so the relative phases are solved exactly: in closed form for k = 2, by
coordinate ascent in closed-form steps for k >= 3.  Nelder-Mead then
searches alpha alone, at one product with rho per step, from the k-th-moment
direction and from the best node of a coarse alpha rake.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import minimize

from cavres.fock import (
    COHERENT_GUARD,
    HilbertConfig,
    _coherent_amplitudes,
    _past_guard,
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


def mean_photon(rho: np.ndarray) -> float:
    return float(np.real(np.diag(rho) @ np.arange(rho.shape[0])))


def purity(rho: np.ndarray) -> float:
    return float(np.real(np.einsum("ij,ji->", rho, rho)))


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

# The amplitude search of fit_cat: scipy's Nelder-Mead tolerances, and the
# cap on coordinate-ascent sweeps of the phase step.
_SIMPLEX = {"xatol": 1e-7, "fatol": 1e-12, "maxiter": 4000}
_MAX_SWEEPS = 200


def _best_phase(
    a: float, b: float, c: float, d: float, e: float, f: float
) -> tuple[float, float]:
    """(theta, value): the maximum of (a + b cos theta + c sin theta) /
    (d + e cos theta + f sin theta), for a denominator that stays positive.

    The stationary points solve p sin theta + q cos theta + r = 0 with
    p = ae - bd, q = cd - af and r = ce - bf; the better of its two roots
    is returned.
    """
    p, q, r = a * e - b * d, c * d - a * f, c * e - b * f
    # p sin + q cos = h cos(theta - phi); h = 0 only where the quotient is flat
    h = math.hypot(p, q)
    phi = math.atan2(p, q)
    half = math.acos(max(-1.0, min(1.0, -r / h))) if h > 0 else 0.0
    best = None
    for theta in (phi + half, phi - half):
        cos, sin = math.cos(theta), math.sin(theta)
        value = (a + b * cos + c * sin) / (d + e * cos + f * sin)
        if best is None or value > best[1]:
            best = (theta, value)
    return best


def _phase_ascent(
    m: np.ndarray, g: np.ndarray, theta: np.ndarray
) -> tuple[float, list[float]]:
    """(value, theta): cyclic coordinate ascent of c'Mc / c'Gc over
    c = (1, e^{i theta_1}, ..., e^{i theta_{k-1}}) from the given phases.

    With theta_j free and the others held, c'Mc = A + 2 Re(w e^{-i theta_j})
    with w = (Mc)_j - M_jj c_j and A = c'Mc - 2 Re(conj(c_j) w) at the
    current c_j, and likewise for G, so each step is _best_phase's closed
    form and none lowers the quotient.  For k = 2 the first step is already
    the maximum.  The sweeps stop once one gains at most 1e-15.  Plain
    Python arithmetic: the matrices are k x k, where numpy's per-call cost
    would dominate.
    """
    k = m.shape[0]
    mats = (m.tolist(), g.tolist())
    theta = [float(t) for t in theta]
    c = [1.0 + 0j] + [cmath.exp(1j * t) for t in theta]
    prods = [[sum(row[l] * c[l] for l in range(k)) for row in mat] for mat in mats]
    value = -math.inf
    for _ in range(_MAX_SWEEPS):
        prev = value
        for j in range(1, k):
            parts = []
            for mat, prod in zip(mats, prods):
                w = prod[j] - mat[j][j] * c[j]
                total = sum(ci.conjugate() * pi for ci, pi in zip(c, prod)).real
                parts += [total - 2 * (c[j].conjugate() * w).real, 2 * w.real, 2 * w.imag]
            theta[j - 1], value = _best_phase(*parts)
            new = cmath.exp(1j * theta[j - 1])
            for mat, prod in zip(mats, prods):
                for i in range(k):
                    prod[i] += mat[i][j] * (new - c[j])
            c[j] = new
        if k == 2 or value - prev <= 1e-15:
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
    c'Mc / c'Gc with c = (1, e^{i theta_1}, ...).
    """
    dim = rho.shape[0]
    v = _coherent_amplitudes(alphas[:, None] * np.exp(2j * np.pi * np.arange(k) / k), dim)
    rho_v = (v.reshape(-1, dim) @ rho.T).reshape(v.shape)
    return v.conj() @ rho_v.transpose(0, 2, 1), v.conj() @ v.transpose(0, 2, 1)


@lru_cache(maxsize=None)
def _phase_nodes(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The 8^(k-1) grid of relative phases, and its rows of coefficients
    c = (1, e^{i theta_1}, ...); read-only, shared by every fit."""
    axis = np.linspace(0, 2 * np.pi, 8, endpoint=False)
    nodes = np.stack(np.meshgrid(*([axis] * (k - 1)), indexing="ij"), axis=-1)
    nodes = nodes.reshape(-1, k - 1)
    coeff = np.exp(1j * np.concatenate([np.zeros((len(nodes), 1)), nodes], axis=1))
    nodes.flags.writeable = coeff.flags.writeable = False
    return nodes, coeff


def _phase_grid(m: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best value of c'Mc / c'Gc on the 8^(k-1) grid of relative phases, and
    its node, for each pair of a (B, k, k) stack."""
    nodes, c = _phase_nodes(m.shape[-1])
    num = np.einsum("pi,bij,pj->bp", c.conj(), m, c).real
    vals = num / np.einsum("pi,bij,pj->bp", c.conj(), g, c).real
    best = np.argmax(vals, axis=1)
    return vals[np.arange(len(vals)), best], nodes[best]


def _cat_profile(rho: np.ndarray, alpha: complex, k: int) -> tuple[float, list[float]]:
    """(value, theta): the best overlap of rho with a k-component cat of
    amplitude alpha over the relative phases theta, which the best node of
    the phase grid seeds and _phase_ascent solves.  Zero past the coherent
    guard."""
    if _past_guard(alpha, rho.shape[0] - 1):
        return 0.0, [0.0] * (k - 1)
    if alpha == 0:  # every component is the vacuum
        return float(rho[0, 0].real), [0.0] * (k - 1)
    m, g = _cat_matrices(rho, np.array([alpha]), k)
    return _phase_ascent(m[0], g[0], _phase_grid(m, g)[1][0])


def fit_cat(rho: np.ndarray, k: int) -> CatFitResult:
    """Best ideal k-component cat approximation of rho.

    Variable projection (Golub and Pereyra, SIAM J. Numer. Anal. 10, 413
    (1973)): for a fixed component amplitude alpha the best k-1 relative
    phases are solved exactly (_cat_profile), so Nelder-Mead searches only
    (Re alpha, Im alpha), with one product with rho per evaluation.  The
    profile can hold more than one local maximum in alpha, and on random
    states each of the two starts finds maxima the other misses: the
    k-th-moment direction at |alpha| = sqrt(nbar), and the best node of a
    16 x 16 rake over |Re alpha|, |Im alpha| <= sqrt(nbar) + 1, ranked by the
    phase grid alone.  Deterministic; the better search's fidelity is
    re-evaluated from ideal_mfss.
    """
    if k < 2:
        raise ValueError("a cat needs at least 2 components")
    cfg = HilbertConfig(n_max=rho.shape[0] - 1)

    mag = math.sqrt(max(mean_photon(rho), 1e-6))
    # <a^k> of an equally spaced cat is alpha^k regardless of the phases,
    # so the k-th moment pins the pointer direction up to relabeling
    log_fact = np.cumsum(np.log(np.maximum(np.arange(cfg.dim), 1)))
    a_k = complex(np.sum(np.exp(0.5 * (log_fact[k:] - log_fact[:-k])) * np.diag(rho, k=-k)))
    direction = np.angle(a_k) / k if abs(a_k) > 1e-12 else 0.0
    axis = np.linspace(-(mag + 1.0), mag + 1.0, 16)
    rake = (axis[:, None] + 1j * axis[None, :]).ravel()
    coarse = _phase_grid(*_cat_matrices(rho, rake, k))[0]
    coarse[_past_guard(rake, cfg.n_max)] = 0.0

    def loss(x: np.ndarray) -> float:
        return -_cat_profile(rho, complex(x[0], x[1]), k)[0]

    runs = [
        minimize(loss, [a0.real, a0.imag], method="Nelder-Mead", options=_SIMPLEX)
        for a0 in (mag * np.exp(1j * direction), rake[int(np.argmax(coarse))])
    ]
    res = min(runs, key=lambda r: r.fun)  # the first on a tie
    alpha = complex(res.x[0], res.x[1])
    phases = tuple(float(p % (2 * np.pi)) for p in _cat_profile(rho, alpha, k)[1])
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

def _fmt(x: float) -> str:
    return format(x, ".9g")

def wigner_to_text(grid: WignerGrid) -> str:
    """Two-line header with the axes, then the value matrix row-major."""
    lines = [
        "# xs: " + " ".join(_fmt(v) for v in grid.xs),
        "# ys: " + " ".join(_fmt(v) for v in grid.ys),
    ]
    for row in grid.values:
        lines.append(" ".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def records_to_csv(records) -> str:
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            f"{r.sample_index},{_fmt(r.time)},{_fmt(r.n_bar)},"
            f"{_fmt(r.purity)},{_fmt(r.fidelity)},{_fmt(r.trace_error)}"
        )
    return "\n".join(lines) + "\n"
