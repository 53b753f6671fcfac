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
and Nori, Comput. Phys. Commun. 184, 1234 (2013)).  That is O(dim^2) per
point with no cancelling sums, so W is the exact Wigner function of the
truncated state at every xi.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from cavres.fock import COHERENT_GUARD, HilbertConfig, ideal_mfss, make_ladder

__all__ = [
    "MetricsRecord",
    "WignerGrid",
    "CatFitResult",
    "mean_photon",
    "purity",
    "field_moments",
    "overlap_fidelity",
    "wigner",
    "wigner_point",
    "default_grid_axes",
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


def default_grid_axes() -> tuple[np.ndarray, np.ndarray]:
    """x, y in [-3.5, 3.5] at step 0.07 (101 points per axis)."""
    ax = np.linspace(-3.5, 3.5, 101)
    return ax, ax.copy()


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


def _wigner_values(rho: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """W at every entry of the complex array xi."""
    dim = rho.shape[0]
    x = 4.0 * np.abs(xi) ** 2
    w = np.zeros(xi.shape, dtype=complex)
    for k in range(dim - 1, -1, -1):
        coef = np.diagonal(rho, k) * (1.0 if k == 0 else 2.0)
        w = _laguerre_series(coef, k, x) + w * (2.0 / math.sqrt(k + 1) * xi)
    return 2.0 / np.pi * np.exp(-0.5 * x) * w.real


def wigner_point(rho: np.ndarray, xi: complex) -> float:
    """W at a single phase-space point."""
    return float(_wigner_values(rho, np.array([xi], dtype=complex))[0])


def wigner(
    rho: np.ndarray,
    xs: np.ndarray | None = None,
    ys: np.ndarray | None = None,
) -> WignerGrid:
    """Wigner function on a cartesian grid, exact for the truncated state."""
    cfg = HilbertConfig(n_max=rho.shape[0] - 1)
    if xs is None or ys is None:
        dxs, dys = default_grid_axes()
        xs = dxs if xs is None else np.asarray(xs, dtype=float)
        ys = dys if ys is None else np.asarray(ys, dtype=float)
    else:
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

def _cat_overlap(x: np.ndarray, rho: np.ndarray, k: int, cfg: HilbertConfig) -> float:
    alpha = complex(x[0], x[1])
    if abs(alpha) ** 2 > COHERENT_GUARD * cfg.n_max:
        return 0.0
    try:
        ref = ideal_mfss(alpha, k, tuple(x[2:]), cfg)
    except ValueError:
        return 0.0
    return overlap_fidelity(rho, ref)


def fit_cat(
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
