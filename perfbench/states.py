"""Seeded input states and an independent Wigner oracle for `wigner_states`.

numpy and scipy only: nothing here imports cavres, so the inputs and the
reference values stay the same whatever the program under test does.

Conventions match the program's documented ones: W(xi) integrates to 1 over
the complex plane and a coherent state |beta> has
W(xi) = (2/pi) exp(-2 |xi - beta|^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import eval_genlaguerre, gammaln

N_MAX = 60
DIM = N_MAX + 1
# |alpha|^2 <= GUARD * n_max is what the program admits for a coherent
# amplitude (cavres.fock.COHERENT_GUARD at the time the benchmark was written)
GUARD = 0.6
GRID_POINTS = 15       # per axis, for every state
SPOT_POINTS = 12       # grid nodes compared with the oracle, per state: the
                       # four corners, where |xi| and the program's rounding
                       # error are largest, and eight drawn from the rest
ORACLE_TOL = 1e-6      # absolute; W itself is at most 2/pi

_LOG_FACT = gammaln(np.arange(DIM) + 1.0)


@dataclass(frozen=True)
class Kind:
    """One family of generated states.

    amp is the range of |alpha| (of the squeezing parameter r for the
    squeezed kinds).  half_width is the grid's half-width: 2.5 keeps every
    grid point within |xi| <= 3.54, where the program's map was validated; 4.2
    reaches |xi| = 5.94, just inside the trust radius sqrt(0.6 * 60) = 6.
    known_defect marks the families that expose the cancellation defect of
    the normally ordered displacement product (ROADMAP open item 2): their
    oracle mismatches are reported and counted against ok_frac, but not as an
    unexpected failure.

    At commit 3d81f71 the program's map is within 1e-8 of the oracle on the
    whole 2.5 grid for cats and coherent states up to |alpha| = 1.65 and
    within 4e-7 for squeezed vacuum up to r = 0.65, at every phase tried.  From
    r = 0.72 on its corner values miss by more than ORACLE_TOL, and for
    r >= 1 by 9e-5 or more at some corner at every phase tried, so
    `squeezed_strong` fails on every draw until the defect is fixed, as
    `coherent_guard` does.
    """

    name: str
    components: int
    amp: tuple[float, float]
    half_width: float
    known_defect: bool = False


KINDS = (
    Kind("cat2", 2, (1.2, 1.65), 2.5),
    Kind("cat3", 3, (1.2, 1.65), 2.5),
    Kind("squeezed", 0, (0.3, 0.65), 2.5),
    Kind("squeezed_strong", 0, (1.0, 1.1), 2.5, known_defect=True),
    Kind("coherent", 1, (0.8, 1.65), 2.5),
    Kind("coherent_guard", 1, (math.sqrt(0.8 * GUARD * N_MAX), math.sqrt(GUARD * N_MAX)),
         4.2, known_defect=True),
)


@dataclass
class GeneratedState:
    label: str
    kind: Kind
    rho: np.ndarray
    grid_spec: str
    axis: np.ndarray
    spots: list[tuple[int, int]]     # (iy, ix) grid nodes checked against the oracle
    # cats only: the generating cat's overlap with rho, which a best fit must reach
    generating_overlap: float = math.nan


def coherent_amplitudes(alpha: complex) -> np.ndarray:
    n = np.arange(DIM)
    if alpha == 0:
        amps = np.zeros(DIM, dtype=complex)
        amps[0] = 1.0
        return amps
    log_mag = -0.5 * abs(alpha) ** 2 + n * math.log(abs(alpha)) - 0.5 * _LOG_FACT
    return np.exp(log_mag + 1j * n * np.angle(alpha))


def normalized(ket: np.ndarray) -> np.ndarray:
    return ket / np.linalg.norm(ket)


def cat_ket(alpha: complex, k: int, phases) -> np.ndarray:
    coeff = np.exp(1j * np.concatenate(([0.0], np.asarray(phases, dtype=float))))
    rot = np.exp(2j * np.pi * np.arange(k) / k)
    return normalized(sum(c * coherent_amplitudes(alpha * r) for c, r in zip(coeff, rot)))


def squeezed_vacuum(r: float, phi: float) -> np.ndarray:
    """S(r e^{i phi})|0>: even Fock amplitudes (-e^{i phi} tanh r)^m sqrt((2m)!)/(2^m m!)."""
    ket = np.zeros(DIM, dtype=complex)
    m = np.arange((DIM + 1) // 2)
    log_mag = m * math.log(math.tanh(r)) + 0.5 * _LOG_FACT[2 * m] - m * math.log(2.0) - _LOG_FACT[m]
    ket[2 * m] = np.exp(log_mag) * (-np.exp(1j * phi)) ** m
    return normalized(ket)


def grid_spec(half_width: float) -> tuple[str, np.ndarray]:
    step = 2 * half_width / (GRID_POINTS - 1)
    axis = -half_width + step * np.arange(GRID_POINTS)
    return f"{-half_width!r}:{half_width!r}:{step!r}", axis


def generate(seed: int, draw: int) -> list[GeneratedState]:
    """One state of every kind, drawn from (seed, draw)."""
    rng = np.random.default_rng([seed, draw])
    states = []
    for kind in KINDS:
        amp = rng.uniform(*kind.amp)
        spec, axis = grid_spec(kind.half_width)
        extra = {}
        if kind.components >= 2:
            alpha = amp * np.exp(1j * rng.uniform(0, 2 * np.pi))
            phases = tuple(rng.uniform(0, 2 * np.pi, kind.components - 1))
            ket = cat_ket(alpha, kind.components, phases)
            pure = np.outer(ket, ket.conj())
            noise = rng.uniform(0.05, 0.2)
            # Fock-basis dephasing keeps the state Hermitian, positive and of unit trace
            rho = (1 - noise) * pure + noise * np.diag(np.diag(pure))
            extra = dict(generating_overlap=float(np.real(ket.conj() @ rho @ ket)))
        elif kind.components == 1:
            # coherent amplitudes near a grid diagonal, so the blob sits on the grid
            angle = np.pi / 4 + np.pi / 2 * rng.integers(4) + rng.uniform(-0.15, 0.15)
            ket = normalized(coherent_amplitudes(amp * np.exp(1j * angle)))
            rho = np.outer(ket, ket.conj())
        else:
            ket = squeezed_vacuum(amp, rng.uniform(0, 2 * np.pi))
            rho = np.outer(ket, ket.conj())
        spots = spot_points(rng)
        label = f"{kind.name}(amp={amp:.3f})"
        states.append(GeneratedState(label, kind, rho, spec, axis, spots, **extra))
    return states


def spot_points(rng) -> list[tuple[int, int]]:
    """The four grid corners and SPOT_POINTS - 4 other nodes drawn by rng."""
    last = GRID_POINTS - 1
    corners = [(0, 0), (0, last), (last, 0), (last, last)]
    corner_flat = {iy * GRID_POINTS + ix for iy, ix in corners}
    others = [i for i in range(GRID_POINTS * GRID_POINTS) if i not in corner_flat]
    flat = rng.choice(others, SPOT_POINTS - len(corners), replace=False)
    return corners + [(int(i) // GRID_POINTS, int(i) % GRID_POINTS) for i in flat]


def state_text(rho: np.ndarray) -> str:
    """The program's state-file format: '# dim: N', then rows of re,im pairs."""
    rows = [",".join("%.17g,%.17g" % (z.real, z.imag) for z in row) for row in rho]
    return "\n".join([f"# dim: {rho.shape[0]}", *rows]) + "\n"


def wigner_oracle(rho: np.ndarray, xi: complex) -> float:
    """W(xi) from the Laguerre form of the Fock-basis Wigner functions.

    W = (2/pi) sum_{m<=n} c_mn Re[rho_mn (-1)^m (2 xi)^(n-m) sqrt(m!/n!)
        e^{-2|xi|^2} L_m^(n-m)(4|xi|^2)], with c = 1 on the diagonal and 2 off it.
    Every prefactor is combined in log space, so nothing cancels.
    """
    dim = rho.shape[0]
    m, n = np.triu_indices(dim)
    k = n - m
    x = 4.0 * abs(xi) ** 2
    lg = gammaln(np.arange(dim) + 1.0)
    if xi == 0:
        log_pow = np.where(k == 0, 0.0, -np.inf)
    else:
        log_pow = k * math.log(2.0 * abs(xi))
    mag = np.exp(log_pow + 0.5 * (lg[m] - lg[n]) - 0.5 * x)
    terms = rho[m, n] * np.where(m % 2, -1.0, 1.0) * mag * eval_genlaguerre(m, k, x) \
        * np.exp(1j * k * np.angle(xi))
    weights = np.where(k == 0, 1.0, 2.0)
    return float(2.0 / np.pi * np.sum(weights * terms.real))


def oracle_self_test() -> float:
    """Largest deviation of the oracle from the closed form of coherent
    states, over amplitudes and points out to the trust radius."""
    worst = 0.0
    for amp, angle in ((1.0, 0.3), (2.5, 2.0), (3.5, 4.0)):
        beta = amp * np.exp(1j * angle)
        ket = normalized(coherent_amplitudes(beta))
        rho = np.outer(ket, ket.conj())
        for xi in (0j, beta, beta + 0.4, 6.0 * np.exp(1j * angle), 4.2 - 4.2j, -3 + 1j):
            exact = 2.0 / np.pi * math.exp(-2.0 * abs(xi - beta) ** 2)
            worst = max(worst, abs(wigner_oracle(rho, xi) - exact))
    return worst
