"""Scenario configuration, built-in presets, and the artifact-writing runner.

Configuration files are flat structured text, one ``section.key = value``
assignment per line, with ``#`` comments.  Values accept explicit unit
suffixes (``us``, ``ms``, ``s``, ``mm``, ``m``, ``m/s``, ``Hz``, ``kHz``),
``pi`` expressions for angles (``0.45pi``), and coupling-relative detunings
(``delta = 2.2 omega0``).  Frequencies given in Hz or kHz are ordinary
frequencies and are converted to angular units internally; bare numbers are
already in internal units (seconds, meters, radians, rad/s).

Precedence, lowest to highest: built-in defaults, preset base, config file,
``--set`` overrides, dedicated flags.  Serialization emits bare numbers in
internal units so that ``parse(serialize(config)) == config`` exactly.
"""

from __future__ import annotations

import math
import os
import re
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .fock import HilbertConfig, coherent_state, density, fock_state, kerr_propagator
from .thermal import CavityParams
from .dynamics import TransitProfile, phi0_of, theta_of
from .reservoir import ReservoirConfig, micromaser_amplitude, run_trajectory
from . import metrics as met

__all__ = [
    "AnalysisSpec",
    "ConfigError",
    "PRESET_NAMES",
    "ScenarioConfig",
    "build_config",
    "ideal_target",
    "parse_config_text",
    "preset",
    "run_scenario",
    "serialize_config",
    "state_from_text",
    "state_to_text",
    "sweep_scenario",
    "with_override",
]


class ConfigError(ValueError):
    """Raised for malformed configuration text, keys, values, or files."""


@dataclass(frozen=True)
class AnalysisSpec:
    """Which analyses a scenario runs on its final state.

    wigner_grid is (xmin, xmax, step) applied to both quadrature axes, or
    None to skip the map.  cat_k >= 2 requests a coherent-component fit of
    that order.  The squeezing flag marks quadrature squeezing as the
    scenario's figure of merit; the value is reported in every summary
    regardless since it is closed-form cheap.
    """

    wigner_grid: tuple[float, float, float] | None = (-3.5, 3.5, 0.07)
    cat_k: int = 0
    squeezing: bool = False

    def __post_init__(self):
        if self.wigner_grid is not None:
            _check_grid(*self.wigner_grid)
        if self.cat_k != 0 and self.cat_k < 2:
            raise ValueError("cat_k must be 0 (off) or >= 2")


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    hilbert: HilbertConfig
    reservoir: ReservoirConfig
    analysis: AnalysisSpec
    out_dir: str

    @property
    def profile(self) -> TransitProfile:
        return self.reservoir.profile


# ---------------------------------------------------------------------------
# value grammar

_TWO_PI = 2 * math.pi

_NUMBER_UNIT_RE = re.compile(
    r"^\s*([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)?\s*([A-Za-z/0]+)?\s*$"
)

_UNIT_TABLES = {
    "time": {None: 1.0, "s": 1.0, "ms": 1e-3, "us": 1e-6},
    "length": {None: 1.0, "m": 1.0, "mm": 1e-3},
    "velocity": {None: 1.0, "m/s": 1.0},
    "angle": {None: 1.0, "pi": math.pi},
    "angfreq": {None: 1.0, "Hz": _TWO_PI, "kHz": _TWO_PI * 1e3},
    "float": {None: 1.0},
}

_BOOL_WORDS = {"on": True, "true": True, "off": False, "false": False}

# sentinel factor for detunings declared relative to the Rabi coupling
_OMEGA0_REL = "omega0"


def parse_scalar(kind: str, text: str):
    """Parse one numeric config value; returns a float, or
    (_OMEGA0_REL, factor) when the value must be resolved against omega0."""
    m = _NUMBER_UNIT_RE.match(text)
    if m is None:
        raise ConfigError(f"cannot parse value {text!r}")
    num_s, unit = m.group(1), m.group(2)
    if num_s is None and unit != "pi":
        raise ConfigError(f"cannot parse value {text!r}")
    num = 1.0 if num_s is None else float(num_s)
    if kind == "angfreq" and unit == _OMEGA0_REL:
        return (_OMEGA0_REL, num)
    table = _UNIT_TABLES[kind]
    if unit not in table:
        raise ConfigError(f"unit {unit!r} not valid for a {kind} value")
    return num * table[unit]


def _parse_bool(text: str) -> bool:
    try:
        return _BOOL_WORDS[text.strip().lower()]
    except KeyError:
        raise ConfigError(f"expected on/off/true/false, got {text!r}") from None


def _parse_int(text: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise ConfigError(f"expected an integer, got {text!r}") from None


def parse_grid(text: str) -> tuple[float, float, float]:
    parts = text.strip().split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid spec must be XMIN:XMAX:STEP, got {text!r}")
    try:
        xmin, xmax, step = (float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"grid spec must be numeric, got {text!r}") from None
    _check_grid(xmin, xmax, step)
    return (xmin, xmax, step)


# 1001^2 Wigner points take about 60 MB and 4 s at n_max 60
_MAX_AXIS_POINTS = 1001


def _check_grid(xmin: float, xmax: float, step: float) -> None:
    if not (xmax > xmin and step > 0):
        raise ConfigError("grid needs xmax > xmin and step > 0")
    # an infinite bound or step, or a span that overflows, has no point count
    if not (math.isfinite(step) and math.isfinite((xmax - xmin) / step)):
        raise ConfigError(f"grid bounds and step must be finite, got {xmin}:{xmax}:{step}")
    if round((xmax - xmin) / step) + 1 > _MAX_AXIS_POINTS:
        raise ConfigError(
            f"grid {xmin}:{xmax}:{step} has more than {_MAX_AXIS_POINTS} points per axis"
        )


def grid_axes(spec: tuple[float, float, float]) -> np.ndarray:
    """Inclusive axis for an XMIN:XMAX:STEP spec; the count is rounded so
    an exactly commensurate step lands on xmax."""
    xmin, xmax, step = spec
    n = int(round((xmax - xmin) / step)) + 1
    return np.linspace(xmin, xmin + step * (n - 1), n)


# key -> kind; the single source of truth for the config namespace
KEYS = {
    "scenario.name": "str",
    "scenario.preset": "str",
    "hilbert.n_max": "int",
    "profile.omega0": "angfreq",
    "profile.w": "length",
    "profile.v": "velocity",
    "profile.t_r": "time",
    "profile.delta": "angfreq",
    "profile.window_factor": "float",
    "reservoir.u": "angle",
    "reservoir.p_at": "float",
    "reservoir.n_samples": "int",
    "reservoir.mixing_mode": "str",
    "reservoir.seed": "int",
    "reservoir.backend": "str",
    "reservoir.loss": "bool",
    "cavity.t_c": "time",
    "cavity.n_t": "float",
    "analysis.wigner_grid": "grid",
    "analysis.cat_k": "int",
    "analysis.squeezing": "bool",
    "output.dir": "str",
}

OMEGA0_DEFAULT = _TWO_PI * 50e3

_DEFAULTS = {
    "scenario.name": "custom",
    "hilbert.n_max": 60,
    "profile.omega0": OMEGA0_DEFAULT,
    "profile.w": 6e-3,
    "profile.window_factor": 1.5,
    "reservoir.p_at": 0.3,
    "reservoir.n_samples": 200,
    "reservoir.mixing_mode": "deterministic",
    "reservoir.seed": None,
    "reservoir.backend": "numeric",
    "reservoir.loss": True,
    "cavity.t_c": 0.13,
    "cavity.n_t": 0.05,
    "analysis.wigner_grid": (-3.5, 3.5, 0.07),
    "analysis.cat_k": 0,
    "analysis.squeezing": False,
    "output.dir": None,
}

# every preset needs these four; defaults cover the rest
_REQUIRED = ("profile.v", "profile.t_r", "profile.delta", "reservoir.u")

_PRESETS = {
    "cat2": {
        "profile.v": 70.0,
        "profile.t_r": 5e-6,
        "profile.delta": 2.2 * OMEGA0_DEFAULT,
        "reservoir.u": 0.45 * math.pi,
        "analysis.cat_k": 2,
    },
    "cat3": {
        "profile.v": 70.0,
        "profile.t_r": 5e-6,
        "profile.delta": 3.7 * OMEGA0_DEFAULT,
        "reservoir.u": 0.45 * math.pi,
        "analysis.cat_k": 3,
    },
    "squeeze": {
        "profile.v": 300.0,
        "profile.t_r": 1.7e-6,
        "profile.delta": 70.0 * OMEGA0_DEFAULT,
        "reservoir.u": 0.5 * math.pi,
        "analysis.wigner_grid": (-6.0, 6.0, 0.12),
        "analysis.squeezing": True,
    },
    "banana": {
        "profile.v": 150.0,
        "profile.t_r": 5e-6,
        "profile.delta": 7.0 * OMEGA0_DEFAULT,
        "reservoir.u": 0.5 * math.pi,
    },
}

PRESET_NAMES = tuple(_PRESETS)


def parse_config_text(text: str) -> dict[str, str]:
    """Parse config text to a raw {key: value-string} dict.  Values stay
    unresolved strings so omega0-relative detunings can be fixed up after
    all overrides are merged."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = body.partition("=")
        key, value = key.strip(), value.strip()
        if key not in KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        raw[key] = value
    return raw


def _resolve(key: str, text: str, omega0: float):
    kind = KEYS[key]
    if kind == "str":
        return text.strip()
    if kind == "bool":
        return _parse_bool(text)
    if kind == "int":
        return _parse_int(text)
    if kind == "grid":
        return parse_grid(text)
    try:
        value = parse_scalar(kind, text)
    except ConfigError as err:
        raise ConfigError(f"{key}: {err}") from None
    if isinstance(value, tuple):
        if key == "profile.omega0":
            raise ConfigError("profile.omega0 cannot be given in units of itself")
        return value[1] * omega0
    return value


def build_config(
    raw: dict[str, str], preset_name: str | None = None
) -> ScenarioConfig:
    """Resolve a raw key/value-string mapping over a preset base (or the bare
    defaults) into a ScenarioConfig."""
    for key in raw:
        if key not in KEYS:
            raise ConfigError(f"unknown key {key!r}")
    raw = dict(raw)
    if preset_name is None:
        preset_name = raw.pop("scenario.preset", None)
    else:
        raw.pop("scenario.preset", None)

    values = dict(_DEFAULTS)
    if preset_name is not None:
        try:
            values.update(_PRESETS[preset_name])
        except KeyError:
            raise ConfigError(
                f"unknown preset {preset_name!r}; choose from {', '.join(PRESET_NAMES)}"
            ) from None
        values["scenario.name"] = preset_name

    if "profile.omega0" in raw:
        values["profile.omega0"] = _resolve(
            "profile.omega0", raw.pop("profile.omega0"), math.nan
        )
    omega0 = values["profile.omega0"]
    for key, text in raw.items():
        values[key] = _resolve(key, text, omega0)

    missing = [k for k in _REQUIRED if k not in values]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")

    name = values["scenario.name"]
    try:
        hilbert = HilbertConfig(n_max=values["hilbert.n_max"])
        profile = TransitProfile(
            omega0=values["profile.omega0"],
            w=values["profile.w"],
            v=values["profile.v"],
            delta_disp=values["profile.delta"],
            t_r=values["profile.t_r"],
            window_factor=values["profile.window_factor"],
        )
        cavity = (
            CavityParams(t_c=values["cavity.t_c"], n_t=values["cavity.n_t"])
            if values["reservoir.loss"]
            else None
        )
        reservoir = ReservoirConfig(
            profile=profile,
            u=values["reservoir.u"],
            cavity=cavity,
            p_at=values["reservoir.p_at"],
            n_samples=values["reservoir.n_samples"],
            mixing_mode=values["reservoir.mixing_mode"],
            seed=values["reservoir.seed"],
            backend=values["reservoir.backend"],
        )
        analysis = AnalysisSpec(
            wigner_grid=values["analysis.wigner_grid"],
            cat_k=values["analysis.cat_k"],
            squeezing=values["analysis.squeezing"],
        )
    except ValueError as err:
        raise ConfigError(str(err)) from err
    out_dir = values["output.dir"] or os.path.join("runs", name)
    return ScenarioConfig(
        name=name,
        hilbert=hilbert,
        reservoir=reservoir,
        analysis=analysis,
        out_dir=out_dir,
    )


def preset(name: str) -> ScenarioConfig:
    """One of the four built-in scenarios: cat2, cat3, squeeze, banana."""
    return build_config({}, preset_name=name)


def config_to_raw(config: ScenarioConfig) -> dict[str, str]:
    """Canonical raw mapping: bare numbers in internal units, exact repr."""
    r = config.reservoir
    p = r.profile
    a = config.analysis
    raw = {
        "scenario.name": config.name,
        "hilbert.n_max": repr(config.hilbert.n_max),
        "profile.omega0": repr(p.omega0),
        "profile.w": repr(p.w),
        "profile.v": repr(p.v),
        "profile.t_r": repr(p.t_r),
        "profile.delta": repr(p.delta_disp),
        "profile.window_factor": repr(p.window_factor),
        "reservoir.u": repr(r.u),
        "reservoir.p_at": repr(r.p_at),
        "reservoir.n_samples": repr(r.n_samples),
        "reservoir.mixing_mode": r.mixing_mode,
        "reservoir.backend": r.backend,
        "reservoir.loss": "on" if r.cavity is not None else "off",
        "analysis.cat_k": repr(a.cat_k),
        "analysis.squeezing": "on" if a.squeezing else "off",
        "output.dir": config.out_dir,
    }
    if r.seed is not None:
        raw["reservoir.seed"] = repr(r.seed)
    if r.cavity is not None:
        raw["cavity.t_c"] = repr(r.cavity.t_c)
        raw["cavity.n_t"] = repr(r.cavity.n_t)
    if a.wigner_grid is not None:
        raw["analysis.wigner_grid"] = ":".join(repr(g) for g in a.wigner_grid)
    return raw


def serialize_config(config: ScenarioConfig) -> str:
    lines = [f"{key} = {value}" for key, value in config_to_raw(config).items()]
    return "\n".join(lines) + "\n"


def with_override(config: ScenarioConfig, key: str, value: str) -> ScenarioConfig:
    raw = config_to_raw(config)
    raw[key] = value
    return build_config(raw)


def ideal_target(config: ScenarioConfig) -> np.ndarray:
    """Loss-free pointer state the scenario aims at: the per-transit Kerr map
    applied to the coherent state the resonant exchange alone would pump."""
    cfg = config.hilbert
    p = config.profile
    alpha = micromaser_amplitude(config.reservoir.u, theta_of(p))
    ket = coherent_state(alpha, cfg)
    if p.delta_disp > 0:
        ket = kerr_propagator(phi0_of(p, segment="second"), cfg) @ ket
    return ket


# ---------------------------------------------------------------------------
# artifacts


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def state_to_text(rho: np.ndarray) -> str:
    dim = rho.shape[0]
    lines = [f"# dim: {dim}"]
    for row in rho:
        cells = []
        for z in row:
            cells.append("%.17g,%.17g" % (z.real, z.imag))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def state_from_text(text: str) -> np.ndarray:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("# dim:"):
        raise ConfigError("state file must start with a '# dim: N' header")
    try:
        dim = int(lines[0].split(":", 1)[1])
    except ValueError:
        raise ConfigError("unreadable dimension in state file header") from None
    if dim < 2:
        # HilbertConfig needs n_max >= 1
        raise ConfigError(f"state file dimension must be >= 2, got {dim}")
    rows = lines[1:]
    if len(rows) != dim:
        raise ConfigError(f"state file promises {dim} rows, has {len(rows)}")
    rho = np.empty((dim, dim), dtype=complex)
    for i, row in enumerate(rows):
        try:
            cells = np.array([float(c) for c in row.split(",")])
        except ValueError as err:
            raise ConfigError(f"state file row {i}: {err}") from None
        if cells.size != 2 * dim:
            raise ConfigError(f"state file row {i} has {cells.size} numbers, "
                              f"expected {2 * dim}")
        rho[i] = cells[0::2] + 1j * cells[1::2]
    return rho


def _format_summary(config: ScenarioConfig, summary: dict) -> str:
    lines = [f"name = {config.name}"]
    for key in (
        "n_samples",
        "nbar",
        "purity",
        "fidelity",
        "squeezing_db",
        "truncation_peak",
        "wall_time_s",
    ):
        lines.append(f"{key} = {summary[key]!r}")
    if summary.get("squeezing_angle") is not None:
        lines.append(f"squeezing_angle = {summary['squeezing_angle']!r}")
    if config.reservoir.seed is not None:
        lines.append(f"seed = {config.reservoir.seed}")
    if summary.get("cat_alpha") is not None:
        lines.append(f"cat_alpha = {summary['cat_alpha']!r}")
        lines.append(f"cat_phases = {summary['cat_phases']!r}")
    lines.append("")
    lines.append("[config]")
    lines.append(serialize_config(config).rstrip("\n"))
    return "\n".join(lines) + "\n"


def run_scenario(
    config: ScenarioConfig, out_dir: str | os.PathLike | None = None
) -> dict:
    """Run one scenario end to end and write its artifacts.

    Writes metrics.csv, state_final.txt, summary.txt, and (when a grid is
    configured) wigner_final.txt into the output directory, all through
    temp-file-plus-rename so an aborted run leaves no partial artifacts.
    Returns the summary as a dict.  When a coherent-component fit is
    configured, the fidelity column of metrics.csv is filled in after the
    run against the best-fit reference of the steady state; state snapshots
    are kept for that purpose only while n_samples stays moderate.
    """
    started = time.perf_counter()
    out = Path(out_dir if out_dir is not None else config.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    cfg = config.hilbert
    rho0 = density(fock_state(0, cfg))
    want_fit = config.analysis.cat_k >= 2
    states: list[np.ndarray] | None = (
        [] if want_fit and config.reservoir.n_samples <= 2000 else None
    )
    observer = None
    if states is not None:
        def observer(_j, rho):
            states.append(rho)

    traj = run_trajectory(rho0, config.reservoir, observer=observer)
    rho = traj.final_state

    nbar = met.mean_photon(rho)
    pur = met.purity(rho)
    sq_db, sq_angle = met.squeezing_db(rho)
    fit = met.fit_cat(rho, config.analysis.cat_k) if want_fit else None

    records = traj.records
    if fit is not None and states is not None:
        records = [
            replace(rec, fidelity=met.overlap_fidelity(state, fit.reference))
            for rec, state in zip(records, states)
        ]

    summary = {
        "name": config.name,
        "n_samples": config.reservoir.n_samples,
        "nbar": nbar,
        "purity": pur,
        "fidelity": fit.fidelity if fit is not None else math.nan,
        "squeezing_db": sq_db,
        "squeezing_angle": sq_angle if config.analysis.squeezing else None,
        "truncation_peak": traj.truncation_peak,
        "seed": config.reservoir.seed,
        "cat_alpha": fit.alpha if fit is not None else None,
        "cat_phases": tuple(fit.rel_phases) if fit is not None else None,
        "out_dir": str(out),
    }

    _atomic_write(out / "metrics.csv", met.records_to_csv(records))
    _atomic_write(out / "state_final.txt", state_to_text(rho))
    if config.analysis.wigner_grid is not None:
        axes = grid_axes(config.analysis.wigner_grid)
        grid = met.wigner(rho, axes, axes)
        _atomic_write(out / "wigner_final.txt", met.wigner_to_text(grid))
    summary["wall_time_s"] = time.perf_counter() - started
    _atomic_write(out / "summary.txt", _format_summary(config, summary))
    return summary


SWEEP_HEADER = "index,param,value,nbar,purity,fidelity,squeezing_db,truncation_peak"


def sweep_scenario(
    config: ScenarioConfig,
    param: str,
    values: list[str],
    out_dir: str | os.PathLike | None = None,
    max_workers: int = 1,
) -> list[dict]:
    """Run the scenario once per parameter value and write a combined CSV.

    Rows keep the input order.  Workers share nothing; each value writes its
    own artifact directory value_<i>/ under the sweep output directory.
    """
    if param not in KEYS:
        raise ConfigError(f"unknown sweep parameter {param!r}")
    if not values:
        raise ConfigError("sweep needs at least one value")
    # every config is built before any trajectory runs, so a bad value
    # fails the sweep before it writes anything
    configs = [with_override(config, param, value) for value in values]
    out = Path(out_dir if out_dir is not None else config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dirs = [out / f"value_{i}" for i in range(len(values))]
    if max_workers > 1:
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            summaries = list(pool.map(run_scenario, configs, dirs))
    else:
        summaries = list(map(run_scenario, configs, dirs))

    lines = [SWEEP_HEADER]
    for i, (value, summary) in enumerate(zip(values, summaries)):
        lines.append(
            "%d,%s,%s,%.9g,%.9g,%.9g,%.9g,%.9g"
            % (
                i,
                param,
                value,
                summary["nbar"],
                summary["purity"],
                summary["fidelity"],
                summary["squeezing_db"],
                summary["truncation_peak"],
            )
        )
    _atomic_write(out / "sweep.csv", "\n".join(lines) + "\n")
    return summaries
