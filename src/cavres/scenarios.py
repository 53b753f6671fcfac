"""Scenario configuration, built-in presets, and the artifact-writing runner.

Configuration files are flat structured text, one ``section.key = value``
assignment per line, with ``#`` comments.  Values accept explicit unit
suffixes (``us``, ``ms``, ``s``, ``mm``, ``m``, ``m/s``, ``Hz``, ``kHz``),
``pi`` expressions for angles (``0.45pi``), and coupling-relative detunings
(``delta = 2.2 omega0``).  Frequencies given in Hz or kHz are ordinary
frequencies and are converted to angular units internally; bare numbers are
already in internal units (seconds, meters, radians, rad/s).

One ordered table, ``_TABLE``, holds each key's kind and default; a
required key's default is a sentinel that build_config reports as missing.
A key ``section.field`` sets that field of the section's dataclass
(HilbertConfig, TransitProfile, CavityParams, ReservoirConfig, AnalysisSpec),
and ``_FIELDS`` names the exceptions: ``profile.delta`` sets ``delta_disp``,
``reservoir.loss`` chooses between a CavityParams and None, and the
``scenario`` and ``output`` keys set no dataclass field.  Parsing, building
and serialization all walk that table, so a new key is one line in it.

Precedence, lowest to highest: built-in defaults, preset base, config file,
``--set`` overrides, dedicated flags.  Serialization emits bare numbers in
internal units, in table order, so that ``parse(serialize(config)) ==
config`` exactly; a config without a Wigner grid writes
``analysis.wigner_grid = off``.
"""

from __future__ import annotations

import math
import os
import re
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .fock import HilbertConfig, density, fock_state
from .thermal import CavityParams
from .dynamics import TransitProfile
from .reservoir import ReservoirConfig, run_trajectory
from . import metrics as met

__all__ = [
    "AnalysisSpec",
    "ConfigError",
    "PRESET_NAMES",
    "ScenarioConfig",
    "build_config",
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
    None (``off`` in a config) to skip the map.  cat_k from 2 to
    metrics._CAT_K_MAX requests a coherent-component fit of that order.
    The squeezing flag marks quadrature squeezing as the scenario's figure
    of merit; the value is reported in every summary regardless since it is
    closed-form cheap.
    """

    wigner_grid: tuple[float, float, float] | None = (-3.5, 3.5, 0.07)
    cat_k: int = 0
    squeezing: bool = False

    def __post_init__(self):
        if self.wigner_grid is not None:
            _check_grid(*self.wigner_grid)
        if self.cat_k != 0 and not 2 <= self.cat_k <= met._CAT_K_MAX:
            raise ValueError(f"cat_k must be 0 (off) or from 2 to {met._CAT_K_MAX}")


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


def parse_scalar(key: str, text: str, omega0: float | None) -> float:
    """Parse the numeric value of one key to internal units.  An ``omega0``
    unit multiplies omega0, which is None while omega0 itself is parsed."""
    kind = KEYS[key]
    m = _NUMBER_UNIT_RE.match(text)
    if m is None or (m.group(1) is None and m.group(2) != "pi"):
        raise ConfigError(f"{key}: cannot parse value {text!r}")
    num_s, unit = m.groups()
    num = 1.0 if num_s is None else float(num_s)
    if kind == "angfreq" and unit == "omega0":
        if omega0 is None:
            raise ConfigError(f"{key} cannot be given in units of itself")
        return num * omega0
    table = _UNIT_TABLES[kind]
    if unit not in table:
        raise ConfigError(f"{key}: unit {unit!r} not valid for a {kind} value")
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


OMEGA0_DEFAULT = _TWO_PI * 50e3

# the default of a key that every config must set
_NO_DEFAULT = object()

# The config namespace, key -> (kind, default), in the order serialize_config
# writes it; keys whose value may be None come last.  A key section.field
# sets that field of the section's dataclass, except as _FIELDS says.
_TABLE = {
    "scenario.name": ("str", "custom"),
    "hilbert.n_max": ("int", 60),
    "profile.omega0": ("angfreq", OMEGA0_DEFAULT),
    "profile.w": ("length", 6e-3),
    "profile.v": ("velocity", _NO_DEFAULT),
    "profile.t_r": ("time", _NO_DEFAULT),
    "profile.delta": ("angfreq", _NO_DEFAULT),
    "profile.window_factor": ("float", 1.5),
    "reservoir.u": ("angle", _NO_DEFAULT),
    "reservoir.p_at": ("float", 0.3),
    "reservoir.n_samples": ("int", 200),
    "reservoir.mixing_mode": ("str", "deterministic"),
    "reservoir.backend": ("str", "numeric"),
    "reservoir.loss": ("bool", True),
    "analysis.cat_k": ("int", 0),
    "analysis.squeezing": ("bool", False),
    "output.dir": ("str", None),
    "reservoir.seed": ("int", None),
    "cavity.t_c": ("time", 0.13),
    "cavity.n_t": ("float", 0.05),
    "analysis.wigner_grid": ("grid", (-3.5, 3.5, 0.07)),
    "scenario.preset": ("str", None),
}

# keys whose field is not named after them; None sets no dataclass field
# (reservoir.loss chooses between CavityParams(**cavity keys) and None)
_FIELDS = {
    "profile.delta": "delta_disp",
    "reservoir.loss": None,
    "scenario.name": None,
    "scenario.preset": None,
    "output.dir": None,
}

# key -> kind, the view that parsing and the sweep read
KEYS = {key: kind for key, (kind, _) in _TABLE.items()}


def _field(key: str) -> tuple[str, str | None]:
    section, _, name = key.partition(".")
    return section, _FIELDS.get(key, name)


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


def _resolve(key: str, text: str, omega0: float | None):
    kind = KEYS[key]
    if kind == "str":
        return text.strip()
    if kind == "bool":
        return _parse_bool(text)
    if kind == "int":
        return _parse_int(text)
    if kind == "grid":
        return None if text.strip() == "off" else parse_grid(text)
    return parse_scalar(key, text, omega0)


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

    values = {key: default for key, (_, default) in _TABLE.items()}
    if preset_name is not None:
        try:
            values.update(_PRESETS[preset_name])
        except KeyError:
            raise ConfigError(
                f"unknown preset {preset_name!r}; choose from {', '.join(PRESET_NAMES)}"
            ) from None
        values["scenario.name"] = preset_name

    if "profile.omega0" in raw:
        values["profile.omega0"] = _resolve("profile.omega0", raw.pop("profile.omega0"), None)
    for key, text in raw.items():
        values[key] = _resolve(key, text, values["profile.omega0"])

    missing = [key for key, value in values.items() if value is _NO_DEFAULT]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")

    fields: dict[str, dict] = {}
    for key, value in values.items():
        section, field = _field(key)
        if field is not None:
            fields.setdefault(section, {})[field] = value
    name = values["scenario.name"]
    try:
        hilbert = HilbertConfig(**fields["hilbert"])
        profile = TransitProfile(**fields["profile"])
        cavity = CavityParams(**fields["cavity"]) if values["reservoir.loss"] else None
        reservoir = ReservoirConfig(profile=profile, cavity=cavity, **fields["reservoir"])
        analysis = AnalysisSpec(**fields["analysis"])
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
    """Canonical raw mapping in table order: bare numbers in internal units,
    exact repr.  A value of None is left out, but no Wigner grid is off."""
    r = config.reservoir
    owners = {"hilbert": config.hilbert, "profile": r.profile, "cavity": r.cavity,
              "reservoir": r, "analysis": config.analysis}
    values = {"scenario.name": config.name, "reservoir.loss": r.cavity is not None,
              "output.dir": config.out_dir}
    raw = {}
    for key, kind in KEYS.items():
        section, field = _field(key)
        if field is None:
            value = values.get(key)
        else:
            # an ideal cavity has no cavity keys
            owner = owners[section]
            value = None if owner is None else getattr(owner, field)
        if kind == "grid":
            raw[key] = "off" if value is None else ":".join(map(repr, value))
        elif value is None:
            continue
        elif kind == "str":
            raw[key] = value
        elif kind == "bool":
            raw[key] = "on" if value else "off"
        else:
            raw[key] = repr(value)
    return raw


def serialize_config(config: ScenarioConfig) -> str:
    lines = [f"{key} = {value}" for key, value in config_to_raw(config).items()]
    return "\n".join(lines) + "\n"


def with_override(config: ScenarioConfig, key: str, value: str) -> ScenarioConfig:
    """config with one key set to value."""
    raw = config_to_raw(config)
    raw[key] = value
    return build_config(raw)


# ---------------------------------------------------------------------------
# artifacts


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def state_to_text(rho: np.ndarray) -> str:
    """One header line, then per row of rho its entries' real and imaginary
    parts as comma-separated %.17g cells, one % per row."""
    dim = rho.shape[0]
    cells = np.empty((dim, dim, 2))
    cells[..., 0], cells[..., 1] = rho.real, rho.imag
    row_format = ",".join(["%.17g"] * (2 * dim))
    rows = [row_format % tuple(row) for row in cells.reshape(dim, -1).tolist()]
    return "\n".join([f"# dim: {dim}", *rows]) + "\n"


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
    values = np.empty((dim, 2 * dim))
    for i, row in enumerate(rows):
        cells = row.split(",")
        if len(cells) == 2 * dim:
            try:
                # numpy reads each cell as float() does, in one call per row
                values[i] = cells
                continue
            except ValueError:
                pass
        # a cell that is no number, or a wrong count: float() names the cell
        try:
            cells = [float(c) for c in cells]
        except ValueError as err:
            raise ConfigError(f"state file row {i}: {err}") from None
        raise ConfigError(f"state file row {i} has {len(cells)} numbers, "
                          f"expected {2 * dim}")
    return values[:, 0::2] + 1j * values[:, 1::2]


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
        # the final state's own record holds both
        "nbar": traj.records[-1].n_bar,
        "purity": traj.records[-1].purity,
        "fidelity": fit.fidelity if fit is not None else math.nan,
        "squeezing_db": sq_db,
        "squeezing_angle": sq_angle if config.analysis.squeezing else None,
        "truncation_peak": traj.truncation_peak,
        "seed": config.reservoir.seed,
        "cat_alpha": fit.alpha if fit is not None else None,
        "cat_phases": tuple(fit.rel_phases) if fit is not None else None,
        "out_dir": str(out),
    }

    # made only now, so a run that fails leaves no directory behind
    out.mkdir(parents=True, exist_ok=True)
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
    if param in ("scenario.preset", "output.dir"):
        # a preset under the base config's explicit keys, and an output
        # directory under value_<i>/, would both rerun the base config
        raise ConfigError(f"{param} cannot be swept")
    if not values:
        raise ConfigError("sweep needs at least one value")
    # every config is built before any trajectory runs, so a bad value
    # fails the sweep before it writes anything
    configs = [with_override(config, param, value) for value in values]
    out = Path(out_dir if out_dir is not None else config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dirs = [out / f"value_{i}" for i in range(len(values))]
    if max_workers > 1:
        # imported here: multiprocessing would add to every `import cavres`
        from concurrent.futures import ProcessPoolExecutor

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
