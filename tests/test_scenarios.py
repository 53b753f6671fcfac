"""Config grammar, presets, the scenario runner, and sweeps."""

import math
import re

import numpy as np
import pytest

import cavres.metrics as met
import cavres.scenarios as sc
from cavres.dynamics import theta_of
from cavres.fock import TruncationError


def tiny_raw(**extra):
    base = {
        "scenario.name": "tiny",
        "hilbert.n_max": "15",
        "profile.v": "70",
        "profile.t_r": "5 us",
        "profile.delta": "2.2 omega0",
        "reservoir.u": "0.45pi",
        "reservoir.n_samples": "6",
        "analysis.wigner_grid": "-1:1:0.5",
    }
    base.update(extra)
    return base


class TestPresets:
    def test_known_names(self):
        assert sc.PRESET_NAMES == ("cat2", "cat3", "squeeze", "banana")
        choices = "cat2, cat3, squeeze, banana"
        with pytest.raises(
            sc.ConfigError, match=exact(f"unknown preset 'cat9'; choose from {choices}")
        ):
            sc.preset("cat9")

    def test_shared_constants(self):
        for name in sc.PRESET_NAMES:
            c = sc.preset(name)
            assert c.profile.omega0 == pytest.approx(2 * math.pi * 50e3)
            assert c.profile.w == 6e-3
            assert c.reservoir.cavity.t_c == 0.13
            assert c.reservoir.cavity.n_t == 0.05
            assert c.reservoir.p_at == 0.3
            assert c.reservoir.n_samples == 200
            assert c.hilbert.n_max == 60

    def test_cat2_transit_period(self):
        assert sc.preset("cat2").profile.t_i == pytest.approx(257e-6, rel=1e-3)

    def test_banana_transit_period(self):
        assert sc.preset("banana").profile.t_i == pytest.approx(120e-6, rel=1e-12)

    def test_squeeze_rabi_angle(self):
        theta = theta_of(sc.preset("squeeze").profile)
        assert theta / math.pi == pytest.approx(0.17, abs=5e-3)

    def test_per_preset_parameters(self):
        c2, c3 = sc.preset("cat2"), sc.preset("cat3")
        for c in (c2, c3):
            assert c.profile.v == 70.0
            assert c.profile.t_r == 5e-6
            assert c.reservoir.u == pytest.approx(0.45 * math.pi)
        assert c2.profile.delta_disp == pytest.approx(2.2 * c2.profile.omega0)
        assert c3.profile.delta_disp == pytest.approx(3.7 * c3.profile.omega0)
        assert c2.analysis.cat_k == 2 and c3.analysis.cat_k == 3
        sq = sc.preset("squeeze")
        assert (sq.profile.v, sq.profile.t_r) == (300.0, 1.7e-6)
        assert sq.profile.delta_disp == pytest.approx(70 * sq.profile.omega0)
        assert sq.reservoir.u == pytest.approx(math.pi / 2)
        ba = sc.preset("banana")
        assert (ba.profile.v, ba.profile.t_r) == (150.0, 5e-6)
        assert ba.profile.delta_disp == pytest.approx(7 * ba.profile.omega0)


# each malformed line and the message it must fail with
MALFORMED = {
    "profile.v = 70 mph": "profile.v: unit 'mph' not valid for a velocity value",
    "unknown.key = 3": "line 1: unknown key 'unknown.key'",
    "profile.omega0 = 2 omega0": "profile.omega0 cannot be given in units of itself",
    "profile.w = 2.2 omega0": "profile.w: unit 'omega0' not valid for a length value",
    "analysis.wigner_grid = 1:2": "grid spec must be XMIN:XMAX:STEP, got '1:2'",
    "analysis.wigner_grid = 2:1:0.5": "grid needs xmax > xmin and step > 0",
    "analysis.wigner_grid = -inf:inf:1": "grid bounds and step must be finite, got -inf:inf:1.0",
    "analysis.wigner_grid = 0:inf:1": "grid bounds and step must be finite, got 0.0:inf:1.0",
    "analysis.wigner_grid = 0:1:inf": "grid bounds and step must be finite, got 0.0:1.0:inf",
    "analysis.wigner_grid = nan:1:0.5": "grid needs xmax > xmin and step > 0",
    "analysis.wigner_grid = -1e308:1e308:1":
        "grid bounds and step must be finite, got -1e+308:1e+308:1.0",
    "analysis.wigner_grid = -3.5:3.5:0.001":
        "grid -3.5:3.5:0.001 has more than 1001 points per axis",
    "reservoir.loss = maybe": "expected on/off/true/false, got 'maybe'",
    "hilbert.n_max = twelve": "expected an integer, got 'twelve'",
    "reservoir.u =": "line 1: empty value for 'reservoir.u'",
    "profile.v 70": "line 1: expected 'key = value', got 'profile.v 70'",
}


def exact(message):
    """A pytest.raises pattern that matches this message and no other."""
    return f"^{re.escape(message)}$"


class TestGrammar:
    def test_unit_suffixes(self):
        raw = sc.parse_config_text(
            """
            # comment lines and blanks are skipped
            profile.v = 70 m/s
            profile.t_r = 5 us
            profile.delta = 110 kHz
            reservoir.u = 0.45pi
            profile.w = 6 mm
            cavity.t_c = 130 ms
            """
        )
        c = sc.build_config(raw)
        assert c.profile.v == 70.0
        assert c.profile.t_r == pytest.approx(5e-6, rel=1e-15)
        assert c.profile.delta_disp == pytest.approx(2 * math.pi * 110e3)
        assert c.reservoir.u == pytest.approx(0.45 * math.pi)
        assert c.profile.w == pytest.approx(6e-3, rel=1e-15)
        assert c.reservoir.cavity.t_c == pytest.approx(0.13, rel=1e-15)

    def test_omega0_relative_detuning(self):
        c = sc.build_config(tiny_raw())
        assert c.profile.delta_disp == pytest.approx(2.2 * c.profile.omega0)

    def test_omega0_relative_follows_override(self):
        c = sc.build_config(tiny_raw(**{"profile.omega0": "40 kHz"}))
        assert c.profile.omega0 == pytest.approx(2 * math.pi * 40e3)
        assert c.profile.delta_disp == pytest.approx(2.2 * c.profile.omega0)

    def test_bare_pi(self):
        c = sc.build_config(tiny_raw(**{"reservoir.u": "pi"}))
        assert c.reservoir.u == pytest.approx(math.pi)

    def test_loss_switch(self):
        assert sc.build_config(tiny_raw(**{"reservoir.loss": "off"})).reservoir.cavity is None
        assert sc.build_config(tiny_raw(**{"reservoir.loss": "on"})).reservoir.cavity is not None

    @pytest.mark.parametrize("line", list(MALFORMED))
    def test_rejects_malformed_lines(self, line):
        with pytest.raises(sc.ConfigError, match=exact(MALFORMED[line])):
            sc.build_config(sc.parse_config_text(line), preset_name="cat2")

    def test_analysis_spec_rejects_non_finite_grid(self):
        for grid in ((-math.inf, math.inf, 1.0), (0.0, 1.0, math.inf)):
            with pytest.raises(ValueError, match="finite"):
                sc.AnalysisSpec(wigner_grid=grid)

    def test_analysis_spec_bounds_grid_points(self):
        sc.AnalysisSpec(wigner_grid=(-5.0, 5.0, 0.01))  # 1001 points per axis
        with pytest.raises(ValueError, match="points per axis"):
            sc.AnalysisSpec(wigner_grid=(-5.0, 5.0, 0.00999))

    def test_cat_k_is_bounded(self):
        # the fit's phase grid has 8^(k-1) nodes; k = 7 would need about
        # 0.2 GB, so it fails as a config value, before anything is built
        for k in (0, 2, 6):
            assert sc.build_config(tiny_raw(**{"analysis.cat_k": str(k)})).analysis.cat_k == k
        message = exact("cat_k must be 0 (off) or from 2 to 6")
        for k in (1, 7, 9):
            with pytest.raises(sc.ConfigError, match=message):
                sc.build_config(tiny_raw(**{"analysis.cat_k": str(k)}))

    def test_rejects_duplicate_key(self):
        with pytest.raises(sc.ConfigError, match=exact("line 2: duplicate key 'profile.v'")):
            sc.parse_config_text("profile.v = 70\nprofile.v = 80")

    def test_missing_required_keys(self):
        missing = "profile.v, profile.t_r, profile.delta, reservoir.u"
        with pytest.raises(sc.ConfigError, match=exact(f"missing required keys: {missing}")):
            sc.build_config({})

    def test_preset_key_in_file(self):
        c = sc.build_config({"scenario.preset": "cat3", "hilbert.n_max": "20"})
        assert c.name == "cat3"
        assert c.hilbert.n_max == 20

    def test_constructor_violations_become_config_errors(self):
        with pytest.raises(sc.ConfigError):
            sc.build_config(tiny_raw(**{"reservoir.p_at": "1.5"}))
        with pytest.raises(sc.ConfigError):
            sc.build_config(tiny_raw(**{"profile.t_r": "1 s"}))


# every serialized key but reservoir.loss, away from its default: the text
# that sets it, in the form serialize_config writes, and the value it sets
EVERY_KEY = {
    "scenario.name": ("every-key", "every-key"),
    "hilbert.n_max": ("12", 12),
    "profile.omega0": ("300000.0", 300000.0),
    "profile.w": ("0.005", 0.005),
    "profile.v": ("71.0", 71.0),
    "profile.t_r": ("4e-06", 4e-06),
    "profile.delta": ("650000.0", 650000.0),
    "profile.window_factor": ("1.6", 1.6),
    "reservoir.u": ("1.2", 1.2),
    "reservoir.p_at": ("0.25", 0.25),
    "reservoir.n_samples": ("7", 7),
    "reservoir.mixing_mode": ("monte_carlo", "monte_carlo"),
    "reservoir.backend": ("analytic", "analytic"),
    "analysis.cat_k": ("3", 3),
    "analysis.squeezing": ("on", True),
    "output.dir": ("some/where", "some/where"),
    "reservoir.seed": ("5", 5),
    "cavity.t_c": ("0.2", 0.2),
    "cavity.n_t": ("0.1", 0.1),
    "analysis.wigner_grid": ("-2.0:2.0:0.5", (-2.0, 2.0, 0.5)),
}


def values_by_key(config):
    """Each key's value, read off the config's dataclass fields by hand."""
    r, p, a = config.reservoir, config.profile, config.analysis
    values = {
        "scenario.name": config.name,
        "hilbert.n_max": config.hilbert.n_max,
        "profile.omega0": p.omega0,
        "profile.w": p.w,
        "profile.v": p.v,
        "profile.t_r": p.t_r,
        "profile.delta": p.delta_disp,
        "profile.window_factor": p.window_factor,
        "reservoir.u": r.u,
        "reservoir.p_at": r.p_at,
        "reservoir.n_samples": r.n_samples,
        "reservoir.mixing_mode": r.mixing_mode,
        "reservoir.backend": r.backend,
        "reservoir.loss": r.cavity is not None,
        "analysis.cat_k": a.cat_k,
        "analysis.squeezing": a.squeezing,
        "output.dir": config.out_dir,
        "reservoir.seed": r.seed,
        "analysis.wigner_grid": a.wigner_grid,
    }
    if r.cavity is not None:
        values.update({"cavity.t_c": r.cavity.t_c, "cavity.n_t": r.cavity.n_t})
    return values


class TestRoundTrip:
    @pytest.mark.parametrize("name", sc.PRESET_NAMES)
    def test_presets(self, name):
        c = sc.preset(name)
        assert sc.build_config(sc.parse_config_text(sc.serialize_config(c))) == c

    def test_custom_with_seed_and_no_loss(self):
        c = sc.build_config(
            tiny_raw(
                **{
                    "reservoir.loss": "off",
                    "reservoir.seed": "42",
                    "reservoir.mixing_mode": "monte_carlo",
                    "output.dir": "some/dir",
                }
            )
        )
        assert sc.build_config(sc.parse_config_text(sc.serialize_config(c))) == c

    @pytest.mark.parametrize("loss", ["on", "off"])
    def test_every_key_away_from_its_default(self, loss):
        # loss off is the non-default, but it drops the cavity keys; with
        # loss on the other 20 keys are all set away from their defaults
        given = {key: text for key, (text, _) in EVERY_KEY.items()}
        want = {key: value for key, (_, value) in EVERY_KEY.items()}
        given["reservoir.loss"], want["reservoir.loss"] = loss, loss == "on"
        if loss == "off":
            for key in ("cavity.t_c", "cavity.n_t"):
                del given[key], want[key]
        assert len(given) == (21 if loss == "on" else 19)
        c = sc.build_config(given)
        assert values_by_key(c) == want
        defaults = values_by_key(sc.build_config(tiny_raw()))
        for key, value in want.items():
            if key != "reservoir.loss" or loss == "off":
                assert defaults[key] != value, key
        text = sc.serialize_config(c)
        assert sc.parse_config_text(text) == given
        assert sc.build_config(sc.parse_config_text(text)) == c

    def test_no_wigner_grid(self):
        c = sc.build_config(tiny_raw(**{"analysis.wigner_grid": "off"}))
        assert c.analysis.wigner_grid is None
        text = sc.serialize_config(c)
        assert "\nanalysis.wigner_grid = off\n" in text
        assert sc.build_config(sc.parse_config_text(text)) == c
        assert sc.with_override(c, "reservoir.u", "0.3pi").analysis.wigner_grid is None

    def test_with_override_changes_one_key(self):
        c = sc.preset("cat2")
        c2 = sc.with_override(c, "reservoir.u", "0.3pi")
        assert c2.reservoir.u == pytest.approx(0.3 * math.pi)
        assert c2.profile == c.profile


class TestGridAxes:
    def test_inclusive_endpoints(self):
        ax = sc.grid_axes((-3.5, 3.5, 0.07))
        assert len(ax) == 101
        assert ax[0] == -3.5
        assert ax[-1] == pytest.approx(3.5, abs=1e-12)

    def test_incommensurate_step_stays_near_xmax(self):
        ax = sc.grid_axes((0.0, 1.0, 0.3))
        assert len(ax) == 4
        assert ax[-1] == pytest.approx(0.9)


class TestStateText:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(3)
        rho = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        assert np.array_equal(sc.state_from_text(sc.state_to_text(rho)), rho)

    def test_cells_are_17g_pairs(self):
        # one %.17g cell per real and imaginary part: signed zeros, exact
        # zeros, subnormals and non-finite parts print as they did cell by cell
        rng = np.random.default_rng(4)
        rho = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        rho[0, :4] = [-0.0, -0.0j, 5e-324 - 1e-310j, complex(np.inf, np.nan)]
        for m in (rho, rho.real, rho[::2, 1::2]):
            want = "".join(
                ",".join("%.17g,%.17g" % (z.real, z.imag) for z in row) + "\n" for row in m
            )
            assert sc.state_to_text(m) == f"# dim: {m.shape[0]}\n" + want

    def test_cells_parse_as_float_does(self):
        # padding, underscores, signed zero, nan, inf and subnormals read as
        # float() reads them, cell by cell
        rows = [" 1.5,-0,nan,1_000", "-inf,1e-320,2.5e300,-7"]
        ref = np.array([[float(c) for c in row.split(",")] for row in rows])
        rho = sc.state_from_text("# dim: 2\n" + "\n".join(rows) + "\n")
        assert np.array_equal(rho, ref[:, 0::2] + 1j * ref[:, 1::2], equal_nan=True)

    def test_names_the_first_bad_row(self):
        # a cell that is no number is named before a wrong count in its row,
        # and a one-cell row is a wrong count, not a row filled with its value
        for rows, message in (
            (["1,0,abc,0", "0,0,1,0"], "row 0: could not convert string to float: 'abc'"),
            (["1,0,0,x,5", "0,0,1,0"], "row 0: could not convert string to float: 'x'"),
            (["1,0,0", "0,x,1,0"], "row 0 has 3 numbers, expected 4"),
            (["1,0,0,0", "0,0,1"], "row 1 has 3 numbers, expected 4"),
            (["1,0,0,0", "0.5"], "row 1 has 1 numbers, expected 4"),
        ):
            with pytest.raises(sc.ConfigError, match=f"^state file {re.escape(message)}$"):
                sc.state_from_text("# dim: 2\n" + "\n".join(rows) + "\n")

    def test_rejects_missing_header(self):
        with pytest.raises(sc.ConfigError):
            sc.state_from_text("1,2\n3,4\n")

    def test_rejects_wrong_row_count(self):
        text = sc.state_to_text(np.eye(3, dtype=complex))
        clipped = "\n".join(text.splitlines()[:-1])
        with pytest.raises(sc.ConfigError):
            sc.state_from_text(clipped)


def run_tiny(tmp_path, subdir, **extra):
    config = sc.build_config(tiny_raw(**extra))
    out = tmp_path / subdir
    summary = sc.run_scenario(config, out_dir=out)
    return config, out, summary


class TestRunScenario:
    def test_artifacts_written_atomically(self, tmp_path):
        _, out, summary = run_tiny(tmp_path, "r1", **{"analysis.cat_k": "2"})
        for name in ("metrics.csv", "state_final.txt", "wigner_final.txt",
                     "summary.txt"):
            assert (out / name).exists()
        assert not list(out.glob("*.tmp"))
        assert summary["nbar"] > 0
        assert 0 < summary["purity"] <= 1

    def test_failed_run_leaves_no_directory(self, tmp_path):
        # the output directory is made only once the artifacts are ready
        config = sc.build_config({"hilbert.n_max": "6", "reservoir.n_samples": "60"},
                                 preset_name="cat2")
        with pytest.raises(TruncationError):
            sc.run_scenario(config, out_dir=tmp_path / "runs" / "cat2")
        assert list(tmp_path.iterdir()) == []

    def test_metrics_rows_and_posthoc_fidelity(self, tmp_path):
        _, out, summary = run_tiny(tmp_path, "r2", **{"analysis.cat_k": "2"})
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0] == met.CSV_HEADER
        assert len(lines) == 1 + 7
        last_fid = float(lines[-1].split(",")[4])
        assert last_fid == pytest.approx(summary["fidelity"], abs=1e-9)
        assert not math.isnan(float(lines[1].split(",")[4]))

    def test_no_fit_leaves_fidelity_unset(self, tmp_path):
        _, out, summary = run_tiny(tmp_path, "r3")
        assert math.isnan(summary["fidelity"])
        first_row = (out / "metrics.csv").read_text().splitlines()[1]
        assert first_row.split(",")[4] == "nan"

    def test_zero_samples_yields_single_vacuum_row(self, tmp_path):
        _, out, _ = run_tiny(tmp_path, "r4", **{"reservoir.n_samples": "0"})
        lines = (out / "metrics.csv").read_text().splitlines()
        assert len(lines) == 2
        sample, time_s, nbar, purity = lines[1].split(",")[:4]
        assert (sample, time_s) == ("0", "0")
        assert float(nbar) == 0.0
        assert float(purity) == 1.0

    def test_deterministic_data_artifacts_byte_identical(self, tmp_path):
        _, out1, _ = run_tiny(tmp_path, "rep1", **{"analysis.cat_k": "2"})
        _, out2, _ = run_tiny(tmp_path, "rep2", **{"analysis.cat_k": "2"})
        for name in ("metrics.csv", "state_final.txt", "wigner_final.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_stored_state_matches_summary(self, tmp_path):
        _, out, summary = run_tiny(tmp_path, "r5")
        rho = sc.state_from_text((out / "state_final.txt").read_text())
        assert met.mean_photon(rho) == pytest.approx(summary["nbar"], abs=1e-12)

    def test_summary_echoes_config(self, tmp_path):
        config, out, _ = run_tiny(tmp_path, "r6")
        text = (out / "summary.txt").read_text()
        echo = text.split("[config]\n", 1)[1]
        assert sc.build_config(sc.parse_config_text(echo)) == config

    def test_squeezing_angle_only_when_requested(self, tmp_path):
        _, out_a, s_a = run_tiny(tmp_path, "r7", **{"analysis.squeezing": "on"})
        assert s_a["squeezing_angle"] is not None
        assert "squeezing_angle" in (out_a / "summary.txt").read_text()
        _, out_b, s_b = run_tiny(tmp_path, "r8")
        assert s_b["squeezing_angle"] is None
        assert "squeezing_angle" not in (out_b / "summary.txt").read_text()


class TestSweep:
    def test_rows_follow_input_order(self, tmp_path):
        config = sc.build_config(tiny_raw(**{"reservoir.n_samples": "3"}))
        out = tmp_path / "sw"
        sc.sweep_scenario(config, "reservoir.u", ["0.3pi", "0.45pi"], out_dir=out)
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == sc.SWEEP_HEADER
        assert len(lines) == 3
        assert lines[1].startswith("0,reservoir.u,0.3pi,")
        assert lines[2].startswith("1,reservoir.u,0.45pi,")
        assert (out / "value_0" / "metrics.csv").exists()
        assert (out / "value_1" / "metrics.csv").exists()

    def test_process_pool_writes_the_serial_artifacts(self, tmp_path):
        config = sc.build_config(tiny_raw(**{"reservoir.n_samples": "3"}))
        values = ["0.3pi", "0.45pi"]
        sc.sweep_scenario(config, "reservoir.u", values, out_dir=tmp_path / "serial")
        sc.sweep_scenario(
            config, "reservoir.u", values, out_dir=tmp_path / "pool", max_workers=2
        )
        serial, pool = tmp_path / "serial", tmp_path / "pool"
        assert (pool / "sweep.csv").read_bytes() == (serial / "sweep.csv").read_bytes()
        for i in range(len(values)):
            for name in ("metrics.csv", "state_final.txt", "wigner_final.txt"):
                want = (serial / f"value_{i}" / name).read_bytes()
                assert (pool / f"value_{i}" / name).read_bytes() == want
            # summary.txt differs in its wall time only
            want, got = (
                [line for line in (d / f"value_{i}" / "summary.txt").read_text().splitlines()
                 if not line.startswith("wall_time_s")]
                for d in (serial, pool)
            )
            assert got == want

    def test_single_value_single_run(self, tmp_path):
        config = sc.build_config(tiny_raw(**{"reservoir.n_samples": "2"}))
        out = tmp_path / "sw1"
        summaries = sc.sweep_scenario(config, "reservoir.p_at", ["0.3"], out_dir=out)
        assert len(summaries) == 1
        direct = sc.run_scenario(config, out_dir=tmp_path / "direct")
        assert summaries[0]["nbar"] == pytest.approx(direct["nbar"], abs=1e-12)

    def test_no_wigner_grid_writes_no_map(self, tmp_path):
        config = sc.build_config(
            tiny_raw(**{"reservoir.n_samples": "2", "analysis.wigner_grid": "off"})
        )
        out = tmp_path / "sw"
        sc.sweep_scenario(config, "reservoir.p_at", ["0.25"], out_dir=out)
        assert (out / "value_0" / "metrics.csv").exists()
        assert not (out / "value_0" / "wigner_final.txt").exists()
        echo = (out / "value_0" / "summary.txt").read_text().split("[config]\n", 1)[1]
        assert "analysis.wigner_grid = off" in echo.splitlines()

    def test_rejects_unknown_parameter(self, tmp_path):
        config = sc.build_config(tiny_raw())
        with pytest.raises(sc.ConfigError):
            sc.sweep_scenario(config, "bogus.key", ["1"], out_dir=tmp_path)

    @pytest.mark.parametrize("param, value", [
        ("scenario.preset", "cat3"), ("output.dir", "elsewhere"),
    ])
    def test_rejects_parameters_that_change_nothing(self, tmp_path, param, value):
        # every explicit key of the base config overrides a swept preset,
        # and each value writes to value_<i>/ whatever its output.dir
        config = sc.build_config(tiny_raw())
        with pytest.raises(sc.ConfigError):
            sc.sweep_scenario(config, param, [value], out_dir=tmp_path / "sw")
        assert not (tmp_path / "sw").exists()

    def test_rejects_bad_value_before_running(self, tmp_path):
        config = sc.build_config(tiny_raw())
        with pytest.raises(sc.ConfigError):
            sc.sweep_scenario(
                config, "reservoir.u", ["0.3pi", "nonsense units"], out_dir=tmp_path
            )
        assert not (tmp_path / "sweep.csv").exists()
