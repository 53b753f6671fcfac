"""Command line surface: flags, exit codes, artifact plumbing."""

import subprocess
import sys

import numpy as np
import pytest

import cavres.cli as cli
import cavres.scenarios as sc

TINY = [
    "--set", "hilbert.n_max=15",
    "--set", "reservoir.n_samples=4",
    "--set", "analysis.wigner_grid=-1:1:0.5",
    "--set", "analysis.cat_k=0",
]


def write_tiny_config(path):
    path.write_text(
        "profile.v = 70 m/s\n"
        "profile.t_r = 5 us\n"
        "profile.delta = 2.2 omega0\n"
        "reservoir.u = 0.45pi\n"
        "hilbert.n_max = 15\n"
        "reservoir.n_samples = 3\n"
        "analysis.wigner_grid = -1:1:0.5\n"
    )
    return path


class TestRun:
    def test_preset_run_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "r"
        code = cli.main(["run", "--preset", "cat2", *TINY, "--out", str(out)])
        assert code == 0
        for name in ("metrics.csv", "state_final.txt", "wigner_final.txt",
                     "summary.txt"):
            assert (out / name).exists()
        stdout = capsys.readouterr().out
        assert "nbar = " in stdout
        assert str(out) in stdout

    def test_config_file_run(self, tmp_path):
        cfg = write_tiny_config(tmp_path / "tiny.cfg")
        out = tmp_path / "r"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "metrics.csv").exists()

    def test_set_overrides_config_file(self, tmp_path):
        cfg = write_tiny_config(tmp_path / "tiny.cfg")
        out = tmp_path / "r"
        code = cli.main([
            "run", "--config", str(cfg), "--set", "reservoir.n_samples=0",
            "--out", str(out),
        ])
        assert code == 0
        assert len((out / "metrics.csv").read_text().splitlines()) == 2

    def test_no_loss_and_seed_echoed(self, tmp_path):
        out = tmp_path / "r"
        code = cli.main([
            "run", "--preset", "cat2", *TINY, "--no-loss", "--seed", "9",
            "--out", str(out),
        ])
        assert code == 0
        summary = (out / "summary.txt").read_text()
        assert "reservoir.loss = off" in summary
        assert "seed = 9" in summary

    def test_seed_flag_completes_a_monte_carlo_config(self, tmp_path):
        # the flags join the --set entries before the one config build, so a
        # Monte-Carlo run may take its seed from --seed
        out = tmp_path / "r"
        code = cli.main([
            "run", "--preset", "cat2", *TINY,
            "--set", "reservoir.mixing_mode=monte_carlo", "--seed", "7",
            "--out", str(out),
        ])
        assert code == 0
        assert "seed = 7" in (out / "summary.txt").read_text()

    def test_backend_flag(self, tmp_path):
        out = tmp_path / "r"
        code = cli.main([
            "run", "--preset", "cat2", *TINY, "--no-loss",
            "--backend", "analytic", "--out", str(out),
        ])
        assert code == 0
        assert "reservoir.backend = analytic" in (out / "summary.txt").read_text()

    def test_requires_config_or_preset(self, capsys):
        assert cli.main(["run"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        missing = tmp_path / "none.cfg"
        assert cli.main(["run", "--config", str(missing)]) == 2

    def test_bad_set_syntax(self, capsys):
        assert cli.main(["run", "--preset", "cat2", "--set", "oops"]) == 2
        capsys.readouterr()
        assert cli.main(["run", "--preset", "cat2", "--set", "bogus.key=1"]) == 2
        assert "config error: unknown key 'bogus.key'" in capsys.readouterr().err

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        code = cli.main([
            "run", "--preset", "cat2",
            "--set", "hilbert.n_max=6",
            "--set", "reservoir.n_samples=60",
            "--out", str(tmp_path / "r"),
        ])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_unknown_preset_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--preset", "nope"])
        assert exc.value.code == 2

    def test_non_finite_grid_fails_before_the_trajectory(self, tmp_path, capsys):
        out = tmp_path / "r"
        code = cli.main([
            "run", "--preset", "cat2", *TINY,
            "--set", "analysis.wigner_grid=-inf:inf:1", "--out", str(out),
        ])
        assert code == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_oversized_grid_fails_before_the_trajectory(self, tmp_path, capsys):
        out = tmp_path / "r"
        code = cli.main([
            "run", "--preset", "cat2", *TINY,
            "--set", "analysis.wigner_grid=-3.5:3.5:0.001", "--out", str(out),
        ])
        assert code == 2
        assert "points per axis" in capsys.readouterr().err
        assert not out.exists()


class TestSweep:
    def test_combined_csv(self, tmp_path):
        out = tmp_path / "sw"
        code = cli.main([
            "sweep", "--preset", "cat2", *TINY,
            "--set", "reservoir.n_samples=2",
            "--param", "reservoir.u", "--values", "0.4pi,0.45pi",
            "--out", str(out),
        ])
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == sc.SWEEP_HEADER
        assert len(lines) == 3

    def test_bad_parameter(self, tmp_path, capsys):
        code = cli.main([
            "sweep", "--preset", "cat2", "--param", "bogus", "--values", "1",
            "--out", str(tmp_path / "sw"),
        ])
        assert code == 2

    def test_bad_thread_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CAVRES_THREADS", "lots")
        code = cli.main([
            "sweep", "--preset", "cat2", *TINY,
            "--param", "reservoir.u", "--values", "0.45pi",
            "--out", str(tmp_path / "sw"),
        ])
        assert code == 2


class TestWigner:
    def test_maps_stored_state(self, tmp_path, capsys):
        out = tmp_path / "r"
        assert cli.main(["run", "--preset", "cat2", *TINY, "--out", str(out)]) == 0
        capsys.readouterr()
        code = cli.main([
            "wigner", "--state", str(out / "state_final.txt"), "--grid=-1:1:1",
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert text.startswith("# xs: -1 0 1\n# ys: -1 0 1\n")
        values = np.array([[float(v) for v in line.split()]
                           for line in text.splitlines()[2:]])
        assert values.shape == (3, 3)

    def test_rejects_non_state_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        for text, message in (
            ("not a state\n", "header"),
            ("# dim: 2\n1,0,abc,0\n0,0,1,0\n", "row 0"),
            ("# dim: 1\n1,0\n", "dimension"),
        ):
            bad.write_text(text)
            assert cli.main(["wigner", "--state", str(bad), "--grid=-1:1:1"]) == 2
            assert message in capsys.readouterr().err

    def test_rejects_non_finite_grid(self, tmp_path, capsys):
        state = tmp_path / "vacuum.txt"
        state.write_text("# dim: 2\n1,0,0,0\n0,0,0,0\n")
        assert cli.main(["wigner", "--state", str(state), "--grid=0:inf:1"]) == 2
        captured = capsys.readouterr()
        assert "finite" in captured.err
        assert captured.out == ""

    def test_rejects_oversized_grid(self, tmp_path, capsys):
        state = tmp_path / "vacuum.txt"
        state.write_text("# dim: 2\n1,0,0,0\n0,0,0,0\n")
        assert cli.main(["wigner", "--state", str(state), "--grid=-3.5:3.5:0.001"]) == 2
        captured = capsys.readouterr()
        assert "points per axis" in captured.err
        assert captured.out == ""

    def test_rejects_invalid_state(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        for text, message in (
            ("# dim: 2\n5,0,0,0\n0,0,1,0\n", "trace"),
            ("# dim: 2\n1,0,nan,0\n0,0,0,0\n", "Hermiticity"),
        ):
            bad.write_text(text)
            assert cli.main(["wigner", "--state", str(bad), "--grid=-1:1:1"]) == 3
            captured = capsys.readouterr()
            assert message in captured.err
            assert captured.out == ""


def test_console_script_help():
    proc = subprocess.run(
        [sys.executable, "-m", "cavres.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    for sub in ("run", "sweep", "wigner"):
        assert sub in proc.stdout
