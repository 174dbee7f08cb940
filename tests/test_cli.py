"""End-to-end checks of the command-line front end.

Covers exit codes, manifest echoing, JSON-lines error records, the CSV
artifacts and their bit-for-bit reproducibility, and the option surface.
"""

import argparse
import csv
import filecmp
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import cuspwave
from cuspwave.cli import _COMMANDS, _resolve, build_parser, main
from cuspwave.errors import GridMismatchError
from cuspwave.linear_solver import load_trajectory


@pytest.fixture()
def smooth_spec(tmp_path):
    path = tmp_path / "smooth.txt"
    path.write_text("family = smooth\nsmooth_amp = 1.0\nsmooth_width = 0.4\n")
    return str(path)


def run(args, capsys=None):
    code = main(args)
    return code


class TestExitCodes:
    def test_linear_solve_ok(self, tmp_path, smooth_spec):
        out = str(tmp_path / "run")
        assert main(["solve", "linear", "--m", "1", "--N", "32",
                     "--n-t", "9", "--data", smooth_spec,
                     "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "manifest.csv"))

    def test_invalid_m_is_config_error(self, tmp_path, smooth_spec, capsys):
        code = main(["solve", "linear", "--m", "0", "--N", "16",
                     "--data", smooth_spec,
                     "--out", str(tmp_path / "bad")])
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "ParameterError"
        assert "m" in record["message"]

    def test_unknown_config_key_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("no_such_key = 3\n")
        assert main(["solve", "linear", "--config", str(cfg)]) == 2

    def test_config_parse_error_reports_its_position(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("m = 1\nN 16\n")
        assert main(["solve", "linear", "--config", str(cfg),
                     "--out", str(tmp_path / "r")]) == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "ParseError"
        assert (record["line"], record["column"]) == (2, 1)
        assert record["expected"] == "key = value"
        assert record["file"] == str(cfg)

    def test_data_spec_parse_error_reports_its_file_and_line(self, tmp_path,
                                                            capsys):
        spec = tmp_path / "a2.txt"
        spec.write_text("family = A2\nangular = 1:2\n")
        assert main(["solve", "linear", "--n", "2", "--N", "16",
                     "--n-t", "9", "--data", str(spec),
                     "--out", str(tmp_path / "r")]) == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "ParseError"
        assert record["line"] == 2
        assert record["file"] == str(spec)
        assert not os.path.exists(tmp_path / "r")

    @pytest.mark.parametrize("bad", [["linear", "--L", "inf"],
                                     ["second", "--f-coefficients", "0,0,nan"],
                                     ["second", "--f-coefficients", "0,0,inf"],
                                     ["second", "--s-mon", "nan"]])
    def test_solve_rejects_non_finite_before_writing(self, tmp_path,
                                                     smooth_spec, capsys, bad):
        out = tmp_path / "run"
        out.mkdir()
        assert main(["solve"] + bad + ["--N", "16", "--n-t", "9",
                                       "--data", smooth_spec,
                                       "--out", str(out)]) == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "ParameterError"
        assert os.listdir(out) == []

    @pytest.mark.parametrize("spec", ["family = smooth\nsmooth_amp = nan\n",
                                      "family = smooth\nsmooth_width = 0\n",
                                      "family = smooth\nsmooth_width = inf\n",
                                      "family = A1\nleft_width = -1\n"])
    def test_solve_rejects_bad_bump_before_writing(self, tmp_path, capsys,
                                                   spec):
        path = tmp_path / "bad.txt"
        path.write_text(spec)
        out = tmp_path / "run"
        out.mkdir()
        assert main(["solve", "linear", "--N", "16", "--n-t", "9",
                     "--data", str(path), "--out", str(out)]) == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "ParameterError"
        assert os.listdir(out) == []

    @pytest.mark.parametrize("s_list, error", [("nan,inf", "ParameterError"),
                                               ("0,inf", "ParameterError"),
                                               ("0,,1", "ValueError")])
    def test_solve_rejects_bad_s_list_before_solving(self, tmp_path,
                                                     smooth_spec, capsys,
                                                     s_list, error):
        out = tmp_path / "run"
        assert main(["solve", "linear", "--N", "16", "--n-t", "9",
                     "--data", smooth_spec, "--s-list", s_list,
                     "--out", str(out)]) == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == error
        assert not out.exists()

    def test_missing_data_file_is_config_error(self, tmp_path):
        assert main(["solve", "linear", "--data",
                     str(tmp_path / "absent.txt"),
                     "--out", str(tmp_path / "r")]) == 2

    def test_nonconvergence_is_exit_three(self, tmp_path, smooth_spec,
                                          capsys):
        code = main(["solve", "second", "--m", "1", "--N", "16",
                     "--n-t", "9", "--T", "2.5", "--max-iters", "3",
                     "--data", smooth_spec, "--f-coefficients", "0,0,4.0",
                     "--out", str(tmp_path / "stall")])
        assert code == 3
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "ConvergenceError"
        with open(tmp_path / "stall" / "picard.csv", newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        assert reader.fieldnames == ["iteration", "distance", "ratio",
                                     "wall_seconds"]
        distances = [float(r["distance"]) for r in rows]
        assert record["iterations"] == len(distances) == 3
        assert record["distances"] == distances
        # d_i / d_(i-1), empty on row 0
        assert rows[0]["ratio"] == ""
        assert float(rows[1]["ratio"]) == distances[1] / distances[0]


class TestManifests:
    def test_run_manifest_echoes_resolved_config(self, tmp_path, smooth_spec):
        out = str(tmp_path / "run")
        main(["solve", "linear", "--m", "2", "--N", "32", "--n-t", "9",
              "--data", smooth_spec, "--out", out])
        text = open(os.path.join(out, "run_manifest.txt")).read()
        assert "command = solve linear" in text
        assert "m = 2" in text
        assert "N = 32" in text
        assert "n_t = 9" in text  # default values are echoed too

    def test_config_file_with_flag_override(self, tmp_path, smooth_spec):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("m = 1\nN = 16\nn_t = 9\ndata = %s\n" % smooth_spec)
        out = str(tmp_path / "run")
        main(["solve", "linear", "--config", str(cfg), "--m", "3",
              "--out", out])
        text = open(os.path.join(out, "run_manifest.txt")).read()
        assert "m = 3" in text  # the flag wins over the file
        assert "N = 16" in text


class TestReproducibility:
    def test_identical_config_gives_identical_csv(self, tmp_path,
                                                  smooth_spec):
        outs = []
        for tag in ("a", "b"):
            out = str(tmp_path / tag)
            assert main(["solve", "second", "--m", "1", "--N", "32",
                         "--n-t", "9", "--T", "0.3", "--data", smooth_spec,
                         "--f-coefficients", "0,0,1",
                         "--out", out]) == 0
            outs.append(out)
        assert filecmp.cmp(os.path.join(outs[0], "manifest.csv"),
                           os.path.join(outs[1], "manifest.csv"),
                           shallow=False)
        # picard.csv is deterministic except for the wall-clock column
        tables = []
        for out in outs:
            rows = open(os.path.join(out, "picard.csv")).read().splitlines()
            tables.append([line.rsplit(",", 1)[0] for line in rows])
        assert tables[0] == tables[1]


class TestProbeAndRates:
    def test_probe_writes_ridge_and_scan(self, tmp_path, smooth_spec):
        run_dir = str(tmp_path / "run")
        main(["solve", "linear", "--m", "1", "--N", "32", "--n-t", "9",
              "--data", smooth_spec, "--out", run_dir])
        probe_dir = str(tmp_path / "probe")
        assert main(["probe", "--traj", run_dir, "--out", probe_dir,
                     "--fields", "V0,TDt"]) == 0
        scan = open(os.path.join(probe_dir, "scan.csv")).read().splitlines()
        assert scan[0] == "word,s,sup_norm"
        assert [row.split(",")[0] for row in scan[1:]] == ["(id)", "V0", "TDt"]
        ridge = os.path.join(probe_dir, "ridge.csv")
        rows = open(ridge).read().splitlines()
        assert rows[0] == "t,coords,strength" and len(rows) > 1
        assert open(ridge + ".gp").read() == (
            'set datafile separator ","\n'
            'plot "%s" using 1:2 with points title "ridge"\n' % ridge)

    def test_probe_accepts_bracketed_field_indices(self, tmp_path,
                                                    smooth_spec):
        run_dir = str(tmp_path / "run")
        assert main(["solve", "linear", "--n", "2", "--N", "16",
                     "--n-t", "9", "--data", smooth_spec,
                     "--out", run_dir]) == 0
        probe_dir = str(tmp_path / "probe")
        assert main(["probe", "--traj", run_dir, "--out", probe_dir,
                     "--fields", "V0,L[0,1]"]) == 0
        scan = open(os.path.join(probe_dir, "scan.csv")).read()
        assert "L[0,1]" in scan

    @pytest.mark.parametrize("bad", [["--fields", "L[0,5]"],
                                     ["--fields", "Vbar"],
                                     ["--depth", "3"]])
    def test_probe_rejects_bad_alphabet_or_depth_before_writing(
            self, tmp_path, smooth_spec, bad):
        run_dir = str(tmp_path / "run")
        assert main(["solve", "linear", "--n", "2", "--N", "16",
                     "--n-t", "9", "--data", smooth_spec,
                     "--out", run_dir]) == 0
        probe_dir = tmp_path / "probe"
        probe_dir.mkdir()
        assert main(["probe", "--traj", run_dir, "--out", str(probe_dir)]
                    + bad) == 2
        assert os.listdir(probe_dir) == []

    @pytest.mark.parametrize("bad", [["--s", "nan"], ["--s", "inf"],
                                     ["--threshold", "nan"],
                                     ["--threshold", "inf"]])
    def test_probe_rejects_non_finite_before_writing(self, tmp_path,
                                                     smooth_spec, capsys, bad):
        run_dir = str(tmp_path / "run")
        assert main(["solve", "linear", "--N", "16", "--n-t", "9",
                     "--data", smooth_spec, "--out", run_dir]) == 0
        probe_dir = tmp_path / "probe"
        probe_dir.mkdir()
        assert main(["probe", "--traj", run_dir, "--out", str(probe_dir)]
                    + bad) == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "ParameterError"
        assert os.listdir(probe_dir) == []

    @staticmethod
    def _write_trajectory(directory, n_t):
        """A hand-written n_t-level 1-D trajectory: save_field + manifest."""
        from cuspwave.spectral import Field, Grid, save_field

        os.makedirs(directory)
        grid = Grid(1, (16,), 2.0)
        x = grid.coords()[0]
        with open(os.path.join(directory, "manifest.csv"), "w",
                  newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["time", "file"])
            for i in range(n_t):
                name = "snapshot_%05d.cwgrid" % i
                values = np.fft.fft(np.exp(-x ** 2) * (1 + 0.1 * i), norm="ortho")
                save_field(os.path.join(directory, name),
                           Field(grid, values, "spectral"))
                w.writerow([repr(0.1 * i), name])

    def test_probe_needs_six_time_levels(self, tmp_path, capsys):
        # the one-sided 4th-order rows read six levels
        for n_t, code in ((5, 2), (6, 0)):
            run_dir = str(tmp_path / ("run%d" % n_t))
            self._write_trajectory(run_dir, n_t)
            probe_dir = tmp_path / ("probe%d" % n_t)
            probe_dir.mkdir()
            assert main(["probe", "--traj", run_dir, "--out", str(probe_dir),
                         "--fields", "V0,TDt"]) == code
            if code:
                err = capsys.readouterr().err.strip().splitlines()[-1]
                assert json.loads(err)["error"] == "DomainError"
                assert os.listdir(probe_dir) == []
            else:
                assert "TDt" in (probe_dir / "scan.csv").read_text()

    def test_loaded_trajectory_has_no_time_derivative(self, tmp_path,
                                                      smooth_spec):
        run_dir = str(tmp_path / "run")
        main(["solve", "linear", "--m", "1", "--N", "32", "--n-t", "9",
              "--data", smooth_spec, "--out", run_dir])
        traj = load_trajectory(run_dir)
        assert traj.dt is None
        assert traj.u.shape == (9, 32)
        # a snapshot on another grid is rejected, not stacked
        from cuspwave.spectral import Field, Grid, save_field

        save_field(os.path.join(run_dir, "snapshot_00003.cwgrid"),
                   Field(Grid(1, (32,), 1.0), np.zeros(32)))
        with pytest.raises(GridMismatchError):
            load_trajectory(run_dir)

    def test_rates_explicit_zero_s1_is_kept(self, tmp_path):
        out = str(tmp_path / "rates")
        assert main(["rates", "--m", "1", "--N", "256", "--s1", "0",
                     "--t-lo", "0.4", "--t-hi", "3.0", "--n-t", "9",
                     "--out", out]) == 0
        manifest = open(os.path.join(out, "run_manifest.txt")).read()
        assert "s1 = 0.0" in manifest.splitlines()

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("s1", ["-0.3", "0", "0.5"])
    def test_rates_fit_is_minus_m_over_4_for_every_s1(self, tmp_path, m, s1):
        out = str(tmp_path / "rates")
        assert main(["rates", "--m", str(m), "--s1", s1, "--out", out]) == 0
        rows = open(os.path.join(out, "fits.csv")).read().splitlines()
        _, expected, fitted, _ = rows[1].split(",")
        assert float(expected) == -m / 4
        assert abs(float(fitted) - float(expected)) <= 0.10

    def test_rates_rejects_zero_width(self, tmp_path, capsys):
        out = tmp_path / "rates"
        assert main(["rates", "--N", "8", "--width", "0",
                     "--out", str(out)]) == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "ParameterError"
        assert not out.exists()

    def test_rates_fit_matches_expected_exponent(self, tmp_path):
        out = str(tmp_path / "rates")
        assert main(["rates", "--m", "1", "--N", "512", "--t-lo", "0.4",
                     "--t-hi", "3.0", "--n-t", "13", "--out", out]) == 0
        rows = open(os.path.join(out, "fits.csv")).read().splitlines()
        assert rows[0] == "lemma,expected,fitted,r2" and len(rows) == 2
        lemma, expected, fitted, r2 = rows[1].split(",")
        assert lemma == "homogeneous-derivative-loss"
        assert abs(float(fitted) - float(expected)) < 0.05
        assert float(r2) > 0.99


class TestOpalg:
    def test_verify_clean_catalog_exits_zero(self, tmp_path, capsys):
        out = str(tmp_path / "op")
        assert main(["opalg", "verify", "--m", "1", "--n", "2",
                     "--out", out]) == 0
        rows = open(os.path.join(out, "catalog.csv")).read().splitlines()
        assert rows[0].startswith("name,status")
        assert len(rows) > 10
        assert "failed" in capsys.readouterr().err

    def test_verify_pair_selection(self, tmp_path):
        assert main(["opalg", "verify", "--pair", "3,1", "--n", "2",
                     "--out", str(tmp_path / "op")]) == 0

    def test_verify_rejects_bad_dimension(self, capsys):
        assert main(["opalg", "verify", "--m", "1", "--n", "4"]) == 2

    def test_verify_stdout_without_out_dir(self, capsys):
        assert main(["opalg", "verify", "--m", "1", "--n", "1"]) == 0
        text = capsys.readouterr().out
        assert "name,status" in text.splitlines()[0]


class TestData:
    def test_generate_and_reload(self, tmp_path, smooth_spec):
        out = str(tmp_path / "d")
        assert main(["data", "--spec", smooth_spec, "--N", "64",
                     "--out", out]) == 0
        from cuspwave.spectral import load_field

        field = load_field(os.path.join(out, "data.cwgrid"))
        assert field.grid.sizes == (64,)

    def test_preview_prints_norms(self, smooth_spec, capsys):
        assert main(["data", "--spec", smooth_spec, "--preview", "1"]) == 0
        text = capsys.readouterr().out
        assert "family = smooth" in text
        assert "l2 = " in text


def test_cli_import_does_not_load_sympy():
    # only `opalg verify` needs sympy; the numeric commands must not pay
    # for importing it
    src = os.path.dirname(os.path.dirname(os.path.abspath(cuspwave.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = "import sys, cuspwave.cli; print('sympy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


# every subcommand's sorted option strings and its resolved defaults (the
# run_manifest.txt echo of a run without flags; s1 = None means rates
# takes the critical index)
SURFACE = {
    "solve": (["--L", "--N", "--T", "--config", "--data", "--data-2",
               "--data-3", "--data-dt", "--f-coefficients", "--m", "--m1",
               "--m2", "--max-iters", "--n", "--n-t", "--out", "--s-list",
               "--s-mon", "--tol"],
              ["L = 3.141592653589793", "N = 64", "T = 0.5", "data = ",
               "data_2 = ", "data_3 = ", "data_dt = ", "f_coefficients = ",
               "m = 1", "m1 = 2", "m2 = 1", "max_iters = 40", "n = 1",
               "n_t = 65", "out = run", "s_list = 0", "s_mon = 0.0",
               "tol = 1e-10"]),
    "probe": (["--config", "--depth", "--fields", "--m", "--out", "--s",
               "--threshold", "--traj"],
              ["depth = 1", "fields = V0", "m = 1", "out = probe", "s = 0.0",
               "threshold = 0.5", "traj = run"]),
    "rates": (["--L", "--N", "--config", "--m", "--n-t", "--out", "--s1",
               "--t-hi", "--t-lo", "--width"],
              ["L = 3.141592653589793", "N = 1024", "m = 1", "n_t = 17",
               "out = rates", "s1 = None", "t_hi = 3.0", "t_lo = 0.3",
               "width = 0.5"]),
    "opalg": (["--config", "--m", "--n", "--out", "--pair"],
              ["m = 1", "n = 2", "out = ", "pair = "]),
    "data": (["--L", "--N", "--config", "--n", "--out", "--preview",
              "--spec"],
             ["L = 3.141592653589793", "N = 64", "n = 1", "out = data",
              "preview = 0", "spec = "]),
}


def test_cli_surface_is_pinned():
    parser = build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    keys = {name: table for name, _, _, table, _ in _COMMANDS}
    positional = {"solve": ["linear"], "opalg": ["verify"]}
    assert sorted(commands) == sorted(SURFACE)
    for name, command in commands.items():
        flags = sorted(option for action in command._actions
                       for option in action.option_strings
                       if option not in ("-h", "--help"))
        args = parser.parse_args([name] + positional.get(name, []))
        cfg = _resolve(args, keys[name])
        echo = ["%s = %s" % (key, cfg[key]) for key in sorted(cfg)]
        assert (flags, echo) == SURFACE[name], name
