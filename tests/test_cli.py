"""End-to-end checks of the command-line front end.

Covers exit codes, manifest echoing, JSON-lines error records, the CSV
artifacts and their bit-for-bit reproducibility, and the option surface.
"""

import argparse
import csv
import filecmp
import hashlib
import json
import os
import re
import shlex
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest

import cuspwave
from cuspwave.cli import _COMMANDS, _SOLVE_KINDS, _resolve, build_parser, main
from cuspwave.errors import GridMismatchError
from cuspwave.initial_data import FAMILIES, parse_data_spec
from cuspwave.linear_solver import load_trajectory

from oracles import CERTIFICATE_SHA256


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
                                               ("0,,1", "ParameterError")])
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
                                     ["--fields", "Vbar[0"],
                                     ["--fields", "Vbar[0]]"],
                                     ["--fields", "Rl[1]]]"],
                                     ["--fields", "Vbar[x]"],
                                     ["--depth", "3"]])
    def test_probe_rejects_bad_alphabet_or_depth_before_writing(
            self, tmp_path, smooth_spec, capsys, bad):
        run_dir = str(tmp_path / "run")
        assert main(["solve", "linear", "--n", "2", "--N", "16",
                     "--n-t", "9", "--data", smooth_spec,
                     "--out", run_dir]) == 0
        probe_dir = tmp_path / "probe"
        probe_dir.mkdir()
        assert main(["probe", "--traj", run_dir, "--out", str(probe_dir)]
                    + bad) == 2
        assert os.listdir(probe_dir) == []
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "ParameterError"
        if bad[0] == "--fields":
            assert record["message"].startswith("fields: %r" % bad[1])

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
    def _write_trajectory(directory, n_t, times=None):
        """A hand-written n_t-level 1-D trajectory: save_field + manifest.
        The times are 0.1 i unless given."""
        from cuspwave.spectral import Field, Grid, save_field

        os.makedirs(directory)
        grid = Grid(1, (16,), 2.0)
        x = grid.coords()[0]
        if times is None:
            times = [0.1 * i for i in range(n_t)]
        with open(os.path.join(directory, "manifest.csv"), "w",
                  newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["time", "file"])
            for i in range(n_t):
                name = "snapshot_%05d.cwgrid" % i
                values = np.fft.fft(np.exp(-x ** 2) * (1 + 0.1 * i), norm="ortho")
                save_field(os.path.join(directory, name),
                           Field(grid, values, "spectral"))
                w.writerow([repr(times[i]), name])

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

    @pytest.mark.parametrize("n_t, depth, times, message", [
        (3, 0, None, "at least 5 time levels, got 3"),
        (1, 1, None, "at least 5 time levels, got 1"),
        (9, 0, [0.1 * i * i for i in range(9)], "time steps differ")])
    def test_probe_checks_the_time_grid_before_writing(
            self, tmp_path, capsys, n_t, depth, times, message):
        # words are measured from level 4 on a uniform grid, at every depth
        run_dir = str(tmp_path / "run")
        self._write_trajectory(run_dir, n_t, times)
        probe_dir = tmp_path / "probe"
        probe_dir.mkdir()
        assert main(["probe", "--traj", run_dir, "--out", str(probe_dir),
                     "--fields", "Rl[0]", "--depth", str(depth)]) == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "DomainError"
        assert message in record["message"]
        assert os.listdir(probe_dir) == []

    def test_probe_rejects_a_complex_trajectory(self, tmp_path, capsys):
        # i u is not a real field; probe reads real trajectories only
        from cuspwave.spectral import Field, load_field, save_field

        run_dir = str(tmp_path / "run")
        self._write_trajectory(run_dir, 6)
        path = os.path.join(run_dir, "snapshot_00003.cwgrid")
        f = load_field(path, "spectral")
        save_field(path, Field(f.grid, 1j * f.values, "spectral"))
        probe_dir = tmp_path / "probe"
        probe_dir.mkdir()
        assert main(["probe", "--traj", run_dir, "--out", str(probe_dir)]) == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "DomainError"
        assert "time level 3 (t = 0.30000000000000004)" in record["message"]
        assert os.listdir(probe_dir) == []

    def test_probe_checks_the_trajectory_once(self, tmp_path, monkeypatch,
                                              smooth_spec):
        # the input is checked once, as it is loaded; the ridge and the
        # scan check nothing again
        import cuspwave.linear_solver
        import cuspwave.probe
        from cuspwave.spectral import real_half

        run_dir = str(tmp_path / "run")
        assert main(["solve", "linear", "--n", "2", "--N", "16",
                     "--n-t", "9", "--data", smooth_spec,
                     "--out", run_dir]) == 0
        checked = []
        for module in (cuspwave.cli, cuspwave.linear_solver, cuspwave.probe):
            monkeypatch.setattr(module, "real_half",
                                lambda *a: checked.append(a) or real_half(*a),
                                raising=False)
        assert main(["probe", "--traj", run_dir, "--depth", "2",
                     "--fields", "V0,TDt", "--out",
                     str(tmp_path / "probe")]) == 0
        assert len(checked) == 1

    def test_loaded_trajectory_has_no_time_derivative(self, tmp_path,
                                                      smooth_spec):
        run_dir = str(tmp_path / "run")
        main(["solve", "linear", "--m", "1", "--N", "32", "--n-t", "9",
              "--data", smooth_spec, "--out", run_dir])
        traj = load_trajectory(run_dir)
        assert traj.dt is None
        assert traj.u.shape == (9, 17)  # the half spectra
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

    @pytest.mark.parametrize("bad, flag", [(["--t-lo", "0"], "--t-lo"),
                                           (["--t-lo", "-1"], "--t-lo"),
                                           (["--t-hi", "0.3"], "--t-hi"),
                                           (["--t-hi", "inf"], "--t-hi"),
                                           (["--n-t", "4"], "--n-t")])
    def test_rates_rejects_bad_time_window_before_solving(self, tmp_path,
                                                         capsys, bad, flag):
        out = tmp_path / "rates"
        assert main(["rates", "--N", "8", "--out", str(out)] + bad) == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "ParameterError"
        assert flag in record["message"]
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

    def test_verify_writes_certificates_beside_the_catalog(self, tmp_path):
        # certificates.txt is the text the pinned digests are taken of
        for argv, key in ((["--m", "2", "--n", "2"], (2, 2)),
                          (["--pair", "3,1", "--n", "1"], ((3, 1), 1))):
            out = tmp_path / ("op%d" % len(key))
            assert main(["opalg", "verify", *argv, "--out", str(out)]) == 0
            data = (out / "certificates.txt").read_bytes()
            assert hashlib.sha256(data).hexdigest() \
                == CERTIFICATE_SHA256[key], argv
            names = [row["name"] for row in
                     csv.DictReader(open(out / "catalog.csv", newline=""))]
            assert [line for line in data.decode().splitlines()
                     if not line.startswith("  ")] == names

    def test_verify_pair_selection(self, tmp_path):
        assert main(["opalg", "verify", "--pair", "3,1", "--n", "2",
                     "--out", str(tmp_path / "op")]) == 0

    @pytest.mark.parametrize("m_from, pair_from", [("flag", "flag"),
                                                   ("config", "config"),
                                                   ("config", "flag")])
    def test_verify_rejects_m_with_pair(self, tmp_path, capsys, m_from,
                                        pair_from):
        # the pair would silently override m, an out-of-range one included
        values = {"m": "9", "pair": "3,1"}
        sources = {"m": m_from, "pair": pair_from}
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("".join("%s = %s\n" % (key, values[key])
                               for key in values if sources[key] == "config"))
        argv = ["opalg", "verify", "--config", str(cfg), "--n", "1",
                "--out", str(tmp_path / "op")]
        for key in values:
            if sources[key] == "flag":
                argv += ["--" + key, values[key]]
        assert main(argv) == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "ParameterError"
        assert "m" in record["message"] and "pair" in record["message"]
        assert not (tmp_path / "op").exists()

    def test_verify_pair_run_echoes_no_m(self, tmp_path):
        out = tmp_path / "op"
        assert main(["opalg", "verify", "--pair", "3,1", "--n", "1",
                     "--out", str(out)]) == 0
        manifest = (out / "run_manifest.txt").read_text().splitlines()
        assert "pair = 3,1" in manifest
        assert not any(line.startswith("m = ") for line in manifest)

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


def _fresh_python(code, *args):
    """The last stdout line of code run in a new interpreter on this
    checkout's package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cuspwave.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code, *args], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip().splitlines()[-1]


def test_cli_import_does_not_load_sympy():
    # the exact half is imported by `opalg verify` alone: the numeric
    # commands, and every command's start-up, must not pay for it
    code = ("import sys, cuspwave.cli; print(sorted(m for m in sys.modules"
            " if m.split('.')[0] == 'sympy' or m.startswith('cuspwave.opalg')))")
    assert _fresh_python(code) == "[]"


def test_opalg_verify_runs_without_sympy(tmp_path):
    # the package's own polynomial ring carries the exact half; sympy is
    # a test dependency only
    code = ("import sys\n"
            "from cuspwave.cli import main\n"
            "rc = main(['opalg', 'verify', '--m', '1', '--n', '1',"
            " '--out', sys.argv[1]])\n"
            "print(rc, 'cuspwave.opalg' in sys.modules, sorted("
            "m for m in sys.modules if m.split('.')[0] == 'sympy'))")
    assert _fresh_python(code, str(tmp_path / "op")) == "0 True []"


_NUMERIC_RUNS = """
import sys
from cuspwave.cli import main
out, spec = sys.argv[1:]
small = ["--N", "16", "--n-t", "9", "--T", "0.3", "--data", spec,
         "--f-coefficients", "0,0,1"]
for argv in (["solve", "second", *small, "--out", out + "/second"],
             ["solve", "fourth", *small, "--m1", "3", "--data-3", spec,
              "--out", out + "/fourth"],
             ["rates", "--N", "64", "--n-t", "5", "--t-lo", "0.5",
              "--t-hi", "1.5", "--out", out + "/rates"],
             ["probe", "--traj", out + "/second", "--fields", "V0,TDt",
              "--out", out + "/probe"]):
    assert main(argv) == 0, argv
print("scipy" in sys.modules)
"""


def test_numeric_commands_do_not_load_scipy(tmp_path, smooth_spec):
    # the Bessel pair is evaluated in numpy, so no numeric command pays
    # for importing scipy
    assert _fresh_python(_NUMERIC_RUNS, str(tmp_path), smooth_spec) == "False"




def _leaves():
    """(command words, key table) of every subcommand and solve kind."""
    for name, _, _, keys in _COMMANDS:
        if isinstance(keys, dict):
            yield [name], keys
        else:
            for choice, table in keys[1].items():
                yield [name, choice], table


# every subcommand's and solve kind's sorted option strings and its
# resolved defaults (the run_manifest.txt echo of a run without flags;
# s1 = None means rates takes the critical index, m = None means opalg
# takes m = 1 unless a pair is given)
_SOLVE_ECHO = ["L = 3.141592653589793", "N = 64", "T = 0.5", "data = ",
               "data_dt = ", "n = 1", "n_t = 65", "out = run", "s_list = 0"]
_PICARD_ECHO = ["f_coefficients = ", "max_iters = 40", "s_mon = 0.0",
                "tol = 1e-10"]
SURFACE = {
    "solve linear": (["--L", "--N", "--T", "--config", "--data", "--data-dt",
                      "--m", "--n", "--n-t", "--out", "--s-list"],
                     _SOLVE_ECHO + ["m = 1"]),
    "solve second": (["--L", "--N", "--T", "--config", "--data", "--data-dt",
                      "--f-coefficients", "--m", "--max-iters", "--n",
                      "--n-t", "--out", "--s-list", "--s-mon", "--tol"],
                     _SOLVE_ECHO + _PICARD_ECHO + ["m = 1"]),
    "solve third": (["--L", "--N", "--T", "--config", "--data", "--data-2",
                     "--data-dt", "--f-coefficients", "--m", "--max-iters",
                     "--n", "--n-t", "--out", "--s-list", "--s-mon",
                     "--tol"],
                    _SOLVE_ECHO + _PICARD_ECHO + ["data_2 = ", "m = 1"]),
    "solve fourth": (["--L", "--N", "--T", "--config", "--data", "--data-2",
                      "--data-3", "--data-dt", "--f-coefficients", "--m1",
                      "--m2", "--max-iters", "--n", "--n-t", "--out",
                      "--s-list", "--s-mon", "--tol"],
                     _SOLVE_ECHO + _PICARD_ECHO + ["data_2 = ", "data_3 = ",
                                                   "m1 = 2", "m2 = 1"]),
    "probe": (["--config", "--depth", "--fields", "--m", "--out", "--s",
               "--threshold", "--traj"],
              ["depth = 1", "fields = V0", "m = 1", "out = probe", "s = 0.0",
               "threshold = 0.5", "traj = run"]),
    "rates": (["--L", "--N", "--config", "--m", "--n-t", "--out", "--s1",
               "--t-hi", "--t-lo", "--width"],
              ["L = 3.141592653589793", "N = 1024", "m = 1", "n_t = 17",
               "out = rates", "s1 = None", "t_hi = 3.0", "t_lo = 0.3",
               "width = 0.5"]),
    "opalg verify": (["--config", "--m", "--n", "--out", "--pair"],
                     ["m = None", "n = 2", "out = ", "pair = "]),
    "data": (["--L", "--N", "--config", "--n", "--out", "--preview",
              "--spec"],
             ["L = 3.141592653589793", "N = 64", "n = 1", "out = data",
              "preview = 0", "spec = "]),
}


def test_cli_surface_is_pinned():
    parser = build_parser()

    def choices(command):
        return next(a for a in command._actions
                    if isinstance(a, argparse._SubParsersAction)).choices

    assert sorted(" ".join(words) for words, _ in _leaves()) == sorted(SURFACE)
    for words, _ in _leaves():
        command = parser
        for word in words:
            command = choices(command)[word]
        flags = sorted(option for action in command._actions
                       for option in action.option_strings
                       if option not in ("-h", "--help"))
        cfg = _resolve(parser.parse_args(words))
        echo = ["%s = %s" % (key, cfg[key]) for key in sorted(cfg)]
        expected_flags, expected_echo = SURFACE[" ".join(words)]
        assert (flags, sorted(echo)) == (expected_flags,
                                         sorted(expected_echo)), words


def _last_record(capsys):
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])


def _run_from_config(tmp_path, words, lines):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("".join("%s = %s\n" % line for line in lines))
    return main(words + ["--config", str(cfg)])


# a text that each key's parser cannot read; a str key reads any text
_MALFORMED = {int: "1.5", float: "one"}
_MALFORMED_LISTS = {"s_list": "0,,1", "f_coefficients": "0,x", "pair": "3,x"}
_TYPED = [(words, key, _MALFORMED.get(parse, _MALFORMED_LISTS.get(key)))
          for words, table in _leaves()
          for key, (parse, _) in table.items() if parse is not str]


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize(
    "words, key, text", _TYPED,
    ids=["%s-%s" % ("-".join(words), key) for words, key, _ in _TYPED])
def test_malformed_value_names_its_key(tmp_path, monkeypatch, capsys, words,
                                       key, text, source):
    assert text is not None, key  # a new list key needs a malformed text
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)  # every default --out is relative to it
    if source == "flag":
        code = main(words + ["--" + key.replace("_", "-"), text])
    else:
        code = _run_from_config(tmp_path, words, [(key, text)])
    assert code == 2
    record = _last_record(capsys)
    assert record["error"] == "ParameterError"
    assert record["message"].startswith(key + ": ")
    assert repr(text) in record["message"]
    assert os.listdir(cwd) == []


_SOLVE_UNION = set().union(*(keys for keys, _ in _SOLVE_KINDS.values()))
_UNREAD = [(kind, key) for kind, (keys, _) in _SOLVE_KINDS.items()
           for key in sorted(_SOLVE_UNION - set(keys))]


def test_each_solve_kind_has_only_the_keys_it_reads():
    assert {kind: sorted(key for k, key in _UNREAD if k == kind)
            for kind in _SOLVE_KINDS} == {
        "linear": ["data_2", "data_3", "f_coefficients", "m1", "m2",
                   "max_iters", "s_mon", "tol"],
        "second": ["data_2", "data_3", "m1", "m2"],
        "third": ["data_3", "m1", "m2"],
        "fourth": ["m"]}


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("kind, key", _UNREAD,
                         ids=["%s-%s" % pair for pair in _UNREAD])
def test_solve_rejects_a_key_its_kind_does_not_read(tmp_path, monkeypatch,
                                                    capsys, kind, key,
                                                    source):
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    if source == "flag":
        # an argparse usage error
        with pytest.raises(SystemExit) as exc:
            main(["solve", kind, "--" + key.replace("_", "-"), "1"])
        assert exc.value.code == 2
    else:
        assert _run_from_config(tmp_path, ["solve", kind], [(key, "1")]) == 2
        record = _last_record(capsys)
        assert record["error"] == "ParameterError"
        assert record["message"] == "unknown config key %r" % key
    assert os.listdir(cwd) == []


def _artifacts(directory):
    """Every file of a run directory, picard.csv without wall_seconds."""
    files = {}
    for name in sorted(os.listdir(directory)):
        data = open(os.path.join(directory, name), "rb").read()
        if name == "picard.csv":
            data = b"\n".join(line.rsplit(b",", 1)[0]
                              for line in data.splitlines())
        files[name] = data
    return files


_ROUND_TRIPS = {
    "solve linear": ["--N", "16", "--n-t", "9", "--s-list", "0,1"],
    "solve second": ["--N", "16", "--n-t", "9", "--T", "0.3",
                     "--f-coefficients", "0,0,1"],
    "solve third": ["--N", "16", "--n-t", "9", "--T", "0.3",
                    "--f-coefficients", "0,0,1", "--data-2", "{spec}"],
    "solve fourth": ["--N", "16", "--n-t", "9", "--T", "0.3", "--m1", "3",
                     "--f-coefficients", "0,0,1", "--data-3", "{spec}"],
    "probe": ["--traj", "{traj}", "--fields", "V0,TDt", "--depth", "2"],
    "rates": ["--N", "64", "--n-t", "5", "--t-lo", "0.5", "--t-hi", "1.5"],
    "opalg verify": ["--m", "2", "--n", "1"],
    "opalg verify --pair": ["--pair", "3,1", "--n", "1"],
    "data": ["--spec", "{spec}", "--N", "32"],
}


@pytest.mark.parametrize("name", sorted(_ROUND_TRIPS))
def test_manifest_reads_back_as_config(tmp_path, smooth_spec, name):
    """A run's manifest, without its command line, given back as --config
    reproduces the same manifest and the same artifacts."""
    traj = str(tmp_path / "traj")
    assert main(["solve", "linear", "--N", "16", "--n-t", "9",
                 "--data", smooth_spec, "--out", traj]) == 0
    words = name.replace(" --pair", "").split()
    flags = [arg.format(spec=smooth_spec, traj=traj)
             for arg in _ROUND_TRIPS[name]]
    if words[0] == "solve":
        flags += ["--data", smooth_spec]
    out = str(tmp_path / "out")
    assert main(words + flags + ["--out", out]) == 0
    first = _artifacts(out)
    lines = first["run_manifest.txt"].decode().splitlines()
    assert lines[0] == "command = %s" % " ".join(words)
    config = tmp_path / "manifest.cfg"
    config.write_text("\n".join(lines[1:]) + "\n")
    shutil.rmtree(out)
    assert main(words + ["--config", str(config)]) == 0
    assert _artifacts(out) == first


README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _readme_commands():
    """The `cuspwave ...` lines of README's command-line block."""
    text = open(README).read().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", text, re.S).group(1)
    return [shlex.split(line) for line in block.replace("\\\n", " ")
            .splitlines() if line.startswith("cuspwave ")]


def test_readme_command_lines_parse():
    commands = _readme_commands()
    assert len(commands) >= 9
    for words in commands:
        args = build_parser().parse_args(words[1:])
        assert args.func is not None


def test_readme_solve_flag_table_matches_the_kinds():
    """README's table of which flags each solve kind takes."""
    rows = [line.split("|")[1:-1] for line in open(README)
            if line.startswith("| `--")]
    kinds = list(_SOLVE_KINDS)
    seen = {}
    for flags, *marks in rows:
        for flag in re.findall(r"`--([A-Za-z0-9-]+)`", flags):
            seen[flag.replace("-", "_")] = [kind for kind, mark
                                            in zip(kinds, marks)
                                            if mark.strip()]
    seen.pop("config")
    assert seen == {key: [kind for kind in kinds
                          if key in _SOLVE_KINDS[kind][0]]
                    for key in _SOLVE_UNION}


_FAMILY_KEYS = [(family, key) for family, (_, keys) in FAMILIES.items()
                for key in keys]
_MALFORMED_DATA = {"angular": "1:x:0"}  # every other data key reads a float


def _data_run(route, spec, out):
    """The argv that reads the data spec at spec through route."""
    if route == "data":
        return ["data", "--spec", spec, "--out", out]
    return ["solve", "linear", "--N", "16", "--n-t", "9", "--data", spec,
            "--out", out]


@pytest.mark.parametrize("route", ["data", "solve"])
@pytest.mark.parametrize("family, key", _FAMILY_KEYS,
                         ids=["%s-%s" % pair for pair in _FAMILY_KEYS])
def test_malformed_data_value_is_a_parse_error_at_its_place(
        tmp_path, capsys, family, key, route):
    text = _MALFORMED_DATA.get(key, "abc")
    spec = tmp_path / "spec.txt"
    spec.write_text("family = %s\n# the bad line\n%s =  %s  # why\n"
                    % (family, key, text))
    out = tmp_path / "out"
    assert main(_data_run(route, str(spec), str(out))) == 2
    record = _last_record(capsys)
    assert record["error"] == "ParseError"
    assert record["message"].startswith(key + ": ")
    assert repr(text) in record["message"]
    # the value's place: line 3, after "<key> =  "
    assert (record["file"], record["line"], record["column"]) == (
        str(spec), 3, len(key) + 5)
    assert not out.exists()


@pytest.mark.parametrize("source", ["spec", "config"])
def test_key_given_twice_is_rejected_at_its_second_line(
        tmp_path, monkeypatch, capsys, source):
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)  # every default --out is relative to it
    path = tmp_path / "twice.txt"
    if source == "spec":
        key = "left_amp"
        path.write_text("family = A1\nleft_amp = 1.0\nright_amp = 2.0\n"
                        "  left_amp = 1.0\n")
        argv = ["data", "--spec", str(path)]
    else:
        key = "N"
        path.write_text("N = 16\nn_t = 9\n  N = 16\n")
        argv = ["solve", "linear", "--config", str(path)]
    assert main(argv) == 2
    record = _last_record(capsys)
    assert record["error"] == "ParseError"
    assert repr(key) in record["message"]
    # the second line, at the key's column
    assert (record["file"], record["line"], record["column"]) == (
        str(path), 3 + (source == "spec"), 3)
    assert os.listdir(cwd) == []


def _cut_trajectory(directory, smooth_spec, cut):
    """A solve's export directory, then cut(directory) to damage it."""
    assert main(["solve", "linear", "--N", "16", "--n-t", "9",
                 "--data", smooth_spec, "--out", directory]) == 0
    cut(directory)
    return directory


def _drop_file_column(directory):
    path = os.path.join(directory, "manifest.csv")
    text = open(path).read()
    open(path, "w").write(text.replace("time,file,", "time,name,", 1))


def _nan_time_at_level_3(directory):
    path = os.path.join(directory, "manifest.csv")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[4][0] = "nan"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _text_time_at_level_2(directory):
    path = os.path.join(directory, "manifest.csv")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[3][0] = "abc"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _no_file_at_level_2(directory):
    # the row of level 2 cut down to its time
    path = os.path.join(directory, "manifest.csv")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[3] = rows[3][:1]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _header_claims_more_than_the_file(directory):
    # sizes (2**20, 2**20, 2**20) over a 64-byte payload
    path = os.path.join(directory, "snapshot_00000.cwgrid")
    open(path, "wb").write(b"CWGRID1" + struct.pack("<4I", 3, *(2 ** 20,) * 3)
                           + struct.pack("<d", 1.0) + bytes(64))


def _cut_inside_header(directory):
    path = os.path.join(directory, "snapshot_00000.cwgrid")
    data = open(path, "rb").read()
    open(path, "wb").write(data[:len(b"CWGRID1") + 6])


# name -> (argv of a run whose input or output path it cannot use, given
# tmp_path, a data spec and an existing regular file; the error it exits with)
_BAD_PATHS = {
    "config-is-a-directory": (lambda tmp, spec, file: [
        "solve", "linear", "--config", str(tmp)], "IsADirectoryError"),
    "data-is-a-directory": (lambda tmp, spec, file: [
        "solve", "linear", "--data", str(tmp)], "IsADirectoryError"),
    "solve-out-is-a-file": (lambda tmp, spec, file: [
        "solve", "linear", "--N", "16", "--n-t", "9", "--data", spec,
        "--out", file], "FileExistsError"),
    "opalg-out-is-a-file": (lambda tmp, spec, file: [
        "opalg", "verify", "--m", "1", "--n", "1", "--out", file],
        "FileExistsError"),
    "manifest-without-file-column": (lambda tmp, spec, file: [
        "probe", "--traj", _cut_trajectory(str(tmp / "traj"), spec,
                                           _drop_file_column)],
        "ParameterError"),
    "manifest-with-a-nan-time": (lambda tmp, spec, file: [
        "probe", "--traj", _cut_trajectory(str(tmp / "traj"), spec,
                                           _nan_time_at_level_3),
        "--fields", "V0,TDt"], "ParameterError"),
    "manifest-with-a-text-time": (lambda tmp, spec, file: [
        "probe", "--traj", _cut_trajectory(str(tmp / "traj"), spec,
                                           _text_time_at_level_2),
        "--fields", "V0,TDt"], "ParameterError"),
    "manifest-row-without-a-file": (lambda tmp, spec, file: [
        "probe", "--traj", _cut_trajectory(str(tmp / "traj"), spec,
                                           _no_file_at_level_2)],
        "ParameterError"),
    "snapshot-header-claims-more-than-the-file": (lambda tmp, spec, file: [
        "probe", "--traj", _cut_trajectory(str(tmp / "traj"), spec,
                                           _header_claims_more_than_the_file)],
        "DomainError"),
    "snapshot-cut-inside-its-header": (lambda tmp, spec, file: [
        "probe", "--traj", _cut_trajectory(str(tmp / "traj"), spec,
                                           _cut_inside_header)],
        "DomainError"),
}


@pytest.mark.parametrize("name", sorted(_BAD_PATHS))
def test_unusable_path_exits_two_with_a_record(tmp_path, monkeypatch, capsys,
                                               smooth_spec, name):
    argv_of, error = _BAD_PATHS[name]
    existing = tmp_path / "existing"
    existing.write_text("")
    argv = argv_of(tmp_path, smooth_spec, str(existing))
    capsys.readouterr()
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    record = json.loads(err.strip().splitlines()[-1])
    assert record["error"] == error
    assert existing.read_text() == ""
    assert os.listdir(cwd) == []
    if name == "manifest-without-file-column":
        assert "manifest.csv" in record["message"]
        assert "'file'" in record["message"]
    if name == "manifest-with-a-text-time":
        assert "manifest.csv" in record["message"]
        assert "'abc' of level 2" in record["message"]
    if name == "manifest-row-without-a-file":
        assert "manifest.csv" in record["message"]
        assert "level 2 names no file" in record["message"]
    if name == "snapshot-header-claims-more-than-the-file":
        assert "snapshot_00000.cwgrid: truncated sample payload" \
            in record["message"]


# command -> (argv before --out, given a data spec; the first work the
# command does, none of which may run)
_OUT_FIRST = {
    "solve": (lambda spec: ["solve", "linear", "--N", "16", "--n-t", "9",
                            "--data", spec],
              ["cuspwave.linear_solver.propagator_table", "cuspwave.cli._read"]),
    "probe": (lambda spec: ["probe", "--traj", "run"],
              ["cuspwave.cli.load_trajectory"]),
    "rates": (lambda spec: ["rates", "--N", "64"],
              ["cuspwave.linear_solver.propagator_table"]),
    "opalg": (lambda spec: ["opalg", "verify", "--m", "1", "--n", "1"],
              ["cuspwave.opalg.catalog_verify"]),
    "data": (lambda spec: ["data", "--spec", spec], ["cuspwave.cli._read"]),
}


@pytest.mark.parametrize("command", sorted(_OUT_FIRST))
def test_out_file_is_rejected_before_any_work(tmp_path, monkeypatch, capsys,
                                              smooth_spec, command):
    argv_of, work = _OUT_FIRST[command]
    for target in work:
        monkeypatch.setattr(target, lambda *a, target=target, **k: pytest.fail(
            "%s ran before --out was checked" % target))
    existing = tmp_path / "existing"
    existing.write_text("")
    assert main(argv_of(smooth_spec) + ["--out", str(existing)]) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "FileExistsError"
    assert str(existing) in record["message"]
    assert existing.read_text() == ""


def test_preview_ignores_an_out_file(tmp_path, monkeypatch, smooth_spec):
    # a preview writes nothing, so the default out may name a file
    monkeypatch.chdir(tmp_path)
    (tmp_path / "data").write_text("")
    assert main(["data", "--spec", smooth_spec, "--N", "16",
                 "--preview", "1"]) == 0


@pytest.mark.parametrize("route", ["preview", "solve"])
@pytest.mark.parametrize("angular", ["1:nan:0", "1:inf:0", "1:1:nan",
                                     "1:1:inf"])
def test_non_finite_angular_term_exits_two_before_writing(
        tmp_path, monkeypatch, capsys, angular, route):
    spec = tmp_path / "a2.txt"
    spec.write_text("family = A2\nangular = %s\n" % angular)
    monkeypatch.chdir(tmp_path)
    if route == "preview":
        argv = ["data", "--spec", str(spec), "--n", "2", "--N", "16",
                "--preview", "1"]
    else:
        argv = ["solve", "linear", "--n", "2", "--N", "16", "--n-t", "9",
                "--data", str(spec), "--out", "run"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err.strip().splitlines()[-1])["error"] == (
        "ParameterError")
    assert os.listdir(tmp_path) == ["a2.txt"]


def test_readme_data_spec_example_and_family_keys():
    """README's data-spec example parses, and its table lists each family's
    keys with their defaults as FAMILIES has them."""
    text = open(README).read().split("### Data spec files", 1)[1]
    text = text.split("\n## ", 1)[0]
    example = re.search(r"```\n(.*?)```", text, re.S).group(1)
    assert parse_data_spec(example).family == "A1"
    listed = {family: dict(re.findall(r"`(\w+) = ([^`]*)`", cells))
              for family, cells in re.findall(r"^\| `(\w+)` \| (.*) \|$",
                                              text, re.M)}
    assert listed == {family: {key: default for key, (_, default)
                               in keys.items()}
                      for family, (_, keys) in FAMILIES.items()}
