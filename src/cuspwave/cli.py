"""Batch command-line front end.

Subcommands: solve (linear and the three nonlinear problem shapes),
probe (ridge extraction and conormal scans of a stored trajectory),
rates (power-law fits against the closed-form decay exponents),
opalg (exact verification of the operator identity catalog) and data
(generate or preview initial data).  Every run writes a manifest that
echoes the fully resolved configuration, so artifact directories are
self-describing and reruns are diffable.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from .errors import (
    ConvergenceError,
    CuspwaveError,
    ParameterError,
    ParseError,
    QuadratureError,
)
from .fields import parse_fields
from .initial_data import (
    make_a1,
    make_a2,
    make_smooth,
    parse_data_spec,
)
from .linear_solver import (
    export_trajectory,
    load_trajectory,
    propagator_table,
    solve_homogeneous,
)
from .probe import (
    conormal_scan,
    decay_exponent,
    fit_power_law,
    ridge_extract,
)
from .semilinear import (
    NonlinearitySpec,
    PicardConfig,
    require_converged,
    solve_fourth_order,
    solve_second_order,
    solve_third_order,
)
from .spectral import (
    Field,
    Grid,
    dft_forward,
    save_field,
    sobolev_norm,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4

_CONFIG_ERRORS = (CuspwaveError, FileNotFoundError, NotADirectoryError,
                  ValueError)
_NUMERIC_ERRORS = (ConvergenceError, QuadratureError)


def _emit_error(exc) -> None:
    """One JSON-lines record per failure, on stderr.

    A ConvergenceError that carries its Picard report adds the iteration
    count and the iterate distances; a ParseError adds its file, its
    position and what was expected there.
    """
    record = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, ParseError):
        record.update(file=exc.path, line=exc.line, column=exc.column,
                      expected=exc.expected)
    report = getattr(exc, "report", None)
    if report is not None:
        record["iterations"] = report.iterations
        record["distances"] = list(report.iterate_distances)
    sys.stderr.write(json.dumps(record) + "\n")


def _read_config_file(path) -> dict:
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError("expected key = value", line=lineno,
                                 column=1, expected="key = value",
                                 path=str(path))
            key, value = (part.strip() for part in line.split("=", 1))
            values[key] = value
    return values


def _resolve(args, keys) -> dict:
    """Merge the defaults of keys (key -> (type, default)), config file
    values and explicit flags, typed."""
    resolved = {key: default for key, (_, default) in keys.items()}
    if args.config:
        for key, value in _read_config_file(args.config).items():
            if key not in keys:
                raise ParameterError("unknown config key %r" % key)
            resolved[key] = keys[key][0](value)
    for key, (kind, _) in keys.items():
        flag = getattr(args, key)
        if flag is not None:
            resolved[key] = kind(flag)
    return resolved


def _write_manifest(directory, command, cfg) -> None:
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "run_manifest.txt"), "w") as fh:
        fh.write("command = %s\n" % command)
        for key in sorted(cfg):
            fh.write("%s = %s\n" % (key, cfg[key]))


def _write_csv(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _build_grid(cfg) -> Grid:
    n = int(cfg["n"])
    return Grid(n, (int(cfg["N"]),) * n, float(cfg["L"]))


_MAKERS = {"A1": make_a1, "A2": make_a2, "smooth": make_smooth}


def _read_data_spec(path):
    with open(path) as fh:
        return parse_data_spec(fh.read(), path=str(path))


def _spectral_data(spec_path, grid) -> Field:
    spec = _read_data_spec(spec_path)
    return dft_forward(_MAKERS[spec.family](spec, grid))


def _zero_field(grid) -> Field:
    return Field(grid, np.zeros(grid.sizes, dtype=complex), "spectral")


def _nonlinearity(cfg) -> NonlinearitySpec:
    text = str(cfg.get("f_coefficients", "")).strip()
    coeffs = tuple(float(c) for c in text.split(",")) if text else ()
    return NonlinearitySpec(coefficients=coeffs)


def _parse_s_list(cfg):
    s_list = tuple(float(s) for s in str(cfg["s_list"]).split(","))
    if not np.all(np.isfinite(s_list)):
        raise ParameterError("--s-list entries must be finite, got %r"
                             % cfg["s_list"])
    return s_list


# -- solve ----------------------------------------------------------------

# each subcommand's keys: key -> (type, default), one --flag per key
_SOLVE_KEYS = {
    "m": (int, 1), "m1": (int, 2), "m2": (int, 1), "n": (int, 1),
    "N": (int, 64), "L": (float, np.pi), "T": (float, 0.5),
    "n_t": (int, 65), "max_iters": (int, 40), "tol": (float, 1e-10),
    "s_mon": (float, 0.0), "data": (str, ""), "data_dt": (str, ""),
    "data_2": (str, ""), "data_3": (str, ""), "f_coefficients": (str, ""),
    "s_list": (str, "0"), "out": (str, "run"),
}


def _picard_rows(report) -> list:
    """picard.csv: one row per step; ratio d_i / d_(i-1) is empty on row 0
    and where d_(i-1) is 0."""
    ds = report.iterate_distances
    rows = [["iteration", "distance", "ratio", "wall_seconds"]]
    for i, (d, wall) in enumerate(zip(ds, report.wall_times)):
        ratio = repr(d / ds[i - 1]) if i and ds[i - 1] else ""
        rows.append([i, repr(d), ratio, repr(wall)])
    return rows


def cmd_solve(args) -> int:
    cfg = _resolve(args, _SOLVE_KEYS)
    s_list = _parse_s_list(cfg)
    kind = args.kind
    grid = _build_grid(cfg)
    pic = PicardConfig(T=float(cfg["T"]), n_t=int(cfg["n_t"]),
                       max_iters=int(cfg["max_iters"]),
                       tol=float(cfg["tol"]), s_mon=float(cfg["s_mon"]))

    def data_or_zero(key):
        path = str(cfg[key]).strip()
        return _spectral_data(path, grid) if path else _zero_field(grid)

    phi0 = data_or_zero("data")
    phi1 = data_or_zero("data_dt")
    out = str(cfg["out"])
    report = None
    if kind == "linear":
        times = pic.times()
        table = propagator_table(int(cfg["m"]), times, grid.xi_norm())
        traj = solve_homogeneous(table, phi0, phi1, times)
    elif kind == "second":
        traj, report = solve_second_order(
            int(cfg["m"]), _nonlinearity(cfg), phi0, phi1, pic)
    elif kind == "third":
        traj, report = solve_third_order(
            int(cfg["m"]), _nonlinearity(cfg), phi0, phi1,
            data_or_zero("data_2"), pic)
    else:
        traj, report = solve_fourth_order(
            int(cfg["m1"]), int(cfg["m2"]), _nonlinearity(cfg),
            phi0, phi1, data_or_zero("data_2"), data_or_zero("data_3"), pic)
    _write_manifest(out, "solve %s" % kind, cfg)
    export_trajectory(out, traj, s_list=s_list)
    if report is not None:
        _write_csv(os.path.join(out, "picard.csv"), _picard_rows(report))
        require_converged(report)
    return EXIT_OK


# -- probe ----------------------------------------------------------------

_PROBE_KEYS = {
    "traj": (str, "run"), "m": (int, 1), "threshold": (float, 0.5),
    "depth": (int, 1), "s": (float, 0.0), "fields": (str, "V0"),
    "out": (str, "probe"),
}


def cmd_probe(args) -> int:
    cfg = _resolve(args, _PROBE_KEYS)
    traj = load_trajectory(str(cfg["traj"]))
    fields = parse_fields(cfg["fields"], int(cfg["m"]), traj.grid.n)
    s = float(cfg["s"])
    # nothing is written until the ridge and the scan (which checks the
    # depth) have both succeeded
    points = ridge_extract(traj, threshold=float(cfg["threshold"]))
    table = conormal_scan(traj, fields, depth=int(cfg["depth"]), s=s)
    out = str(cfg["out"])
    _write_manifest(out, "probe", cfg)
    ridge = os.path.join(out, "ridge.csv")
    _write_csv(ridge, [["t", "coords", "strength"]] + [
        [repr(t), " ".join(repr(x) for x in xs), repr(strength)]
        for t, xs, strength in points])
    with open(ridge + ".gp", "w") as fh:
        fh.write('set datafile separator ","\n'
                 'plot "%s" using 1:2 with points title "ridge"\n' % ridge)
    _write_csv(os.path.join(out, "scan.csv"), [["word", "s", "sup_norm"]] + [
        [word or "(id)", repr(s), repr(norm)] for word, norm in table.items()])
    return EXIT_OK


# -- rates ----------------------------------------------------------------

# s1 unset means the critical index m / (2(m+2)); an explicit 0 stays 0
_RATES_KEYS = {
    "m": (int, 1), "s1": (float, None), "N": (int, 1024), "L": (float, np.pi),
    "t_lo": (float, 0.3), "t_hi": (float, 3.0), "n_t": (int, 17),
    "width": (float, 0.5), "out": (str, "rates"),
}


def cmd_rates(args) -> int:
    cfg = _resolve(args, _RATES_KEYS)
    m = int(cfg["m"])
    if cfg["s1"] is None:
        cfg["s1"] = m / (2 * (m + 2))
    s1 = float(cfg["s1"])
    if not float(cfg["width"]) > 0:
        raise ParameterError("rates needs a positive --width")
    grid = Grid(1, (int(cfg["N"]),), float(cfg["L"]))
    x = grid.coords()[0]
    jump = np.where(x >= 0, 1.0, -1.0) * np.exp(-(x / float(cfg["width"])) ** 2)
    phi = dft_forward(Field(grid, jump))
    times = np.geomspace(float(cfg["t_lo"]), float(cfg["t_hi"]),
                         int(cfg["n_t"]))
    all_times = np.concatenate(([0.0], times))
    traj = solve_homogeneous(propagator_table(m, all_times, grid.xi_norm()),
                             phi, _zero_field(grid), all_times)
    fit = fit_power_law(times, sobolev_norm(traj, s1 + 1.0)[1:])
    out = str(cfg["out"])
    _write_manifest(out, "rates", cfg)
    _write_csv(os.path.join(out, "fits.csv"), [
        ["lemma", "expected", "fitted", "r2"],
        ["homogeneous-derivative-loss", repr(decay_exponent(m)),
         repr(fit.exponent), repr(fit.r2)]])
    return EXIT_OK


# -- opalg ----------------------------------------------------------------

_OPALG_KEYS = {"m": (int, 1), "n": (int, 2), "pair": (str, ""),
               "out": (str, "")}


def cmd_opalg(args) -> int:
    # imported here so that the numeric commands do not load sympy
    from .opalg import catalog_verify

    cfg = _resolve(args, _OPALG_KEYS)
    pair = str(cfg["pair"]).strip()
    if pair:
        parts = pair.split(",")
        if len(parts) != 2:
            raise ParameterError("--pair expects two integers, e.g. 3,1")
        selector = (int(parts[0]), int(parts[1]))
    else:
        selector = int(cfg["m"])
    rows = catalog_verify(selector, int(cfg["n"]))
    out = str(cfg["out"]).strip()
    lines = [["name", "status", "residual_terms", "expected", "ok", "detail"]]
    lines += [[row.name, row.status, row.residual_terms, row.expected,
               row.ok, row.detail] for row in rows]
    if out:
        _write_manifest(out, "opalg verify", cfg)
        _write_csv(os.path.join(out, "catalog.csv"), lines)
    else:
        csv.writer(sys.stdout).writerows(lines)
    checked = [r for r in rows if r.expected != "asserted"]
    failed = [r for r in checked if not r.ok]
    asserted = len(rows) - len(checked)
    print("checked %d identities: %d passed, %d failed, %d asserted only"
          % (len(checked), len(checked) - len(failed), len(failed), asserted),
          file=sys.stderr)
    for row in failed:
        print("  FAILED: %s (%s)" % (row.name, row.status), file=sys.stderr)
    return EXIT_VERIFY if failed else EXIT_OK


# -- data -----------------------------------------------------------------

_DATA_KEYS = {"spec": (str, ""), "n": (int, 1), "N": (int, 64),
              "L": (float, np.pi), "out": (str, "data"), "preview": (int, 0)}


def cmd_data(args) -> int:
    cfg = _resolve(args, _DATA_KEYS)
    path = str(cfg["spec"]).strip()
    if not path:
        raise ParameterError("data command needs --spec")
    spec = _read_data_spec(path)
    grid = _build_grid(cfg)
    field = _MAKERS[spec.family](spec, grid)
    if int(cfg["preview"]):
        print("family = %s" % spec.family)
        print("l2 = %r" % sobolev_norm(dft_forward(field), 0.0))
        print("extrema = %r %r" % (float(np.min(field.values.real)),
                                   float(np.max(field.values.real))))
        return EXIT_OK
    out = str(cfg["out"])
    _write_manifest(out, "data", cfg)
    save_field(os.path.join(out, "data.cwgrid"), field)
    return EXIT_OK


# -- entry point ----------------------------------------------------------

# name, help, positional argument (name, choices) or None, keys, handler
_COMMANDS = (
    ("solve", "run a solver",
     ("kind", ("linear", "second", "third", "fourth")), _SOLVE_KEYS,
     cmd_solve),
    ("probe", "analyze a stored trajectory", None, _PROBE_KEYS, cmd_probe),
    ("rates", "fit decay rates", None, _RATES_KEYS, cmd_rates),
    ("opalg", "verify operator identities", ("action", ("verify",)),
     _OPALG_KEYS, cmd_opalg),
    ("data", "generate or preview initial data", None, _DATA_KEYS, cmd_data),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cuspwave",
        description="pseudospectral solves and exact operator checks for "
                    "degenerate hyperbolic equations")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, positional, keys, handler in _COMMANDS:
        command = sub.add_parser(name, help=help_text)
        if positional is not None:
            command.add_argument(positional[0], choices=positional[1])
        command.add_argument("--config")
        for key in keys:
            command.add_argument("--" + key.replace("_", "-"), dest=key)
        command.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _NUMERIC_ERRORS as exc:  # CuspwaveErrors too: catch them first
        _emit_error(exc)
        return EXIT_NUMERIC
    except _CONFIG_ERRORS as exc:
        _emit_error(exc)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
