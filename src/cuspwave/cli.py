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
import errno
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
from .initial_data import FAMILIES, parse_data_spec, read_key_values
from .linear_solver import export_trajectory, load_trajectory, solve_linear
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
from .spectral import Field, Grid, half_forward, save_field, sobolev_norm

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4

_CONFIG_ERRORS = (CuspwaveError, OSError, ValueError)
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


def _read(path, parse):
    """parse(text, path) of the text file at path."""
    with open(path) as fh:
        return parse(fh.read(), str(path))


def _resolve(args) -> dict:
    """Merge the defaults of the command's keys (args.keys, key -> (parser,
    default)), config file values and explicit flags, each parsed once.

    An out that names an existing file other than a directory is an error
    here, before the command does any work (unless it only previews)."""
    keys = args.keys
    resolved = {key: default for key, (_, default) in keys.items()}
    texts = [(key, entry[0]) for key, entry in
             _read(args.config, read_key_values).items()] if args.config else []
    texts += [(key, getattr(args, key)) for key in keys
              if getattr(args, key) is not None]
    for key, text in texts:
        if key not in keys:
            raise ParameterError("unknown config key %r" % key)
        try:
            resolved[key] = keys[key][0](text)
        except ValueError as exc:
            raise ParameterError("%s: cannot read %r (%s)"
                                 % (key, text, exc)) from None
    out = resolved.get("out", "").strip()
    if out and not resolved.get("preview") and os.path.exists(out) \
            and not os.path.isdir(out):
        raise FileExistsError(errno.EEXIST, "out names an existing file", out)
    return resolved


class _Entries(tuple):
    """The finite entries of a comma-separated value, each read by entry
    (none for blank text); str() gives back the text, so the manifest echo
    reads back as the same value."""

    def __new__(cls, text, entry=float):
        self = super().__new__(
            cls, map(entry, text.split(",")) if text.strip() else ())
        if not all(abs(x) < float("inf") for x in self):
            raise ValueError("entries must be finite")
        self.text = text
        return self

    def __str__(self):
        return self.text


def _s_list(text) -> _Entries:
    if not text.strip():
        raise ValueError("needs at least one index")
    return _Entries(text)


def _pair(text) -> _Entries:
    pair = _Entries(text, int)
    if len(pair) not in (0, 2):
        raise ValueError("expects two integers, e.g. 3,1")
    return pair


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
    return Grid(cfg["n"], (cfg["N"],) * cfg["n"], cfg["L"])


def _data_field(path, grid) -> Field:
    spec = _read(path, parse_data_spec)
    return FAMILIES[spec.family][0](spec, grid)


def _zero_field(grid) -> Field:
    return Field(grid, np.zeros(grid.sizes))


def _nonlinearity(cfg) -> NonlinearitySpec:
    return NonlinearitySpec(coefficients=tuple(cfg["f_coefficients"]))


# -- solve ----------------------------------------------------------------

# each command's keys: key -> (parser of the key's text, default), one
# --flag per key; a parser raises ValueError on text it cannot read
_GRID_KEYS = {"n": (int, 1), "N": (int, 64), "L": (float, np.pi)}
_SOLVE_COMMON = {**_GRID_KEYS, "T": (float, 0.5), "n_t": (int, 65),
                 "data": (str, ""), "data_dt": (str, ""),
                 "s_list": (_s_list, _s_list("0")), "out": (str, "run")}
_PICARD_KEYS = {"max_iters": (int, 40), "tol": (float, 1e-10),
                "s_mon": (float, 0.0),
                "f_coefficients": (_Entries, _Entries(""))}
_LINEAR_KEYS = {**_SOLVE_COMMON, "m": (int, 1)}
_SECOND_KEYS = {**_LINEAR_KEYS, **_PICARD_KEYS}
_THIRD_KEYS = {**_SECOND_KEYS, "data_2": (str, "")}
_FOURTH_KEYS = {**_SOLVE_COMMON, **_PICARD_KEYS, "m1": (int, 2),
                "m2": (int, 1), "data_2": (str, ""), "data_3": (str, "")}


# kind -> (keys, solver(cfg, Picard config, *data) -> (trajectory, Picard
# report or None)); the data are the kind's keys among data, data_dt,
# data_2 and data_3, in that order
_SOLVE_KINDS = {
    "linear": (_LINEAR_KEYS, lambda cfg, pic, *data: (
        solve_linear(cfg["m"], *data, pic.times()), None)),
    "second": (_SECOND_KEYS, lambda cfg, pic, *data: solve_second_order(
        cfg["m"], _nonlinearity(cfg), *data, pic)),
    "third": (_THIRD_KEYS, lambda cfg, pic, *data: solve_third_order(
        cfg["m"], _nonlinearity(cfg), *data, pic)),
    "fourth": (_FOURTH_KEYS, lambda cfg, pic, *data: solve_fourth_order(
        cfg["m1"], cfg["m2"], _nonlinearity(cfg), *data, pic)),
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
    cfg = _resolve(args)
    grid = _build_grid(cfg)
    # linear reads only the time grid of it; the defaults fill the rest
    pic = PicardConfig(**{key: cfg[key] for key in
                          ("T", "n_t", "max_iters", "tol", "s_mon")
                          if key in cfg})
    paths = [cfg[key].strip() for key in
             ("data", "data_dt", "data_2", "data_3") if key in cfg]
    data = [_data_field(p, grid) if p else _zero_field(grid) for p in paths]
    traj, report = _SOLVE_KINDS[args.kind][1](cfg, pic, *data)
    out = cfg["out"]
    _write_manifest(out, "solve %s" % args.kind, cfg)
    export_trajectory(out, traj, s_list=cfg["s_list"])
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
    cfg = _resolve(args)
    traj = load_trajectory(cfg["traj"])
    fields = parse_fields(cfg["fields"], cfg["m"], traj.grid.n)
    # nothing is written until both (the scan checks the depth) have succeeded
    points = ridge_extract(traj, threshold=cfg["threshold"])
    table = conormal_scan(traj, fields, depth=cfg["depth"], s=cfg["s"])
    out = cfg["out"]
    _write_manifest(out, "probe", cfg)
    ridge = os.path.join(out, "ridge.csv")
    _write_csv(ridge, [["t", "coords", "strength"]] + [
        [repr(t), " ".join(repr(x) for x in xs), repr(strength)]
        for t, xs, strength in points])
    with open(ridge + ".gp", "w") as fh:
        fh.write('set datafile separator ","\n'
                 'plot "%s" using 1:2 with points title "ridge"\n' % ridge)
    _write_csv(os.path.join(out, "scan.csv"), [["word", "s", "sup_norm"]] + [
        [word or "(id)", repr(cfg["s"]), repr(norm)]
        for word, norm in table.items()])
    return EXIT_OK


# -- rates ----------------------------------------------------------------

# s1 unset means the critical index m / (2(m+2)); an explicit 0 stays 0
_RATES_KEYS = {
    "m": (int, 1), "s1": (float, None), "N": (int, 1024), "L": (float, np.pi),
    "t_lo": (float, 0.3), "t_hi": (float, 3.0), "n_t": (int, 17),
    "width": (float, 0.5), "out": (str, "rates"),
}


def cmd_rates(args) -> int:
    cfg = _resolve(args)
    m = cfg["m"]
    if cfg["s1"] is None:
        cfg["s1"] = m / (2 * (m + 2))
    for ok, rule in ((cfg["width"] > 0, "a positive --width"),
                     (cfg["t_lo"] > 0, "a positive --t-lo"),
                     (cfg["t_lo"] < cfg["t_hi"] < np.inf,
                      "a finite --t-hi > --t-lo"),
                     (cfg["n_t"] >= 5, "--n-t >= 5 for its fit")):
        if not ok:
            raise ParameterError("rates needs %s" % rule)
    grid = Grid(1, (cfg["N"],), cfg["L"])
    x = grid.coords()[0]
    jump = np.where(x >= 0, 1.0, -1.0) * np.exp(-(x / cfg["width"]) ** 2)
    times = np.geomspace(cfg["t_lo"], cfg["t_hi"], cfg["n_t"])
    traj = solve_linear(m, Field(grid, jump), _zero_field(grid),
                        np.concatenate(([0.0], times)))
    fit = fit_power_law(times, sobolev_norm(traj.u, grid, cfg["s1"] + 1.0)[1:])
    out = cfg["out"]
    _write_manifest(out, "rates", cfg)
    _write_csv(os.path.join(out, "fits.csv"), [
        ["lemma", "expected", "fitted", "r2"],
        ["homogeneous-derivative-loss", repr(decay_exponent(m)),
         repr(fit.exponent), repr(fit.r2)]])
    return EXIT_OK


# -- opalg ----------------------------------------------------------------

# m unset means 1 unless a pair is given; m and a pair together are an error
_OPALG_KEYS = {"m": (int, None), "n": (int, 2), "pair": (_pair, _pair("")),
               "out": (str, "")}


def cmd_opalg(args) -> int:
    # imported here so that the numeric commands do not load the exact half
    from .opalg import catalog_verify, certificate_text

    cfg = _resolve(args)
    if cfg["pair"] and cfg["m"] is not None:
        raise ParameterError("opalg takes m or pair, not both")
    if cfg["pair"]:
        del cfg["m"]  # a pair run reads no m, so its manifest has none
    elif cfg["m"] is None:
        cfg["m"] = 1
    rows = catalog_verify(tuple(cfg["pair"]) or cfg["m"], cfg["n"])
    out = cfg["out"].strip()
    lines = [["name", "status", "residual_terms", "expected", "ok", "detail"]]
    lines += [[row.name, row.status, row.residual_terms, row.expected,
               row.ok, row.detail] for row in rows]
    if out:
        _write_manifest(out, "opalg verify", cfg)
        _write_csv(os.path.join(out, "catalog.csv"), lines)
        with open(os.path.join(out, "certificates.txt"), "w") as fh:
            fh.write(certificate_text(rows))
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

_DATA_KEYS = {"spec": (str, ""), **_GRID_KEYS, "out": (str, "data"),
              "preview": (int, 0)}


def cmd_data(args) -> int:
    cfg = _resolve(args)
    path = cfg["spec"].strip()
    if not path:
        raise ParameterError("data command needs --spec")
    spec = _read(path, parse_data_spec)
    grid = _build_grid(cfg)
    field = FAMILIES[spec.family][0](spec, grid)
    if cfg["preview"]:
        print("family = %s" % spec.family)
        print("l2 = %r" % sobolev_norm(half_forward(field.values, grid), grid, 0.0))
        print("extrema = %r %r" % (float(np.min(field.values)),
                                   float(np.max(field.values))))
        return EXIT_OK
    out = cfg["out"]
    _write_manifest(out, "data", cfg)
    save_field(os.path.join(out, "data.cwgrid"), field)
    return EXIT_OK


# -- entry point ----------------------------------------------------------

# name, help, handler, and the keys, or for a command with a positional
# argument that argument's name and its keys per choice
_COMMANDS = (
    ("solve", "run a solver", cmd_solve,
     ("kind", {kind: keys for kind, (keys, _) in _SOLVE_KINDS.items()})),
    ("probe", "analyze a stored trajectory", cmd_probe, _PROBE_KEYS),
    ("rates", "fit decay rates", cmd_rates, _RATES_KEYS),
    ("opalg", "verify operator identities", cmd_opalg,
     ("action", {"verify": _OPALG_KEYS})),
    ("data", "generate or preview initial data", cmd_data, _DATA_KEYS),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cuspwave",
        description="pseudospectral solves and exact operator checks for "
                    "degenerate hyperbolic equations")
    sub = parser.add_subparsers(dest="command", required=True)
    # no abbreviated flags: an unread key must not pass for a read one
    for name, help_text, handler, keys in _COMMANDS:
        command = sub.add_parser(name, help=help_text, allow_abbrev=False)
        leaves = [(command, keys)]
        if not isinstance(keys, dict):
            positional, tables = keys
            choices = command.add_subparsers(dest=positional, required=True)
            leaves = [(choices.add_parser(choice, allow_abbrev=False), table)
                      for choice, table in tables.items()]
        for leaf, table in leaves:
            leaf.add_argument("--config")
            for key in table:
                leaf.add_argument("--" + key.replace("_", "-"), dest=key)
            leaf.set_defaults(func=handler, keys=table)
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
