"""Command-line front end.

Reads an INI run configuration, executes the requested computation or
sweep, and writes a CSV or JSON table.  CSV output starts with a
'#'-prefixed comment block recording the fully resolved configuration, so
a result file is self-describing; values are printed with 17 significant
digits.  Validity diagnostics go to stderr, never into the table.

Exit codes: 0 success, 2 config parse error or an output file that cannot
be written, 3 physics domain error, 4 convergence failure (partial results
are still written, flagged).
"""

import argparse
import dataclasses
import json
import math
import sys
from functools import lru_cache

from .config import (_READS, ConfigError, RunConfig, describe_config,
                     load_config, substitute, visited_range)
from .electrostatics import asymmetric_electric_force
from .engine import force, gradient
from .geometry import Environment, rotation_factor, validate_geometry
from .oscillator import frequency_shift_for_variant, frequency_shift_linear
from .specfun import ConvergenceError


def thermal_correction(force_t: float, force_t0: float) -> float:
    """Fractional thermal contribution (F(T) - F(0)) / F(T).

    Normalizing by the full thermal force keeps the measure bounded as the
    thermal part grows to dominate at large separation.
    """
    return (force_t - force_t0) / force_t


# ---------------------------------------------------------------------------
# per-command row builders.  Each returns (column names, point list, worker);
# the worker maps one sweep point to one row of plain numbers.

def _plan_force(cfg: RunConfig):
    grad = cfg.command == "gradient"
    value_cols = (["gradient_N_per_m", "gradient_T0_N_per_m"] if grad
                  else ["force_N", "force_T0_N"])
    columns = ["a_m", "T_K"] + value_cols + ["thermal_correction",
                                             "est_abs_error", "terms_used"]

    @lru_cache(maxsize=None)  # this run only: a T sweep shares its T = 0 row
    def compute(geom, env):
        return (gradient if grad else force)(geom, env, cfg.material,
                                             cfg.quadrature)

    def worker(x):
        geom, env, _, _ = substitute(cfg, x)
        res = compute(geom, env)
        res_t0 = compute(geom, Environment(a=env.a, T=0.0))
        corr = thermal_correction(res.value, res_t0.value) if env.T > 0.0 else 0.0
        return [env.a, env.T, res.value, res_t0.value, corr,
                res.est_abs_error, res.terms_used]

    return columns, worker


def _plan_efield(cfg: RunConfig):
    columns = ["a_m", "V_volt", "V0_volt", "force_N"]

    def worker(x):
        geom, env, _, bias = substitute(cfg, x)
        return [env.a, bias.V, bias.V0,
                asymmetric_electric_force(geom, env, bias)]

    return columns, worker


def _plan_freq_shift(cfg: RunConfig):
    columns = ["a_m", "T_K", "Az_m", "delta_omega2_rad2_per_s2",
               "delta_omega2_linear_rad2_per_s2", "omega_r_linear_rad_per_s"]
    linear = {}  # for this run only: the linear shift does not depend on Az

    def worker(x):
        geom, env, osc, _ = substitute(cfg, x)
        nonlin = frequency_shift_for_variant(geom, env, cfg.material, osc,
                                             cfg.quadrature)
        if (key := (geom, env, osc.C, osc.omega0)) not in linear:
            linear[key] = frequency_shift_linear(geom, env, cfg.material, osc,
                                                 cfg.quadrature)
        lin = linear[key]
        return [env.a, env.T, osc.Az, nonlin, lin.delta_omega2, lin.omega_r]

    return columns, worker


def _plan_ratio_sweep(cfg: RunConfig):
    columns = ["phi_rad"] + [f"G_A_over_B_{r:g}" for r in cfg.ratios]

    def worker(phi):
        row = [float(phi)]
        for r in cfg.ratios:
            row.append(rotation_factor(r, 1.0, float(phi)).G)
        return row

    return columns, worker


_PLANS = {
    "force": _plan_force,
    "gradient": _plan_force,
    "efield": _plan_efield,
    "freq-shift": _plan_freq_shift,
    "ratio-sweep": _plan_ratio_sweep,
}


def run_command(cfg: RunConfig, threads: int = 1):
    """Execute the configured command, one sweep point after the other.

    Returns (columns, rows, failure).  failure is None on full success or
    the ConvergenceError that cut the sweep short; rows then hold the points
    completed before it (in sweep order).  A row that is not finite or
    raises ArithmeticError raises ValueError naming it.  threads is ignored;
    it is kept only because perfbench/workloads.py still passes it.
    """
    columns, worker = _PLANS[cfg.command](cfg)
    points = cfg.sweep.points() if cfg.sweep is not None else [None]
    rows = []
    failure = None
    for i, x in enumerate(points, start=1):
        try:
            row = worker(x)
            if not all(map(math.isfinite, row)):
                raise ArithmeticError(f"not finite: {dict(zip(columns, row))}")
        except ConvergenceError as exc:
            failure = exc
            break
        except ArithmeticError as exc:
            at = "" if x is None else f" ({cfg.sweep.variable} = {x:g})"
            raise ValueError(f"row {i}{at}: {exc}") from exc
        rows.append(row)
    return columns, rows, failure


# ---------------------------------------------------------------------------
# emission

def format_csv(cfg: RunConfig, columns, rows, partial: bool = False) -> str:
    lines = ["# casimir-lens result table"]
    lines += [f"# {line}" for line in describe_config(cfg)]
    if partial:
        lines.append("# partial = true  (convergence failure; rows below are "
                      "the completed sweep prefix)")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(
            str(v) if isinstance(v, int) else format(v, ".17g") for v in row))
    return "\n".join(lines) + "\n"


def format_json(cfg: RunConfig, columns, rows, partial: bool = False) -> str:
    doc = {
        "config": describe_config(cfg),
        "columns": list(columns),
        "rows": [[v for v in row] for row in rows],
        "partial": partial,
    }
    return json.dumps(doc, indent=2) + "\n"


def _emit(cfg: RunConfig, columns, rows, path, fmt, partial=False) -> None:
    text = (format_json if fmt == "json" else format_csv)(cfg, columns, rows,
                                                          partial)
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _warn_validity(cfg: RunConfig, quiet: bool) -> None:
    if quiet or cfg.geometry is None or cfg.environment is None:
        return
    seen = set()
    for a in visited_range(cfg, "a"):
        env = Environment(a=a, T=cfg.environment.T)
        for msg in validate_geometry(cfg.geometry, env).warnings:
            if msg not in seen:
                seen.add(msg)
                print(f"warning: {msg}", file=sys.stderr)


# ---------------------------------------------------------------------------
# argument handling

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="casimir-lens",
        description="Casimir force, gradient, calibration force and "
                    "oscillator frequency shift for a cylindrical lens "
                    "above a plate.")
    p.add_argument("--config", required=True, help="INI run configuration")
    p.add_argument("--output", help="output file (default: stdout or the "
                                    "config's [output] path)")
    p.add_argument("--format", choices=("csv", "json"),
                   help="override the output format")
    p.add_argument("--tolerance", type=float,
                   help="relative tolerance override for the frequency sums")
    p.add_argument("--quiet", action="store_true",
                   help="suppress validity warnings on stderr")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.tolerance is not None:
            if "quadrature" not in _READS[cfg.command]:
                raise ConfigError("--tolerance is not read by command "
                                  f"'{cfg.command}'")
            cfg = dataclasses.replace(
                cfg, quadrature=dataclasses.replace(cfg.quadrature,
                                                    rel_tol=args.tolerance))
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    path = args.output if args.output is not None else cfg.output_path
    fmt = args.format if args.format is not None else cfg.output_format

    _warn_validity(cfg, args.quiet)
    try:
        columns, rows, failure = run_command(cfg)
    except ValueError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3

    if failure is not None:
        print(f"convergence failure: {failure}", file=sys.stderr)
    try:
        _emit(cfg, columns, rows, path, fmt, partial=failure is not None)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    return 0 if failure is None else 4


def entry() -> None:
    raise SystemExit(main())
