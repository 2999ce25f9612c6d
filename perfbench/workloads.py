"""The benchmark's workloads: inputs made from a seed, one result table per
pass, and the accuracy gate each table is held to.

Three workloads are CLI sweeps, run in-process through
``cli.run_command`` and ``cli.format_csv`` exactly as the command line runs
them after parsing its INI file.  The fourth calls the three brute-force
oracles through the public API.  Why each workload exists, and which layer
it stresses, is written up in README.md next to this file.

The seed moves sweep end points inward by a random fraction of one log
step.  The end that dominates the cost (3 K in cryo-sweep, Az/a = 0.99 in
freq-shift) stays put, so run time does not drift with the seed.  Seed 0
gives the nominal grids, whose values are stored in reference_seed0.json.
"""

import dataclasses
import math
import random

import casimir_lens as cl
from casimir_lens import cli

from gate import Check, Evaluation

REF_REL_TOL = 1e-13
NOMINAL_SEED = 0

_LENS = """\
[geometry]
A = 100e-6
B = 100e-6
L = 1e-3
"""


def _ini(command: str, model: str, a: float, T: float, extra: str = "") -> str:
    return (f"[run]\ncommand = {command}\n\n{_LENS}\n"
            f"[material]\nmodel = {model}\n\n"
            f"[environment]\na = {a!r}\nT = {T!r}\n{extra}")


def _log_sweep(rng, variable, start, stop, count, start_frac, stop_frac) -> str:
    """[sweep] section over [start, stop], ends moved inward by the seed.

    start moves up by at most start_frac and stop down by at most stop_frac
    of one log step; rng None keeps the nominal ends.
    """
    if rng is not None:
        step = math.log(stop / start) / (count - 1)
        start = start * math.exp(rng.uniform(0.0, start_frac) * step)
        stop = stop * math.exp(-rng.uniform(0.0, stop_frac) * step)
    return (f"\n[sweep]\nvariable = {variable}\nstart = {start!r}\n"
            f"stop = {stop!r}\ncount = {count}\nspacing = log\n")


def _rng(seed: int):
    return None if seed == NOMINAL_SEED else random.Random(seed)


def _finite(row) -> bool:
    return all(math.isfinite(v) for v in row)


@dataclasses.dataclass
class TableOutput:
    """What one command printed: rows, the failure that cut them short, CSV."""

    rows: list
    failure: str | None
    text: str


class CliWorkload:
    """A set of INI configs, each run through run_command and format_csv."""

    name = "cli"
    threads2 = False  # measure cli.threads2_speedup on this workload
    required = ("config.parse", "cli.run_command", "cli.format",
                "engine.finite_t", "materials.reflection", "specfun.polylog")

    def __init__(self, labels, texts):
        self.labels = list(labels)
        self.texts = list(texts)
        self.cfgs = self.parse()

    def parse(self):
        return [cl.parse_config(t, origin=lab)
                for lab, t in zip(self.labels, self.texts)]

    def table(self, threads: int = 1) -> list:
        out = []
        for cfg in self.cfgs:
            try:
                columns, rows, failure = cli.run_command(cfg, threads=threads)
                text = cli.format_csv(cfg, columns, rows,
                                      partial=failure is not None)
            except Exception as exc:  # a raising evaluation is counted, not fatal
                out.append(TableOutput([], f"{type(exc).__name__}: {exc}", ""))
                continue
            fail = None if failure is None else f"ConvergenceError: {failure}"
            out.append(TableOutput(rows, fail, text))
        return out

    # -- references -------------------------------------------------------

    def _points(self, cfg):
        if cfg.sweep is None:
            return [None]
        return [float(x) for x in cfg.sweep.points()]

    @staticmethod
    def _at(cfg, x):
        """Environment and oscillator of one sweep point."""
        env, osc = cfg.environment, cfg.oscillator
        var = cfg.sweep.variable if cfg.sweep is not None else None
        if var == "a":
            env = cl.Environment(a=x, T=env.T)
        elif var == "T":
            env = cl.Environment(a=env.a, T=x)
        elif var == "Az":
            osc = dataclasses.replace(osc, Az=x)
        return env, osc

    def references(self, companions: bool = False) -> dict:
        """Each row's value from the same library call at rel_tol = 1e-13.

        With companions, force and gradient rows also get the T = 0 value
        the row carries, which rel_tol does not reach; those are stored for
        the nominal seed only.
        """
        refs = {}
        for label, cfg in zip(self.labels, self.cfgs):
            quad = dataclasses.replace(cfg.quadrature, rel_tol=REF_REL_TOL)
            for i, x in enumerate(self._points(cfg)):
                env, osc = self._at(cfg, x)
                ref = {"point": x}
                if cfg.command == "freq-shift":
                    ref["value"] = cl.frequency_shift_for_variant(
                        cfg.geometry, env, cfg.material, osc, quad)
                else:
                    fn = (cl.casimir_gradient if cfg.command == "gradient"
                          else cl.casimir_force)
                    ref["value"] = fn(cfg.geometry, env, cfg.material, quad).value
                    if companions:
                        env0 = cl.Environment(a=env.a, T=0.0)
                        ref["t0"] = fn(cfg.geometry, env0, cfg.material, quad).value
                refs[f"{label}[{i}]"] = ref
        return refs

    # -- gate ---------------------------------------------------------------

    def evaluations(self, outputs: list, refs: dict, stored: dict | None) -> list:
        evals = []
        for label, cfg, out in zip(self.labels, self.cfgs, outputs):
            rel_tol = cfg.quadrature.rel_tol
            for i, x in enumerate(self._points(cfg)):
                key = f"{label}[{i}]"
                name = key if x is None else f"{key} {cfg.sweep.variable}={x:.4g}"
                if i >= len(out.rows):
                    evals.append(Evaluation(name, error=out.failure or "no row"))
                    continue
                row = out.rows[i]
                if not _finite(row):
                    evals.append(Evaluation(name, error=f"non-finite row {row}"))
                    continue
                evals.append(Evaluation(name, self._checks(
                    cfg.command, row, refs[key],
                    None if stored is None else stored[key], rel_tol)))
        return evals

    @staticmethod
    def _checks(command, row, ref, stored, rel_tol) -> list:
        if command == "freq-shift":
            value = row[3]
            checks = [Check("ref", value, ref["value"], rel_tol * abs(ref["value"]))]
            if stored is not None:
                checks.append(Check("stored", value, stored["value"],
                                    rel_tol * abs(stored["value"])))
            return checks
        value, value_t0, est = row[2], row[3], row[5]
        checks = [Check("ref", value, ref["value"], est)]
        if stored is not None:
            checks.append(Check("stored", value, stored["value"], est))
            checks.append(Check("stored_t0", value_t0, stored["t0"],
                                rel_tol * abs(stored["t0"])))
        return checks


class ForceSweep(CliWorkload):
    """The paper's table: Drude force and plasma gradient against a."""

    name = "force-sweep"
    threads2 = True
    required = CliWorkload.required + ("engine.zero_t",)

    def __init__(self, seed: int):
        sweep = _log_sweep(_rng(seed), "a", 150e-9, 5e-6, 16, 0.5, 0.5)
        super().__init__(
            ["force", "gradient"],
            [_ini("force", "drude", 150e-9, 300.0, sweep),
             _ini("gradient", "plasma", 150e-9, 300.0, sweep)])


class CryoSweep(CliWorkload):
    """Drude force at a = 200 nm from 3 K to 24 K: long Matsubara sums."""

    name = "cryo-sweep"
    required = CliWorkload.required + ("engine.zero_t",)

    def __init__(self, seed: int):
        sweep = _log_sweep(_rng(seed), "T", 3.0, 24.0, 4, 0.0, 0.1)
        super().__init__(["force"], [_ini("force", "drude", 200e-9, 3.0, sweep)])


_OSCILLATOR = "\n[oscillator]\nomega0 = 4400.0\nC = 10.0\nAz = {Az!r}\n"


class FreqShift(CliWorkload):
    """Nonlinear frequency shift against Az/a at 300 K, plus one T = 0 run."""

    name = "freq-shift"
    required = CliWorkload.required + ("oscillator.nonlinear",
                                       "specfun.bessel", "engine.zero_t")

    def __init__(self, seed: int):
        a = 200e-9
        sweep = _log_sweep(_rng(seed), "Az", 0.1 * a, 0.99 * a, 4, 0.5, 0.0)
        super().__init__(
            ["shift", "shift_t0"],
            [_ini("freq-shift", "drude", a, 300.0,
                  _OSCILLATOR.format(Az=0.1 * a) + sweep),
             _ini("freq-shift", "drude", a, 0.0,
                  _OSCILLATOR.format(Az=0.5 * a))])


class OracleCheck:
    """The three brute-force oracles against the production formulas.

    The inputs are fixed: the seed does not move them.
    """

    name = "oracle-check"
    threads2 = False
    required = ("engine.oracle", "oscillator.direct_oracle", "engine.entry",
                "engine.finite_t", "materials.reflection", "specfun.polylog")
    texts = ()

    PFA_BUDGET = 0.3  # oracle vs formula within 0.3 a/B (criterion 3)
    SHIFT_TOL = 1e-6  # shift oracle vs series (criterion 6)

    def __init__(self, seed: int):
        model = cl.gold_drude()
        lens = cl.symmetric_lens(100e-6, 100e-6, 1e-3)
        d = 0.9 * 150e-6
        rotated = cl.RotatedLens(A=150e-6, B=100e-6, phi=math.pi / 6,
                                 h=cl.thickness_for_width(150e-6, 100e-6, d),
                                 d=d, L=1e-3)
        env200 = cl.Environment(a=200e-9, T=300.0)
        env1u = cl.Environment(a=1e-6, T=300.0)
        osc = cl.OscillatorParams(omega0=4400.0, C=10.0, Az=0.5 * env200.a)
        # name: (oracle call, production call, relative bound)
        self.cases = {
            "pfa_oracle a=200nm": (
                lambda: cl.direct_pfa_force_oracle(lens, env200, model).value,
                lambda: cl.casimir_force(lens, env200, model).value,
                self.PFA_BUDGET * env200.a / lens.B),
            "rotated_oracle a=1um": (
                lambda: cl.rotated_direct_oracle(rotated, env1u, model).value,
                lambda: cl.rotated_force(rotated, env1u, model).value,
                self.PFA_BUDGET * env1u.a / rotated.B),
            "shift_oracle a=200nm Az/a=0.5": (
                lambda: cl.frequency_shift_direct_oracle(lens, env200, model, osc),
                lambda: cl.frequency_shift_nonlinear(lens, env200, model, osc),
                self.SHIFT_TOL),
        }
        self.rel_tol = cl.DEFAULT_QUADRATURE.rel_tol

    def parse(self):
        return []

    def table(self, threads: int = 1) -> list:
        out = []
        for oracle, _, _ in self.cases.values():
            try:
                out.append(oracle())
            except Exception as exc:  # a raising evaluation is counted, not fatal
                out.append(f"{type(exc).__name__}: {exc}")
        return out

    def references(self, companions: bool = False) -> dict:
        """Production values; with companions also this commit's oracle values."""
        refs = {name: {"value": production()}
                for name, (_, production, _) in self.cases.items()}
        if companions:
            for name, value in zip(self.cases, self.table()):
                refs[name]["oracle"] = value
        return refs

    def evaluations(self, outputs: list, refs: dict, stored: dict | None) -> list:
        evals = []
        for (name, (_, _, tol)), value in zip(self.cases.items(), outputs):
            if isinstance(value, str):
                evals.append(Evaluation(name, error=value))
                continue
            if not math.isfinite(value):
                evals.append(Evaluation(name, error=f"non-finite {value}"))
                continue
            checks = [Check("formula", value, refs[name]["value"], tol * abs(value))]
            if stored is not None:
                old = stored[name]["oracle"]
                checks.append(Check("stored", value, old, self.rel_tol * abs(old)))
            evals.append(Evaluation(name, checks))
        return evals


WORKLOADS = {w.name: w for w in (ForceSweep, CryoSweep, FreqShift, OracleCheck)}


def make(name: str, seed: int):
    return WORKLOADS[name](seed)
