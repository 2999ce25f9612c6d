"""Run configuration for the command line.

One INI file describes one run: flat key = value pairs under section
headers, no nesting.  All quantities are SI (meters, kelvin, radians,
volts, rad/s); floats accept scientific notation, so `a = 200e-9` is
200 nm.  A minimal force run:

    [run]
    command = force

    [geometry]
    A = 100e-6
    B = 100e-6
    L = 1e-3

    [material]
    model = drude

    [environment]
    a = 200e-9
    T = 300

Optional sections: [sweep] (variable, start, stop, count, spacing,
ratios), [oscillator] (omega0, Az, C or b + I), [efield] (V, V0),
[output] (path, format), [quadrature] (rel_tol, l_max).
"""

import configparser
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .electrostatics import BiasState
from .engine import _ZETA_MIN, DEFAULT_QUADRATURE, QuadratureSpec
from .geometry import (EllipticLens, Environment, LensGeometry, RotatedLens,
                       TwoHalvesLens, symmetric_lens, thickness_for_width)
from .materials import (Drude, GOLD_GAMMA_EV, GOLD_PLASMA_EV, IdealMetal,
                        PermittivityModel, Plasma, Tabulated)
from .constants import CONSTANTS, ev_to_rad_per_s
from .oscillator import OscillatorParams


class ConfigError(Exception):
    """Malformed or inconsistent run configuration."""


COMMANDS = ("force", "gradient", "efield", "freq-shift", "ratio-sweep")
SWEEP_VARIABLES = ("a", "T", "phi", "Az", "V")
# config name of each lens variant and material model, in both directions
LENS_VARIANTS = {"symmetric": EllipticLens, "two-halves": TwoHalvesLens,
                 "rotated": RotatedLens}
MATERIAL_MODELS = {"ideal": IdealMetal, "drude": Drude, "plasma": Plasma,
                   "tabulated": Tabulated}


@dataclass(frozen=True)
class SweepSpec:
    """Range of the swept variable; points are generated in sweep order."""

    variable: str
    start: float
    stop: float
    count: int
    spacing: str = "linear"

    def __post_init__(self) -> None:
        if self.variable not in SWEEP_VARIABLES:
            raise ConfigError(f"sweep variable must be one of {SWEEP_VARIABLES}, "
                              f"got {self.variable!r}")
        if not self.start < self.stop:
            raise ConfigError("sweep requires start < stop")
        if self.count < 2:
            raise ConfigError("sweep count must be at least 2")
        if self.spacing not in ("linear", "log"):
            raise ConfigError("sweep spacing must be 'linear' or 'log'")
        if self.spacing == "log" and not self.start > 0.0:
            raise ConfigError("log spacing requires start > 0")

    def points(self) -> np.ndarray:
        if self.spacing == "log":
            return np.geomspace(self.start, self.stop, self.count)
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class RunConfig:
    """Everything one command execution needs, fully validated."""

    command: str
    geometry: LensGeometry | None
    environment: Environment | None
    material: PermittivityModel
    quadrature: QuadratureSpec
    oscillator: OscillatorParams | None = None
    bias: BiasState | None = None
    sweep: SweepSpec | None = None
    ratios: tuple[float, ...] = ()
    output_path: str | None = None
    output_format: str = "csv"


def visited_range(cfg: RunConfig, variable: str,
                  value: float) -> tuple[float, float]:
    """(lo, hi) of a variable over the points the run visits.

    The sweep's start and stop when the variable is swept (linspace and
    geomspace put the end points exactly there), else the configured value.
    """
    if cfg.sweep is not None and cfg.sweep.variable == variable:
        return cfg.sweep.start, cfg.sweep.stop
    return value, value


def substitute(cfg: RunConfig, x: float | None):
    """Geometry, environment, oscillator and bias with the sweep variable at x.

    Without a sweep (x is None) they are the configured ones.  A value
    outside the variable's range raises the constructor's ValueError.
    """
    geom, env, osc, bias = cfg.geometry, cfg.environment, cfg.oscillator, cfg.bias
    if cfg.sweep is None:
        return geom, env, osc, bias
    var = cfg.sweep.variable
    if var == "a":
        env = Environment(a=float(x), T=env.T)
    elif var == "T":
        env = Environment(a=env.a, T=float(x))
    elif var == "phi":
        geom = replace(geom, phi=float(x))
    elif var == "Az":
        osc = replace(osc, Az=float(x))
    elif var == "V":
        bias = replace(bias, V=float(x))
    return geom, env, osc, bias


# ---------------------------------------------------------------------------
# low-level readers: every failure names the section and key

def _section(cp: configparser.ConfigParser, name: str, required: bool = False):
    if cp.has_section(name):
        return cp[name]
    if required:
        raise ConfigError(f"missing required section [{name}]")
    return None


_NOT_A = {float: "a number", int: "an integer"}


def _get(sect, key: str, kind=float, default=None, required=False):
    """sect[key] read as kind: float, int or a tuple of allowed words.

    A missing key gives default, or fails if required.
    """
    if key not in sect:
        if required:
            raise ConfigError(f"[{sect.name}] is missing required key '{key}'")
        return default
    raw = sect[key]
    if isinstance(kind, tuple):
        value = raw.strip().lower()
        if value not in kind:
            raise ConfigError(f"[{sect.name}] {key} must be one of {kind}, "
                              f"got {raw!r}")
        return value
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"[{sect.name}] {key} = {raw!r} is not "
                          f"{_NOT_A[kind]}") from None


# ---------------------------------------------------------------------------
# section parsers

def _parse_geometry(cp) -> LensGeometry | None:
    sect = _section(cp, "geometry")
    if sect is None:
        return None
    variant = _get(sect, "variant", tuple(LENS_VARIANTS), default="symmetric")
    L = _get(sect, "L", required=True)
    h = _get(sect, "h")
    d = _get(sect, "d")
    cls = LENS_VARIANTS[variant]
    # the variant's own keys: its semiaxes, and phi for the rotated lens
    own = {f.name: _get(sect, f.name, required=True) for f in fields(cls)
           if f.name not in ("h", "d", "L")}
    try:
        if cls is EllipticLens:  # derives d from h when only h is given
            return symmetric_lens(L=L, d=d, h=h, **own)
        halves = [(own[k], own["B" + k[1:]]) for k in own if k.startswith("A")]
        if d is None:
            d = 0.9 * min(A for A, _ in halves)
        if h is None:
            h = max(thickness_for_width(A, B, d) for A, B in halves)
        return cls(h=h, d=d, L=L, **own)
    except ValueError as exc:
        raise ConfigError(f"[geometry] {exc}") from None


def _parse_material(cp) -> PermittivityModel:
    sect = _section(cp, "material")
    if sect is None:
        return IdealMetal()
    model = _get(sect, "model", tuple(MATERIAL_MODELS), default="ideal")
    try:
        if model == "ideal":
            return IdealMetal()
        if model == "drude":
            wp = _get(sect, "omega_p_ev", default=GOLD_PLASMA_EV)
            gamma = _get(sect, "gamma_ev", default=GOLD_GAMMA_EV)
            return Drude(omega_p=ev_to_rad_per_s(wp), gamma=ev_to_rad_per_s(gamma))
        if model == "plasma":
            wp = _get(sect, "omega_p_ev", default=GOLD_PLASMA_EV)
            return Plasma(omega_p=ev_to_rad_per_s(wp))
        if "path" not in sect:
            raise ConfigError("[material] model = tabulated requires key 'path'")
        try:
            return Tabulated.from_file(sect["path"])
        except OSError as exc:
            raise ConfigError(f"[material] cannot read {sect['path']!r}: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"[material] {exc}") from None


def _parse_environment(cp) -> Environment | None:
    sect = _section(cp, "environment")
    if sect is None:
        return None
    a = _get(sect, "a", required=True)
    T = _get(sect, "T", default=300.0)
    try:
        return Environment(a=a, T=T)
    except ValueError as exc:
        raise ConfigError(f"[environment] {exc}") from None


def _parse_oscillator(cp) -> OscillatorParams | None:
    sect = _section(cp, "oscillator")
    if sect is None:
        return None
    omega0 = _get(sect, "omega0", required=True)
    Az = _get(sect, "Az", required=True)
    C = _get(sect, "C")
    b = _get(sect, "b")
    inertia = _get(sect, "I")
    try:
        if C is not None:
            if b is not None or inertia is not None:
                raise ConfigError("[oscillator] give either C or the pair b, I, "
                                  "not both")
            return OscillatorParams(omega0=omega0, C=C, Az=Az)
        if b is None or inertia is None:
            raise ConfigError("[oscillator] requires either C or both b and I")
        return OscillatorParams.torsional(omega0=omega0, b=b, I=inertia, Az=Az)
    except ValueError as exc:
        raise ConfigError(f"[oscillator] {exc}") from None


def _parse_bias(cp) -> BiasState | None:
    sect = _section(cp, "efield")
    if sect is None:
        return None
    V = _get(sect, "V", required=True)
    V0 = _get(sect, "V0", default=0.0)
    return BiasState(V=V, V0=V0)


def _parse_sweep(cp) -> tuple[SweepSpec | None, tuple[float, ...]]:
    sect = _section(cp, "sweep")
    if sect is None:
        return None, ()
    variable = sect.get("variable", "").strip()
    spec = SweepSpec(
        variable=variable,
        start=_get(sect, "start", required=True),
        stop=_get(sect, "stop", required=True),
        count=_get(sect, "count", int, required=True),
        spacing=_get(sect, "spacing", ("linear", "log"), default="linear"),
    )
    ratios: tuple[float, ...] = ()
    if "ratios" in sect:
        try:
            ratios = tuple(float(tok) for tok in
                           sect["ratios"].replace(",", " ").split())
        except ValueError:
            raise ConfigError(f"[sweep] ratios = {sect['ratios']!r} is not a "
                              "list of numbers") from None
        if not ratios:
            raise ConfigError("[sweep] ratios is empty")
        if any(r < 1.0 for r in ratios):
            raise ConfigError("[sweep] ratios are A/B values and must be >= 1")
    return spec, ratios


def _parse_quadrature(cp) -> QuadratureSpec:
    sect = _section(cp, "quadrature")
    if sect is None:
        return DEFAULT_QUADRATURE
    quad = DEFAULT_QUADRATURE
    rel_tol = _get(sect, "rel_tol")
    l_max = _get(sect, "l_max", int)
    try:
        if rel_tol is not None:
            quad = replace(quad, rel_tol=rel_tol)
        if l_max is not None:
            quad = replace(quad, l_max=l_max)
    except ValueError as exc:
        raise ConfigError(f"[quadrature] {exc}") from None
    return quad


def _parse_output(cp) -> tuple[str | None, str]:
    sect = _section(cp, "output")
    if sect is None:
        return None, "csv"
    fmt = _get(sect, "format", ("csv", "json"), default="csv")
    return sect.get("path"), fmt


# ---------------------------------------------------------------------------
# cross-section validation

def _check_consistency(cfg: RunConfig) -> None:
    cmd = cfg.command
    if cmd == "ratio-sweep":
        if cfg.sweep is None or cfg.sweep.variable != "phi":
            raise ConfigError("ratio-sweep requires a [sweep] over phi")
        if not cfg.ratios:
            raise ConfigError("ratio-sweep requires [sweep] ratios = ... "
                              "(the A/B values, one curve each)")
        if not (cfg.sweep.start >= 0.0 and cfg.sweep.stop <= math.pi / 2.0 + 1e-12):
            raise ConfigError("ratio-sweep phi range must lie in [0, pi/2]")
        return
    if cfg.geometry is None:
        raise ConfigError(f"command '{cmd}' requires a [geometry] section")
    if cfg.environment is None:
        raise ConfigError(f"command '{cmd}' requires an [environment] section")
    if cmd == "freq-shift" and cfg.oscillator is None:
        raise ConfigError("freq-shift requires an [oscillator] section")
    if cmd == "efield" and cfg.bias is None:
        raise ConfigError("efield requires an [efield] section")
    if cfg.sweep is not None:
        var = cfg.sweep.variable
        if var == "phi" and not isinstance(cfg.geometry, RotatedLens):
            raise ConfigError("a phi sweep requires variant = rotated")
        if var == "Az" and cfg.oscillator is None:
            raise ConfigError("an Az sweep requires an [oscillator] section")
        if var == "V" and cfg.bias is None:
            raise ConfigError("a V sweep requires an [efield] section")
        if var == "Az" and cfg.environment is not None \
                and cfg.sweep.stop >= cfg.environment.a:
            raise ConfigError("Az sweep extends to or beyond the separation a")
    if cmd == "freq-shift":
        # an Az sweep past a was rejected above with its own message
        az_hi = visited_range(cfg, "Az", cfg.oscillator.Az)[1]
        a_lo = visited_range(cfg, "a", cfg.environment.a)[0]
        if az_hi >= a_lo:
            where = ("smallest separation of the a sweep"
                     if cfg.sweep is not None and cfg.sweep.variable == "a"
                     else "separation a")
            raise ConfigError(f"[oscillator] Az must be smaller than the {where}")
    if cfg.sweep is not None:
        # every point lies between the end points, so none can fail mid-run
        for x in (cfg.sweep.start, cfg.sweep.stop):
            try:
                substitute(cfg, x)
            except ValueError as exc:
                raise ConfigError(f"[sweep] {exc}") from None
    if cmd != "efield" and isinstance(cfg.material, Tabulated):
        _check_tabulated_zero_t(cfg)


def _check_tabulated_zero_t(cfg: RunConfig) -> None:
    """A tabulated run evaluating T = 0 must reach the first zeta-node.

    The T = 0 integral runs from zeta = 0, where xi = c zeta / 2a is far
    below any measured permittivity table; it evaluates a tabulated model
    only from zeta = _ZETA_MIN (~7.55e-7) up, so the table must reach that
    frequency.  force and gradient rows evaluate T = 0 at every
    temperature (the T = 0 companion of each row); the other commands only
    where T = 0.  The lowest frequency comes with the largest separation.
    """
    if visited_range(cfg, "T", cfg.environment.T)[0] > 0.0:
        if cfg.command not in ("force", "gradient"):
            return
        what = f"the T = 0 companion that every {cfg.command} row carries"
    else:
        what = "T = 0"
    xi0 = CONSTANTS.c * _ZETA_MIN / (2.0 * visited_range(cfg, "a",
                                                         cfg.environment.a)[1])
    if xi0 < cfg.material.xi_grid[0]:
        raise ConfigError(
            f"[material] model = tabulated cannot run {what}: the first "
            f"zeta-node of the zero-temperature integral is xi = {xi0:.3g} "
            f"rad/s, below the lowest tabulated frequency "
            f"{cfg.material.xi_grid[0]:.3g} rad/s")


# ---------------------------------------------------------------------------
# entry points

def parse_config(text: str, origin: str = "<config>") -> RunConfig:
    """Parse INI text into a validated RunConfig.

    Raises ConfigError with the offending section/key for any structural,
    type or physical-constraint problem.
    """
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text, source=origin)
    except configparser.Error as exc:
        raise ConfigError(f"{origin}: {exc}") from None

    run = _section(cp, "run", required=True)
    command = _get(run, "command", COMMANDS, required=True)

    sweep, ratios = _parse_sweep(cp)
    out_path, out_format = _parse_output(cp)
    cfg = RunConfig(
        command=command,
        geometry=_parse_geometry(cp),
        environment=_parse_environment(cp),
        material=_parse_material(cp),
        quadrature=_parse_quadrature(cp),
        oscillator=_parse_oscillator(cp),
        bias=_parse_bias(cp),
        sweep=sweep,
        ratios=ratios,
        output_path=out_path,
        output_format=out_format,
    )
    _check_consistency(cfg)
    return cfg


def load_config(path: str) -> RunConfig:
    """Read and parse a configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    return parse_config(text, origin=path)


def describe_config(cfg: RunConfig) -> list[str]:
    """Flat `section.key = value` lines of the resolved config.

    Used for the '#'-prefixed header block of CSV output so a result file
    records exactly what produced it.
    """
    lines = [f"run.command = {cfg.command}"]
    g = cfg.geometry
    if g is not None:
        lines.append(f"geometry.variant = {_name_of(LENS_VARIANTS, g)}")
        for f in fields(g):
            lines.append(f"geometry.{f.name} = {getattr(g, f.name):.17g}")
    m = cfg.material
    lines.append(f"material.model = {_name_of(MATERIAL_MODELS, m)}")
    if hasattr(m, "omega_p"):
        lines.append(f"material.omega_p = {m.omega_p:.17g}")
    if hasattr(m, "gamma"):
        lines.append(f"material.gamma = {m.gamma:.17g}")
    if cfg.environment is not None:
        lines.append(f"environment.a = {cfg.environment.a:.17g}")
        lines.append(f"environment.T = {cfg.environment.T:.17g}")
    if cfg.oscillator is not None:
        o = cfg.oscillator
        lines.append(f"oscillator.omega0 = {o.omega0:.17g}")
        lines.append(f"oscillator.C = {o.C:.17g}")
        lines.append(f"oscillator.Az = {o.Az:.17g}")
    if cfg.bias is not None:
        lines.append(f"efield.V = {cfg.bias.V:.17g}")
        lines.append(f"efield.V0 = {cfg.bias.V0:.17g}")
    if cfg.sweep is not None:
        s = cfg.sweep
        lines.append(f"sweep.variable = {s.variable}")
        lines.append(f"sweep.start = {s.start:.17g}")
        lines.append(f"sweep.stop = {s.stop:.17g}")
        lines.append(f"sweep.count = {s.count}")
        lines.append(f"sweep.spacing = {s.spacing}")
    if cfg.ratios:
        lines.append("sweep.ratios = " + ", ".join(f"{r:.17g}" for r in cfg.ratios))
    lines.append(f"quadrature.rel_tol = {cfg.quadrature.rel_tol:.17g}")
    lines.append(f"quadrature.l_max = {cfg.quadrature.l_max}")
    return lines


def _name_of(table: dict, obj) -> str:
    return next(name for name, cls in table.items() if isinstance(obj, cls))
