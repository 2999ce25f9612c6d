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
from dataclasses import dataclass, replace

import numpy as np

from .electrostatics import BiasState
from .engine import DEFAULT_QUADRATURE, QuadratureSpec, _grid_from
from .geometry import (Environment, LensGeometry, RotatedLens, TwoHalvesLens,
                       symmetric_lens, thickness_for_width)
from .materials import (Drude, GOLD_GAMMA_EV, GOLD_PLASMA_EV, IdealMetal,
                        PermittivityModel, Plasma, Tabulated)
from .constants import CONSTANTS, ev_to_rad_per_s
from .oscillator import OscillatorParams


class ConfigError(Exception):
    """Malformed or inconsistent run configuration."""


COMMANDS = ("force", "gradient", "efield", "freq-shift", "ratio-sweep")
SWEEP_VARIABLES = ("a", "T", "phi", "Az", "V")


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


# ---------------------------------------------------------------------------
# low-level readers: every failure names the section and key

def _section(cp: configparser.ConfigParser, name: str, required: bool = False):
    if cp.has_section(name):
        return cp[name]
    if required:
        raise ConfigError(f"missing required section [{name}]")
    return None


def _get_float(sect, name: str, key: str, default=None, required=False):
    if key not in sect:
        if required:
            raise ConfigError(f"[{name}] is missing required key '{key}'")
        return default
    try:
        return float(sect[key])
    except ValueError:
        raise ConfigError(f"[{name}] {key} = {sect[key]!r} is not a number") from None


def _get_int(sect, name: str, key: str, default=None, required=False):
    if key not in sect:
        if required:
            raise ConfigError(f"[{name}] is missing required key '{key}'")
        return default
    try:
        return int(sect[key])
    except ValueError:
        raise ConfigError(f"[{name}] {key} = {sect[key]!r} is not an integer") from None


def _get_choice(sect, name: str, key: str, choices, default=None, required=False):
    if key not in sect:
        if required:
            raise ConfigError(f"[{name}] is missing required key '{key}'")
        return default
    value = sect[key].strip().lower()
    if value not in choices:
        raise ConfigError(f"[{name}] {key} must be one of {tuple(choices)}, "
                          f"got {sect[key]!r}")
    return value


# ---------------------------------------------------------------------------
# section parsers

def _parse_geometry(cp) -> LensGeometry | None:
    sect = _section(cp, "geometry")
    if sect is None:
        return None
    variant = _get_choice(sect, "geometry", "variant",
                          ("symmetric", "two-halves", "rotated"),
                          default="symmetric")
    L = _get_float(sect, "geometry", "L", required=True)
    h = _get_float(sect, "geometry", "h")
    d = _get_float(sect, "geometry", "d")
    try:
        if variant == "symmetric":
            A = _get_float(sect, "geometry", "A", required=True)
            B = _get_float(sect, "geometry", "B", required=True)
            return symmetric_lens(A, B, L, d=d, h=h)
        if variant == "rotated":
            A = _get_float(sect, "geometry", "A", required=True)
            B = _get_float(sect, "geometry", "B", required=True)
            phi = _get_float(sect, "geometry", "phi", required=True)
            if d is None:
                d = 0.9 * A
            if h is None:
                h = thickness_for_width(A, B, d)
            return RotatedLens(A=A, B=B, phi=phi, h=h, d=d, L=L)
        A1 = _get_float(sect, "geometry", "A1", required=True)
        B1 = _get_float(sect, "geometry", "B1", required=True)
        A2 = _get_float(sect, "geometry", "A2", required=True)
        B2 = _get_float(sect, "geometry", "B2", required=True)
        if d is None:
            d = 0.9 * min(A1, A2)
        if h is None:
            h = max(thickness_for_width(A1, B1, d),
                    thickness_for_width(A2, B2, d))
        return TwoHalvesLens(A1=A1, B1=B1, A2=A2, B2=B2, h=h, d=d, L=L)
    except ValueError as exc:
        raise ConfigError(f"[geometry] {exc}") from None


def _parse_material(cp) -> PermittivityModel:
    sect = _section(cp, "material")
    if sect is None:
        return IdealMetal()
    model = _get_choice(sect, "material", "model",
                        ("ideal", "drude", "plasma", "tabulated"),
                        default="ideal")
    try:
        if model == "ideal":
            return IdealMetal()
        if model == "drude":
            wp = _get_float(sect, "material", "omega_p_ev", default=GOLD_PLASMA_EV)
            gamma = _get_float(sect, "material", "gamma_ev", default=GOLD_GAMMA_EV)
            return Drude(omega_p=ev_to_rad_per_s(wp), gamma=ev_to_rad_per_s(gamma))
        if model == "plasma":
            wp = _get_float(sect, "material", "omega_p_ev", default=GOLD_PLASMA_EV)
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
    a = _get_float(sect, "environment", "a", required=True)
    T = _get_float(sect, "environment", "T", default=300.0)
    try:
        return Environment(a=a, T=T)
    except ValueError as exc:
        raise ConfigError(f"[environment] {exc}") from None


def _parse_oscillator(cp) -> OscillatorParams | None:
    sect = _section(cp, "oscillator")
    if sect is None:
        return None
    omega0 = _get_float(sect, "oscillator", "omega0", required=True)
    Az = _get_float(sect, "oscillator", "Az", required=True)
    C = _get_float(sect, "oscillator", "C")
    b = _get_float(sect, "oscillator", "b")
    inertia = _get_float(sect, "oscillator", "I")
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
    V = _get_float(sect, "efield", "V", required=True)
    V0 = _get_float(sect, "efield", "V0", default=0.0)
    return BiasState(V=V, V0=V0)


def _parse_sweep(cp) -> tuple[SweepSpec | None, tuple[float, ...]]:
    sect = _section(cp, "sweep")
    if sect is None:
        return None, ()
    variable = sect.get("variable", "").strip()
    spec = SweepSpec(
        variable=variable,
        start=_get_float(sect, "sweep", "start", required=True),
        stop=_get_float(sect, "sweep", "stop", required=True),
        count=_get_int(sect, "sweep", "count", required=True),
        spacing=_get_choice(sect, "sweep", "spacing", ("linear", "log"),
                            default="linear"),
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
    rel_tol = _get_float(sect, "quadrature", "rel_tol")
    l_max = _get_int(sect, "quadrature", "l_max")
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
    fmt = _get_choice(sect, "output", "format", ("csv", "json"), default="csv")
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
        if var == "a" and cfg.sweep.start <= 0.0:
            raise ConfigError("separations must stay positive")
    elif cmd == "freq-shift":
        if cfg.oscillator.Az >= cfg.environment.a:
            raise ConfigError("[oscillator] Az must be smaller than the "
                              "separation a")
    if cmd != "efield" and isinstance(cfg.material, Tabulated):
        _check_tabulated_zero_t(cfg)


def _check_tabulated_zero_t(cfg: RunConfig) -> None:
    """A tabulated run evaluating T = 0 must reach the first zeta-node.

    The T = 0 integral starts just above zeta = 0, where xi = c zeta / 2a is
    far below any measured permittivity table, so such a run could only
    fail.  force and gradient rows evaluate T = 0 at every temperature (the
    T = 0 companion of each row); the other commands only where T = 0.
    The lowest frequency comes with the largest separation.
    """
    temps, seps = [cfg.environment.T], [cfg.environment.a]
    if cfg.sweep is not None and cfg.sweep.variable == "T":
        temps = list(cfg.sweep.points())
    if cfg.sweep is not None and cfg.sweep.variable == "a":
        seps = list(cfg.sweep.points())
    if min(temps) > 0.0:
        if cfg.command not in ("force", "gradient"):
            return
        what = f"the T = 0 companion that every {cfg.command} row carries"
    else:
        what = "T = 0"
    zeta0 = float(_grid_from(0.0)[0][0])
    xi0 = CONSTANTS.c * zeta0 / (2.0 * max(seps))
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
    command = _get_choice(run, "run", "command", COMMANDS, required=True)

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
        lines.append(f"geometry.variant = {_variant_name(g)}")
        for key in ("A", "B", "A1", "B1", "A2", "B2", "phi", "h", "d", "L"):
            if hasattr(g, key):
                lines.append(f"geometry.{key} = {getattr(g, key):.17g}")
    lines.append(f"material.model = {_material_name(cfg.material)}")
    m = cfg.material
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


def _variant_name(geom: LensGeometry) -> str:
    if isinstance(geom, TwoHalvesLens):
        return "two-halves"
    if isinstance(geom, RotatedLens):
        return "rotated"
    return "symmetric"


def _material_name(model: PermittivityModel) -> str:
    if isinstance(model, Drude):
        return "drude"
    if isinstance(model, Plasma):
        return "plasma"
    if isinstance(model, Tabulated):
        return "tabulated"
    return "ideal"
