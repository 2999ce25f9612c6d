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

Optional sections: [sweep] (variable, start, stop, count, spacing, and
ratios under ratio-sweep), [oscillator] (omega0, Az, C or b + I), [efield]
(V, V0), [output] (path, format), [quadrature] (rel_tol).  The run must
read every section and key: an unknown one ([DEFAULT] included), a
misspelt key, one for another variant or model (phi under a symmetric
lens, gamma_ev under model = plasma), or one the command's rows do not
read ([oscillator] outside freq-shift, [efield] outside efield, [material]
and [quadrature] under efield, and all but [sweep] and [output] under
ratio-sweep) is a ConfigError, as is a number that is not finite.  Keys
are case-insensitive, sections not.
"""

import configparser
import math
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np

from .electrostatics import BiasState
from .engine import QuadratureSpec, xi_reach
from .geometry import (EllipticLens, Environment, LensGeometry, RotatedLens,
                       TwoHalvesLens, symmetric_lens, thickness_for_width)
from .materials import (Drude, GOLD_GAMMA_EV, GOLD_PLASMA_EV, IdealMetal,
                        PermittivityModel, Plasma, Tabulated)
from .constants import CONSTANTS, ev_to_rad_per_s
from .oscillator import OscillatorParams


class ConfigError(Exception):
    """Malformed or inconsistent run configuration."""


# the sections each command's rows read besides [run], [sweep] and [output]
_FORCE_READS = ("geometry", "environment", "material", "quadrature")
_READS = {"force": _FORCE_READS, "gradient": _FORCE_READS,
          "efield": ("geometry", "environment", "efield"),
          "freq-shift": _FORCE_READS + ("oscillator",), "ratio-sweep": ()}
COMMANDS = tuple(_READS)
# each sweep variable: the RunConfig field that owns it, the owner's field it
# sets, and the error when the run has no owner carrying that field (every
# command that can sweep a or T requires an [environment] already)
_SWEPT = {
    "a": ("environment", "a", None),
    "T": ("environment", "T", None),
    "phi": ("geometry", "phi", "a phi sweep requires variant = rotated"),
    "Az": ("oscillator", "Az", "an Az sweep requires command = freq-shift"),
    "V": ("bias", "V", "a V sweep requires command = efield"),
}
SWEEP_VARIABLES = tuple(_SWEPT)
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
    """One command's validated inputs; a section it does not read is None."""

    command: str
    geometry: LensGeometry | None
    environment: Environment | None
    material: PermittivityModel | None
    quadrature: QuadratureSpec | None
    oscillator: OscillatorParams | None = None
    bias: BiasState | None = None
    sweep: SweepSpec | None = None
    ratios: tuple[float, ...] = ()
    output_path: str | None = None
    output_format: str = "csv"


def visited_range(cfg: RunConfig, variable: str) -> tuple[float, float]:
    """(lo, hi) of a sweep variable over the points the run visits.

    The sweep's start and stop when the variable is swept (linspace and
    geomspace put the end points exactly there), else the configured value.
    """
    if cfg.sweep is not None and cfg.sweep.variable == variable:
        return cfg.sweep.start, cfg.sweep.stop
    owner, name, _ = _SWEPT[variable]
    value = getattr(getattr(cfg, owner), name)
    return value, value


def substitute(cfg: RunConfig, x: float | None):
    """Geometry, environment, oscillator and bias with the sweep variable at x.

    Without a sweep (x is None) they are the configured ones.  A value
    outside the variable's range raises the constructor's ValueError.
    """
    parts = {"geometry": cfg.geometry, "environment": cfg.environment,
             "oscillator": cfg.oscillator, "bias": cfg.bias}
    if cfg.sweep is not None:
        owner, name, _ = _SWEPT[cfg.sweep.variable]
        parts[owner] = replace(parts[owner], **{name: float(x)})
    return tuple(parts.values())


# ---------------------------------------------------------------------------
# the one reader: every failure names the section and key

class _Section:
    """One INI section: its name, its values and the keys no reader took yet."""

    def __init__(self, name: str, values: configparser.SectionProxy):
        self.name, self.values, self.unread = name, values, dict.fromkeys(values)


_NOT_A = {float: "a number", int: "an integer"}


def _get(sect: _Section | None, key: str, kind=float, default=None, required=False):
    """sect's key read as kind: float, int, str or a tuple of allowed words.

    The only reader of a raw value, so it marks the key read.  A missing
    key or section (sect None) gives default; a missing key fails if required.
    """
    if sect is None or key not in sect.values:
        if required:
            raise ConfigError(f"[{sect.name}] is missing required key '{key}'")
        return default
    sect.unread.pop(key.lower(), None)
    raw = sect.values[key]
    if isinstance(kind, tuple):
        value = raw.strip().lower()
        if value not in kind:
            raise ConfigError(f"[{sect.name}] {key} must be one of {kind}, "
                              f"got {raw!r}")
        return value
    try:
        value = kind(raw)
    except ValueError:
        raise ConfigError(f"[{sect.name}] {key} = {raw!r} is not "
                          f"{_NOT_A[kind]}") from None
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"[{sect.name}] {key} = {raw!r} is not finite")
    return value


def _build(cls, sect: _Section | None, **given):
    """cls from sect: every field not given is read as its annotated type.

    A field without a dataclass default is a required key; the
    constructor's ValueError is reported against the section.
    """
    for f in fields(cls):
        if f.name not in given:
            given[f.name] = _get(sect, f.name, f.type, f.default,
                                 required=f.default is MISSING)
    try:
        return cls(**given)
    except ValueError as exc:
        raise ConfigError(f"[{sect.name}] {exc}") from None


# ---------------------------------------------------------------------------
# section parsers

def _parse_geometry(sect: _Section | None) -> LensGeometry | None:
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


_GOLD_EV = {"omega_p": GOLD_PLASMA_EV, "gamma": GOLD_GAMMA_EV}


def _parse_material(sect: _Section | None) -> PermittivityModel:
    cls = MATERIAL_MODELS[_get(sect, "model", tuple(MATERIAL_MODELS),
                               default="ideal")]
    if cls is not Tabulated:  # each rad/s field from its *_ev key, gold by default
        return _build(cls, sect, **{f.name: ev_to_rad_per_s(_get(
            sect, f.name + "_ev", default=_GOLD_EV[f.name])) for f in fields(cls)})
    path = _get(sect, "path", str)
    if path is None:
        raise ConfigError("[material] model = tabulated requires key 'path'")
    try:
        return Tabulated.from_file(path)
    except OSError as exc:
        raise ConfigError(f"[material] cannot read {path!r}: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"[material] {exc}") from None


def _parse_oscillator(sect: _Section | None) -> OscillatorParams | None:
    if sect is None:
        return None
    # omega0 and Az first, so that their errors come before those of C, b, I
    given = {key: _get(sect, key, required=True) for key in ("omega0", "Az")}
    C, b, inertia = (_get(sect, key) for key in ("C", "b", "I"))
    if C is not None:
        if b is not None or inertia is not None:
            raise ConfigError("[oscillator] give either C or the pair b, I, not both")
        return _build(OscillatorParams, sect, C=C, **given)
    if b is None or inertia is None:
        raise ConfigError("[oscillator] requires either C or both b and I")
    try:
        return OscillatorParams.torsional(b=b, I=inertia, **given)
    except ValueError as exc:
        raise ConfigError(f"[oscillator] {exc}") from None


def _parse_sweep(sect: _Section,
                 command: str) -> tuple[SweepSpec, tuple[float, ...]]:
    spec = _build(SweepSpec, sect, variable=_get(sect, "variable", str, "").strip(),
                  spacing=_get(sect, "spacing", ("linear", "log"), "linear"))
    raw = _get(sect, "ratios", str) if command == "ratio-sweep" else None
    if raw is None:
        return spec, ()
    try:
        ratios = tuple(float(tok) for tok in raw.replace(",", " ").split())
    except ValueError:
        raise ConfigError(f"[sweep] ratios = {raw!r} is not a list of "
                          "numbers") from None
    if not ratios:
        raise ConfigError("[sweep] ratios is empty")
    if not all(map(math.isfinite, ratios)):
        raise ConfigError(f"[sweep] ratios = {raw!r} are not all finite")
    if any(r < 1.0 for r in ratios):
        raise ConfigError("[sweep] ratios are A/B values and must be >= 1")
    return spec, ratios


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
        owner, name, missing = _SWEPT[cfg.sweep.variable]
        if not hasattr(getattr(cfg, owner), name):
            raise ConfigError(missing)
    if cmd == "freq-shift":
        az_hi = visited_range(cfg, "Az")[1]
        a_lo = visited_range(cfg, "a")[0]
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
    if isinstance(cfg.material, Tabulated):
        _check_tabulated_range(cfg)


def _check_tabulated_range(cfg: RunConfig) -> None:
    """A tabulated run must reach every frequency it evaluates.

    engine.xi_reach gives the highest xi its sums reach (at the smallest a,
    largest Az and largest T) and the T = 0 integral's lowest (at the
    largest a).  force and gradient rows evaluate T = 0 at every T, as each
    row's T = 0 companion; the other commands only where T = 0.  A sum at
    T > 0 evaluates the table from xi_1 = 2 pi kB T / hbar up (l = 0 reads
    the zeta = 0 limit): lowest at the lowest T > 0 the run visits.
    """
    a, (lo, hi) = visited_range(cfg, "a")[0], cfg.material.xi_grid[[0, -1]]
    az = visited_range(cfg, "Az")[1] if cfg.command == "freq-shift" else 0.0
    top = xi_reach(a, visited_range(cfg, "T")[1], 1.0 - az / a)[1]
    if top > hi:
        raise ConfigError(f"[material] model = tabulated cannot run this {cfg.command}: xi "
                          f"reaches {top:.3g} rad/s, above the table's top {hi:.3g} rad/s")
    temps = (cfg.sweep.points() if cfg.sweep is not None and cfg.sweep.variable == "T"
             else np.array(visited_range(cfg, "T")))
    warm = temps[temps > 0.0]  # ascending, as the sweep's start < stop
    cold = warm.size < temps.size  # the run visits T = 0
    what = ("T = 0" if cold
            else f"the T = 0 companion that every {cfg.command} row carries")
    xi0 = xi_reach(visited_range(cfg, "a")[1], 0.0)[0]
    if xi0 < lo and (cold or cfg.command in ("force", "gradient")):
        raise ConfigError(
            f"[material] model = tabulated cannot run {what}: the first "
            f"zeta-node of the zero-temperature integral is xi = {xi0:.3g} "
            f"rad/s, below the lowest tabulated frequency {lo:.3g} rad/s")
    xi1 = 2.0 * math.pi * CONSTANTS.kB * warm[0] / CONSTANTS.hbar if warm.size else lo
    if xi1 < lo:
        raise ConfigError(
            f"[material] model = tabulated cannot run T = {warm[0]:g} K: its first "
            f"Matsubara frequency is xi_1 = {xi1:.3g} rad/s, below the lowest "
            f"tabulated frequency {lo:.3g} rad/s")


# ---------------------------------------------------------------------------
# entry points

def parse_config(text: str, origin: str = "<config>") -> RunConfig:
    """Parse INI text into a validated RunConfig.

    Raises ConfigError with the offending section/key for any structural,
    type or physical-constraint problem, and then for any section or key
    that the run did not read.  [DEFAULT] is an ordinary, unknown section.
    """
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                   default_section=None, interpolation=None)
    try:
        cp.read_string(text, source=origin)
    except configparser.Error as exc:
        raise ConfigError(f"{origin}: {exc}") from None
    found = {name: _Section(name, cp[name]) for name in cp.sections()}
    run, sweep, out, geometry, env, material, quad, osc, efield = read = [
        found.pop(name, None) for name in (
            "run", "sweep", "output", "geometry", "environment", "material",
            "quadrature", "oscillator", "efield")]
    if run is None:
        raise ConfigError("missing required section [run]")
    command = _get(run, "command", COMMANDS, required=True)
    reads = _READS[command]
    for sect in (geometry, env, material, quad, osc, efield):
        if sect is not None and sect.name not in reads:
            raise ConfigError(f"[{sect.name}] is not read by command "
                              f"'{command}'")
    spec, ratios = (None, ()) if sweep is None else _parse_sweep(sweep, command)
    cfg = RunConfig(
        command=command,
        output_format=_get(out, "format", ("csv", "json"), default="csv"),
        output_path=_get(out, "path", str),
        geometry=_parse_geometry(geometry),
        environment=None if env is None else _build(
            Environment, env, T=_get(env, "T", default=300.0)),
        material=_parse_material(material) if "material" in reads else None,
        quadrature=(_build(QuadratureSpec, quad)
                    if "quadrature" in reads else None),
        oscillator=_parse_oscillator(osc),
        bias=None if efield is None else _build(BiasState, efield),
        sweep=spec,
        ratios=ratios,
    )
    _check_consistency(cfg)
    if found:
        raise ConfigError(f"unknown section [{next(iter(found))}]")
    for sect in read:
        if sect is not None and sect.unread:
            raise ConfigError(f"[{sect.name}] key '{next(iter(sect.unread))}' "
                              "is not read by this run")
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
    records exactly what produced it: every section the RunConfig holds.
    """
    lines = [f"run.command = {cfg.command}"]
    if cfg.geometry is not None:
        lines.append(f"geometry.variant = {_name_of(LENS_VARIANTS, cfg.geometry)}")
        lines += _describe("geometry", cfg.geometry)
    if cfg.material is not None:
        lines.append(f"material.model = {_name_of(MATERIAL_MODELS, cfg.material)}")
        lines += _describe("material", cfg.material)
    for section, part in (("environment", cfg.environment),
                          ("oscillator", cfg.oscillator),
                          ("efield", cfg.bias), ("sweep", cfg.sweep)):
        if part is not None:
            lines += _describe(section, part)
    if cfg.ratios:
        lines.append("sweep.ratios = " + ", ".join(f"{r:.17g}" for r in cfg.ratios))
    if cfg.quadrature is not None:
        lines += _describe("quadrature", cfg.quadrature)
    return lines


def _describe(section: str, obj) -> list[str]:
    """One line per field, floats at 17 digits; a table's arrays are left out."""
    return [f"{section}.{f.name} = "
            + format(getattr(obj, f.name), ".17g" if f.type is float else "")
            for f in fields(obj) if f.type is not np.ndarray]


def _name_of(table: dict, obj) -> str:
    return next(name for name, cls in table.items() if isinstance(obj, cls))
