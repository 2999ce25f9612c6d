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

Other sections: [sweep] (variable, start, stop, count, spacing, and ratios
under ratio-sweep), [oscillator] (omega0, Az, C or b + I), [efield] (V, V0),
[output] (path, format), [quadrature] (rel_tol).  A command requires every
section its rows read but [material] and [quadrature].  The run must
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
from .constants import ev_to_rad_per_s
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
# the key that names each section's kind, echoed before its fields
_KINDS = {"geometry": ("variant", LENS_VARIANTS), "material": ("model", MATERIAL_MODELS)}


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
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ConfigError("sweep start and stop must be finite")
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
    """One command's validated inputs; each section field defaults to None,
    which a section the command does not read keeps."""

    command: str
    geometry: LensGeometry | None = None
    environment: Environment | None = None
    material: PermittivityModel | None = None
    quadrature: QuadratureSpec | None = None
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

    A field without a dataclass default is a required key.
    """
    for f in fields(cls):
        if f.name not in given:
            given[f.name] = _get(sect, f.name, f.type, f.default,
                                 required=f.default is MISSING)
    return cls(**given)


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
    if cls is EllipticLens:  # derives d from h when only h is given
        return symmetric_lens(L=L, d=d, h=h, **own)
    halves = [(own[k], own["B" + k[1:]]) for k in own if k.startswith("A")]
    if d is None:
        d = 0.9 * min(A for A, _ in halves)
    if h is None:
        h = max(thickness_for_width(A, B, d) for A, B in halves)
    return cls(h=h, d=d, L=L, **own)


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
    return OscillatorParams.torsional(b=b, I=inertia, **given)


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


# each section a command may read: the RunConfig field it fills and its parser,
# given None for a section left out; a None result means a required one is missing
_SECTIONS = {
    "geometry": ("geometry", _parse_geometry),
    "environment": ("environment", lambda sect: None if sect is None else _build(
        Environment, sect, T=_get(sect, "T", default=300.0))),
    "material": ("material", _parse_material),
    "quadrature": ("quadrature", lambda sect: _build(QuadratureSpec, sect)),
    "oscillator": ("oscillator", _parse_oscillator),
    "efield": ("bias", lambda sect: None if sect is None else _build(BiasState, sect)),
}


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
    largest Az and largest T) and the lowest: the T = 0 integral's (at the
    largest a), and a T > 0 sum's xi_1, lowest at the lowest T > 0 the run
    visits.  force and gradient rows evaluate T = 0 at every T, as each
    row's T = 0 companion; the other commands only where T = 0.
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
    xi1 = xi_reach(a, warm[0])[0] if warm.size else lo
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
    read = {name: found.pop(name, None)
            for name in ("run", "sweep", "output", *_SECTIONS)}
    if read["run"] is None:
        raise ConfigError("missing required section [run]")
    command = _get(read["run"], "command", COMMANDS, required=True)
    reads = _READS[command]
    for name in _SECTIONS:
        if read[name] is not None and name not in reads:
            raise ConfigError(f"[{name}] is not read by command '{command}'")
    spec, ratios = ((None, ()) if read["sweep"] is None
                    else _parse_sweep(read["sweep"], command))
    parts = dict(output_format=_get(read["output"], "format", ("csv", "json"), "csv"),
                 output_path=_get(read["output"], "path", str))
    for name in reads:
        field, parse = _SECTIONS[name]
        try:
            parts[field] = parse(read[name])
        except ValueError as exc:
            raise ConfigError(f"[{name}] {exc}") from None
        if parts[field] is None:
            raise ConfigError(f"command '{command}' requires "
                              f"{'an' if name[0] in 'aeiou' else 'a'} [{name}] section")
    cfg = RunConfig(command, sweep=spec, ratios=ratios, **parts)
    _check_consistency(cfg)
    if found:
        raise ConfigError(f"unknown section [{next(iter(found))}]")
    for sect in read.values():
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
    for section, part in (("geometry", cfg.geometry), ("material", cfg.material),
                          ("environment", cfg.environment),
                          ("oscillator", cfg.oscillator), ("efield", cfg.bias),
                          ("sweep", cfg.sweep), ("quadrature", cfg.quadrature)):
        if part is None:
            continue
        if section in _KINDS:
            key, table = _KINDS[section]
            lines.append(f"{section}.{key} = "
                         + next(name for name, cls in table.items()
                                if isinstance(part, cls)))
        lines += _describe(section, part)
    if cfg.ratios:  # only under ratio-sweep, whose sweep is the last section
        lines.append("sweep.ratios = " + ", ".join(f"{r:.17g}" for r in cfg.ratios))
    return lines


def _describe(section: str, obj) -> list[str]:
    """One line per field, floats at 17 digits; a table's arrays are left out."""
    return [f"{section}.{f.name} = "
            + format(getattr(obj, f.name), ".17g" if f.type is float else "")
            for f in fields(obj) if f.type is not np.ndarray]
