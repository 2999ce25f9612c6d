"""Run configuration: the echoed provenance, sweeps and parse errors."""

import dataclasses
import math
import pathlib
import re

import pytest

from casimir_lens.cli import format_csv
from casimir_lens.config import (ConfigError, SWEEP_VARIABLES, SweepSpec,
                                 describe_config, parse_config, substitute)

# Each config and the full `section.key = value` echo it must produce.  The
# CSV '#' block is the provenance of every result file, so these lines are
# pinned byte for byte: resolved SI values at 17 digits, derived h and d,
# C from b and I, the defaults of T, V0 and [quadrature], no table arrays.
GOLDEN = {
    "symmetric with only h, ideal metal, default T": ("""\
[run]
command = force

[geometry]
A = 100e-6
B = 40e-6
h = 2e-6
L = 1e-3

[material]
model = ideal

[environment]
a = 200e-9
""", """\
run.command = force
geometry.variant = symmetric
geometry.A = 0.0001
geometry.B = 4.0000000000000003e-05
geometry.h = 1.9999999999999999e-06
geometry.d = 3.1224989991991994e-05
geometry.L = 0.001
material.model = ideal
environment.a = 1.9999999999999999e-07
environment.T = 300
quadrature.rel_tol = 1e-08"""),
    "two halves, drude with gamma_ev, non-default quadrature": ("""\
[run]
command = gradient

[geometry]
variant = two-halves
A1 = 120e-6
B1 = 100e-6
A2 = 150e-6
B2 = 90e-6
L = 2e-3

[material]
model = drude
gamma_ev = 0.05

[environment]
a = 300e-9
T = 77

[quadrature]
rel_tol = 1e-6
""", """\
run.command = gradient
geometry.variant = two-halves
geometry.A1 = 0.00012
geometry.B1 = 0.0001
geometry.A2 = 0.00014999999999999999
geometry.B2 = 9.0000000000000006e-05
geometry.h = 5.641101056459328e-05
geometry.d = 0.00010800000000000001
geometry.L = 0.002
material.model = drude
material.omega_p = 13673407039285594
material.gamma = 75963372440475.531
environment.a = 2.9999999999999999e-07
environment.T = 77
quadrature.rel_tol = 9.9999999999999995e-07"""),
    "rotated with d, plasma with omega_p_ev": ("""\
[run]
command = force

[geometry]
variant = rotated
A = 110e-6
B = 100e-6
phi = 0.3
d = 50e-6
L = 1e-3

[material]
model = plasma
omega_p_ev = 8.5

[environment]
a = 200e-9
T = 300
""", """\
run.command = force
geometry.variant = rotated
geometry.A = 0.00011
geometry.B = 0.0001
geometry.phi = 0.29999999999999999
geometry.h = 1.0927645716975343e-05
geometry.d = 5.0000000000000002e-05
geometry.L = 0.001
material.model = plasma
material.omega_p = 12913773314880838
environment.a = 1.9999999999999999e-07
environment.T = 300
quadrature.rel_tol = 1e-08"""),
    "sweep with ratios, which a ratio-sweep alone reads": ("""\
[run]
command = ratio-sweep

[sweep]
variable = phi
start = 0.0
stop = 1.5707963267948966
count = 9
ratios = 1.1, 1.2 1.4
""", """\
run.command = ratio-sweep
sweep.variable = phi
sweep.start = 0
sweep.stop = 1.5707963267948966
sweep.count = 9
sweep.spacing = linear
sweep.ratios = 1.1000000000000001, 1.2, 1.3999999999999999"""),
    "oscillator with C, log Az sweep": ("""\
[run]
command = freq-shift

[geometry]
A = 100e-6
B = 100e-6
L = 1e-3

[material]
model = drude

[environment]
a = 200e-9
T = 300

[oscillator]
omega0 = 4398.2
C = 10.0
Az = 20e-9

[sweep]
variable = Az
start = 10e-9
stop = 100e-9
count = 4
spacing = LOG
""", """\
run.command = freq-shift
geometry.variant = symmetric
geometry.A = 0.0001
geometry.B = 0.0001
geometry.h = 5.641101056459328e-05
geometry.d = 9.0000000000000006e-05
geometry.L = 0.001
material.model = drude
material.omega_p = 13673407039285594
material.gamma = 53174360708332.875
environment.a = 1.9999999999999999e-07
environment.T = 300
oscillator.omega0 = 4398.1999999999998
oscillator.C = 10
oscillator.Az = 2e-08
sweep.variable = Az
sweep.start = 1e-08
sweep.stop = 9.9999999999999995e-08
sweep.count = 4
sweep.spacing = log
quadrature.rel_tol = 1e-08"""),
    "oscillator with b and I, no material section": ("""\
[run]
command = freq-shift

[geometry]
A = 100e-6
B = 100e-6
L = 1e-3

[environment]
a = 200e-9
T = 0

[oscillator]
omega0 = 4398.2
b = 1.5e-4
I = 3e-12
Az = 20e-9
""", """\
run.command = freq-shift
geometry.variant = symmetric
geometry.A = 0.0001
geometry.B = 0.0001
geometry.h = 5.641101056459328e-05
geometry.d = 9.0000000000000006e-05
geometry.L = 0.001
material.model = ideal
environment.a = 1.9999999999999999e-07
environment.T = 0
oscillator.omega0 = 4398.1999999999998
oscillator.C = 7499.9999999999982
oscillator.Az = 2e-08
quadrature.rel_tol = 1e-08"""),
    "efield with the default V0": ("""\
[run]
command = efield

[geometry]
A = 100e-6
B = 100e-6
L = 1e-3

[environment]
a = 200e-9
T = 300

[efield]
V = 0.5
""", """\
run.command = efield
geometry.variant = symmetric
geometry.A = 0.0001
geometry.B = 0.0001
geometry.h = 5.641101056459328e-05
geometry.d = 9.0000000000000006e-05
geometry.L = 0.001
environment.a = 1.9999999999999999e-07
environment.T = 300
efield.V = 0.5
efield.V0 = 0"""),
    "tabulated material, its arrays left out": ("""\
[run]
command = force

[geometry]
A = 100e-6
B = 100e-6
L = 1e-3

[material]
model = tabulated
path = {table}

[environment]
a = 200e-9
T = 300
""", """\
run.command = force
geometry.variant = symmetric
geometry.A = 0.0001
geometry.B = 0.0001
geometry.h = 5.641101056459328e-05
geometry.d = 9.0000000000000006e-05
geometry.L = 0.001
material.model = tabulated
environment.a = 1.9999999999999999e-07
environment.T = 300
quadrature.rel_tol = 1e-08"""),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_provenance_echo_is_pinned(name, tmp_path):
    table = tmp_path / "gold.dat"
    table.write_text("1.0e2 5000.0\n1.0e18 1.5\n")  # reaches every node
    text, echo = GOLDEN[name]
    cfg = parse_config(text.format(table=table), origin="inline")
    assert describe_config(cfg) == echo.splitlines()
    assert format_csv(cfg, ["x"], []) == (
        "# casimir-lens result table\n"
        + "".join(f"# {line}\n" for line in echo.splitlines()) + "x\n")


SWEPT = """\
[run]
command = freq-shift

[geometry]
variant = rotated
A = 110e-6
B = 100e-6
phi = 0.5
L = 1e-3

[environment]
a = 200e-9
T = 300

[oscillator]
omega0 = 4398.2
C = 10.0
Az = 20e-9
"""
_SWEPT_OSC = "[oscillator]\nomega0 = 4398.2\nC = 10.0\nAz = 20e-9\n"
_SWEPT_EFIELD = "[efield]\nV = 0.5\nV0 = 0.1\n"

# the RunConfig field each sweep variable lives in: (owner, field, a point)
OWNERS = {"a": ("environment", "a", 250e-9), "T": ("environment", "T", 4.0),
          "phi": ("geometry", "phi", 1.25), "Az": ("oscillator", "Az", 30e-9),
          "V": ("bias", "V", 0.25)}


def _swept(variable):
    """SWEPT under the command that reads the variable's owner: a V sweep
    is an efield run, whose [efield] takes the place of [oscillator]."""
    if variable != "V":
        return SWEPT
    return (SWEPT.replace("command = freq-shift", "command = efield")
            .replace(_SWEPT_OSC, _SWEPT_EFIELD))


def test_owners_cover_every_sweep_variable():
    assert set(OWNERS) == set(SWEEP_VARIABLES)


@pytest.mark.parametrize("variable", list(OWNERS))
def test_substitute_changes_only_the_swept_field(variable):
    owner, name, x = OWNERS[variable]
    cfg = parse_config(_swept(variable) + f"\n[sweep]\nvariable = {variable}\n"
                       f"start = {x / 2}\nstop = {x}\ncount = 3\n",
                       origin="inline")
    parts = dict(zip(("geometry", "environment", "oscillator", "bias"),
                     substitute(cfg, x)))
    for field, part in parts.items():
        configured = getattr(cfg, field)
        if field == owner:
            assert part == dataclasses.replace(configured, **{name: x})
            assert getattr(part, name) == x != getattr(configured, name)
        else:
            assert part is configured
    unswept = parse_config(_swept(variable), origin="inline")
    assert substitute(unswept, None) == (unswept.geometry, unswept.environment,
                                         unswept.oscillator, unswept.bias)


@pytest.mark.parametrize("variable, cut, message", [
    ("phi", "variant = rotated\n", "a phi sweep requires variant = rotated"),
    ("Az", "", "an Az sweep requires command = freq-shift"),
    ("V", "", "a V sweep requires command = efield"),
])
def test_sweep_requires_its_owner(variable, cut, message):
    # a force run, which reads neither [oscillator] nor [efield]
    text = (SWEPT.replace("command = freq-shift", "command = force")
            .replace(_SWEPT_OSC, "").replace(cut, ""))
    sweep = f"\n[sweep]\nvariable = {variable}\nstart = 0.1\nstop = 0.2\ncount = 3\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(text + sweep, origin="inline")
    assert str(exc.value) == message


_LENS = "[geometry]\nA = 100e-6\nB = 100e-6\nL = 1e-3\n"
_ENV = "\n[environment]\na = 200e-9\n"
_SWEEP_A = "\n[sweep]\nvariable = a\nstart = 1e-7\nstop = 2e-7\ncount = 3\n"
_OSC = "\n[oscillator]\nomega0 = 1e4\nAz = 20e-9\n"
# whole configs of the commands that read [oscillator] and [efield]
_SHIFT_RUN = "# a freq-shift run\n[run]\ncommand = freq-shift\n\n" + _LENS + _ENV
_EFIELD_RUN = "# an efield run\n[run]\ncommand = efield\n\n" + _LENS + _ENV
# a ratio-sweep's [sweep] up to its ratios, the one key only it reads
_RATIO_RUN = ("# a ratio-sweep run\n[run]\ncommand = ratio-sweep\n\n[sweep]\n"
              "variable = phi\nstart = 0\nstop = 1\ncount = 3\n")
_TABLES = {"columns.dat": "1e13 5000.0 1\n", "one_row.dat": "1e13 5000.0\n",
           "negative.dat": "-1e13 5000.0\n1e18 1.5\n",
           "rising.dat": "1e13 2.0\n1e18 3.0\n",
           "infinite.dat": "1e13 inf\n1e18 1.5\n"}


# a minimal config of each command, and the RunConfig sections it reads
_MINIMAL = {
    "force": ("[run]\ncommand = force\n\n" + _LENS + _ENV,
              {"geometry", "environment", "material", "quadrature"}),
    "gradient": ("[run]\ncommand = gradient\n\n" + _LENS + _ENV,
                 {"geometry", "environment", "material", "quadrature"}),
    "efield": (_EFIELD_RUN + "\n[efield]\nV = 0.5\n",
               {"geometry", "environment", "bias"}),
    "freq-shift": (_SHIFT_RUN + _OSC + "C = 1.0\n",
                   {"geometry", "environment", "material", "quadrature",
                    "oscillator"}),
    "ratio-sweep": (_RATIO_RUN + "ratios = 1.5\n", set()),
}


@pytest.mark.parametrize("command", list(_MINIMAL))
def test_run_config_holds_only_the_sections_its_command_reads(command):
    text, reads = _MINIMAL[command]
    cfg = parse_config(text, origin="inline")
    assert cfg.command == command
    for section in ("geometry", "environment", "material", "quadrature",
                    "oscillator", "bias"):
        assert (getattr(cfg, section) is None) == (section not in reads), section


@pytest.mark.parametrize("section, message", [
    ("[environment]\nT = 300\n", "[environment] is missing required key 'a'"),
    (_EFIELD_RUN + "\n[efield]\nV = x\n", "[efield] V = 'x' is not a number"),
    ("[environment]\na = 200e-9\n\n[quadrature]\nl_max = 5\n",
     "[quadrature] key 'l_max' is not read by this run"),
    ("[environment]\na = 200e-9\n\n[quadrature]\nrel_tol = 2\n",
     "[quadrature] rel_tol must lie in (0, 1)"),
    ("[environment]\na = 200e-9\nT = -1\n",
     "[environment] temperature T cannot be negative"),
    ("[environment]\na = 200e-9\n\n[sweep]\nvariable = a\nstart = 1e-7\n"
     "count = 3\n", "[sweep] is missing required key 'stop'"),
    ("[environment]\na = 200e-9\n\n[sweep]\nvariable = a\nstart = 1e-7\n"
     "stop = 2e-7\ncount = 3\nspacing = cubic\n",
     "[sweep] spacing must be one of ('linear', 'log'), got 'cubic'"),
    # every section and key must be one the run reads ...
    ("[environment]\na = 200e-9\ntemperature = 4\n",
     "[environment] key 'temperature' is not read by this run"),
    ("[material]\nmodel = drude\ngama_ev = 0.5\n\n[environment]\na = 200e-9\n",
     "[material] key 'gama_ev' is not read by this run"),
    ("phi = 0.5\n\n[environment]\na = 200e-9\n",
     "[geometry] key 'phi' is not read by this run"),
    ("[material]\nmodel = plasma\ngamma_ev = 0.05\n\n[environment]\n"
     "a = 200e-9\n", "[material] key 'gamma_ev' is not read by this run"),
    ("[material]\nmodel = drude\npath = gold.dat\n\n[environment]\n"
     "a = 200e-9\n", "[material] key 'path' is not read by this run"),
    ("[environment]\na = 200e-9\n\n[enviroment]\nT = 4\n",
     "unknown section [enviroment]"),
    ("[environment]\na = 200e-9\n\n[DEFAULT]\nT = 4\n",
     "unknown section [DEFAULT]"),
    # ... a section only another command reads included
    (_ENV + _OSC + "C = 10\n", "[oscillator] is not read by command 'force'"),
    (_ENV + "\n[efield]\nV = 0.5\n", "[efield] is not read by command 'force'"),
    (_EFIELD_RUN + "\n[efield]\nV = 0.5\n" + _OSC + "C = 10\n",
     "[oscillator] is not read by command 'efield'"),
    (_SHIFT_RUN + _OSC + "C = 10\n\n[efield]\nV = 0.5\n",
     "[efield] is not read by command 'freq-shift'"),
    ("# ratio-sweep\n[run]\ncommand = ratio-sweep\n\n[efield]\nV = 0.5\n",
     "[efield] is not read by command 'ratio-sweep'"),
    # ... and one that no row of the command reads
    (_RATIO_RUN + "ratios = 1.5\n\n" + _LENS,
     "[geometry] is not read by command 'ratio-sweep'"),
    (_RATIO_RUN + "ratios = 1.5\n" + _ENV,
     "[environment] is not read by command 'ratio-sweep'"),
    (_RATIO_RUN + "ratios = 1.5\n\n[material]\nmodel = plasma\n",
     "[material] is not read by command 'ratio-sweep'"),
    (_RATIO_RUN + "ratios = 1.5\n\n[quadrature]\nrel_tol = 1e-6\n",
     "[quadrature] is not read by command 'ratio-sweep'"),
    (_EFIELD_RUN + "\n[efield]\nV = 0.5\n\n[material]\nmodel = drude\n",
     "[material] is not read by command 'efield'"),
    (_EFIELD_RUN + "\n[efield]\nV = 0.5\n\n[quadrature]\nrel_tol = 1e-6\n",
     "[quadrature] is not read by command 'efield'"),
    ("[environment]\n", "[environment] is missing required key 'a'"),
    # ... and every number finite
    ("[environment]\na = 200e-9\nT = nan\n",
     "[environment] T = 'nan' is not finite"),
    ("[environment]\na = 200e-9\nT = inf\n",
     "[environment] T = 'inf' is not finite"),
    (_EFIELD_RUN + "\n[efield]\nV = nan\n", "[efield] V = 'nan' is not finite"),
    (_SHIFT_RUN + "\n[oscillator]\nomega0 = inf\nC = 10\nAz = 20e-9\n",
     "[oscillator] omega0 = 'inf' is not finite"),
    # the sweep and its ratios
    (_ENV + "\n[sweep]\nvariable = x\nstart = 1\nstop = 2\ncount = 3\n",
     "sweep variable must be one of ('a', 'T', 'phi', 'Az', 'V'), got 'x'"),
    (_ENV + "\n[sweep]\nvariable = a\nstart = 2e-7\nstop = 1e-7\ncount = 3\n",
     "sweep requires start < stop"),
    (_ENV + "\n[sweep]\nvariable = a\nstart = 1e-7\nstop = 2e-7\ncount = 1\n",
     "sweep count must be at least 2"),
    (_ENV + "\n[sweep]\nvariable = T\nstart = 0\nstop = 300\ncount = 3\n"
     "spacing = log\n", "log spacing requires start > 0"),
    (_RATIO_RUN + "ratios = 1.5, x\n",
     "[sweep] ratios = '1.5, x' is not a list of numbers"),
    (_RATIO_RUN + "ratios = ,\n", "[sweep] ratios is empty"),
    (_RATIO_RUN + "ratios = 1.5, inf\n",
     "[sweep] ratios = '1.5, inf' are not all finite"),
    (_RATIO_RUN + "ratios = 0.5\n",
     "[sweep] ratios are A/B values and must be >= 1"),
    # ... which only ratio-sweep reads
    (_ENV + _SWEEP_A + "ratios = 1.5, 2\n",
     "[sweep] key 'ratios' is not read by this run"),
    (_SHIFT_RUN + "\n[oscillator]\nomega0 = 1e4\nAz = 20e-9\nC = 10\n"
     "\n[sweep]\nvariable = Az\nstart = 1e-8\nstop = 2e-7\ncount = 3\n",
     "[oscillator] Az must be smaller than the separation a"),
    # C against b and I
    (_SHIFT_RUN + _OSC + "b = 1e-3\n",
     "[oscillator] requires either C or both b and I"),
    (_SHIFT_RUN + _OSC + "b = 0\nI = 1e-12\n",
     "[oscillator] b must be positive, got 0.0"),
    (_SHIFT_RUN + _OSC + "C = 10\nb = 1e-3\n",
     "[oscillator] give either C or the pair b, I, not both"),
    # sections a command requires
    ("# ratio-sweep over a\n[run]\ncommand = ratio-sweep\n" + _SWEEP_A
     + "ratios = 1.5\n", "ratio-sweep requires a [sweep] over phi"),
    ("# ratio-sweep without ratios\n[run]\ncommand = ratio-sweep\n\n[sweep]\n"
     "variable = phi\nstart = 0\nstop = 1\ncount = 3\n",
     "ratio-sweep requires [sweep] ratios = ... (the A/B values, one curve "
     "each)"),
    ("# ratio-sweep past pi/2\n[run]\ncommand = ratio-sweep\n\n[sweep]\n"
     "variable = phi\nstart = 0\nstop = 2\ncount = 3\nratios = 1.5\n",
     "ratio-sweep phi range must lie in [0, pi/2]"),
    ("# no [geometry]\n[run]\ncommand = force\n" + _ENV,
     "command 'force' requires a [geometry] section"),
    ("\n[material]\nmodel = drude\n",
     "command 'force' requires an [environment] section"),
    ("# no [efield]\n[run]\ncommand = efield\n\n" + _LENS + _ENV,
     "command 'efield' requires an [efield] section"),
    (_SHIFT_RUN, "command 'freq-shift' requires an [oscillator] section"),
    ("# gradient, no [geometry]\n[run]\ncommand = gradient\n" + _ENV,
     "command 'gradient' requires a [geometry] section"),
    ("# efield, no [geometry]\n[run]\ncommand = efield\n" + _ENV
     + "\n[efield]\nV = 0.5\n", "command 'efield' requires a [geometry] section"),
    ("# no [run]\n" + _LENS + _ENV, "missing required section [run]"),
    (_ENV + "\n[run]\ncommand = force\n",
     "inline: While reading from 'inline' [line 12]: section 'run' already "
     "exists"),
    # a tabulated model's table, read from the files the test writes
    ("\n[material]\nmodel = tabulated\n" + _ENV,
     "[material] model = tabulated requires key 'path'"),
    ("\n[material]\nmodel = tabulated\npath = missing.dat\n" + _ENV,
     "[material] cannot read 'missing.dat': [Errno 2] No such file or "
     "directory: 'missing.dat'"),
    ("\n[material]\nmodel = tabulated\npath = columns.dat\n" + _ENV,
     "[material] columns.dat:1: expected two columns, got 3"),
    ("\n[material]\nmodel = tabulated\npath = one_row.dat\n" + _ENV,
     "[material] one_row.dat: at least two data rows are required"),
    ("\n[material]\nmodel = tabulated\npath = negative.dat\n" + _ENV,
     "[material] tabulated frequencies must be positive"),
    ("\n[material]\nmodel = tabulated\npath = rising.dat\n" + _ENV,
     "[material] tabulated eps(i xi) must decrease monotonically toward 1"),
    ("\n[material]\nmodel = tabulated\npath = infinite.dat\n" + _ENV,
     "[material] tabulated eps(i xi) must be finite"),
    # the constructors' own checks
    ("h = -1e-6\n" + _ENV, "[geometry] h must be positive, got -1e-06"),
    ("d = 2e-4\n" + _ENV,
     "[geometry] half-width d cannot exceed the semiaxis A"),
    ("h = 2e-4\n" + _ENV,
     "[geometry] a cap thinner than the semiaxis is required (h <= B)"),
    ("variant = two-halves\nA1 = 1e-6\nB1 = 2e-6\nA2 = 1e-6\nB2 = 1e-6\n"
     "h = 1e-7\nd = 5e-7\n" + _ENV, "[geometry] each half must satisfy A >= B"),
])
def test_section_errors_keep_their_text(section, message, tmp_path,
                                        monkeypatch):
    # a case is appended to a force run on a symmetric lens; one that
    # opens with a '#' comment is a whole config of its own
    monkeypatch.chdir(tmp_path)
    for name, table in _TABLES.items():
        (tmp_path / name).write_text(table)
    text = section if section.startswith("#") else (
        "[run]\ncommand = force\n\n" + _LENS + section)
    with pytest.raises(ConfigError) as exc:
        parse_config(text, origin="inline")
    assert str(exc.value) == message


def test_sweep_spec_rejects_unknown_spacing():
    # parse_config rejects the word before it gets here
    with pytest.raises(ConfigError, match="sweep spacing must be 'linear' "
                                          "or 'log'"):
        SweepSpec("a", 1e-7, 2e-7, 3, spacing="cubic")


@pytest.mark.parametrize("spec", [("T", -math.inf, 300.0, 3),
                                  ("a", 1e-7, math.inf, 3, "log"),
                                  ("a", math.nan, 2e-7, 3)])
def test_sweep_spec_rejects_non_finite_ends(spec):
    # parse_config rejects such a number before it gets here; built
    # directly, -inf gave the points [nan, nan, 300]
    with pytest.raises(ConfigError) as exc:
        SweepSpec(*spec)
    assert str(exc.value) == "sweep start and stop must be finite"


def test_keys_are_case_insensitive():
    cfg = parse_config(SWEPT.replace("T = 300", "t = 4")
                       .replace("a = 200e-9", "A = 300e-9"), origin="inline")
    assert (cfg.environment.a, cfg.environment.T) == (300e-9, 4.0)


def test_readme_ini_blocks_parse():
    readme = pathlib.Path(__file__).parent.parent / "README.md"
    blocks = re.findall(r"```ini\n(.*?)```", readme.read_text(), re.S)
    assert blocks
    for block in blocks:
        parse_config(block, origin="README.md")
