"""Run configuration: the echoed provenance, sweeps and parse errors."""

import dataclasses
import pathlib
import re

import pytest

from casimir_lens.cli import format_csv
from casimir_lens.config import (ConfigError, SWEEP_VARIABLES,
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
quadrature.rel_tol = 1e-08
quadrature.l_max = 100000"""),
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
l_max = 5000
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
quadrature.rel_tol = 9.9999999999999995e-07
quadrature.l_max = 5000"""),
    "rotated with d, plasma with omega_p_ev, sweep with ratios": ("""\
[run]
command = ratio-sweep

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

[sweep]
variable = phi
start = 0.0
stop = 1.5707963267948966
count = 9
ratios = 1.1, 1.2 1.4
""", """\
run.command = ratio-sweep
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
sweep.variable = phi
sweep.start = 0
sweep.stop = 1.5707963267948966
sweep.count = 9
sweep.spacing = linear
sweep.ratios = 1.1000000000000001, 1.2, 1.3999999999999999
quadrature.rel_tol = 1e-08
quadrature.l_max = 100000"""),
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
quadrature.rel_tol = 1e-08
quadrature.l_max = 100000"""),
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
quadrature.rel_tol = 1e-08
quadrature.l_max = 100000"""),
    "efield with the default V0, tabulated material": ("""\
[run]
command = efield

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
material.model = tabulated
environment.a = 1.9999999999999999e-07
environment.T = 300
efield.V = 0.5
efield.V0 = 0
quadrature.rel_tol = 1e-08
quadrature.l_max = 100000"""),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_provenance_echo_is_pinned(name, tmp_path):
    table = tmp_path / "gold.dat"
    table.write_text("1.0e8 5000.0\n2.0e13 2500.0\n")
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

[efield]
V = 0.5
V0 = 0.1
"""

# the RunConfig field each sweep variable lives in: (owner, field, a point)
OWNERS = {"a": ("environment", "a", 250e-9), "T": ("environment", "T", 4.0),
          "phi": ("geometry", "phi", 1.25), "Az": ("oscillator", "Az", 30e-9),
          "V": ("bias", "V", 0.25)}


def test_owners_cover_every_sweep_variable():
    assert set(OWNERS) == set(SWEEP_VARIABLES)


@pytest.mark.parametrize("variable", list(OWNERS))
def test_substitute_changes_only_the_swept_field(variable):
    owner, name, x = OWNERS[variable]
    cfg = parse_config(SWEPT + f"\n[sweep]\nvariable = {variable}\n"
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
    unswept = parse_config(SWEPT, origin="inline")
    assert substitute(unswept, None) == (unswept.geometry, unswept.environment,
                                         unswept.oscillator, unswept.bias)


@pytest.mark.parametrize("variable, cut, message", [
    ("phi", "variant = rotated\n", "a phi sweep requires variant = rotated"),
    ("Az", "[oscillator]\nomega0 = 4398.2\nC = 10.0\nAz = 20e-9\n",
     "an Az sweep requires an [oscillator] section"),
    ("V", "[efield]\nV = 0.5\nV0 = 0.1\n",
     "a V sweep requires an [efield] section"),
])
def test_sweep_requires_its_owner(variable, cut, message):
    text = SWEPT.replace("command = freq-shift", "command = force")
    sweep = f"\n[sweep]\nvariable = {variable}\nstart = 0.1\nstop = 0.2\ncount = 3\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(text.replace(cut, "") + sweep, origin="inline")
    assert str(exc.value) == message


@pytest.mark.parametrize("section, message", [
    ("[environment]\nT = 300\n", "[environment] is missing required key 'a'"),
    ("[environment]\na = 200e-9\n\n[efield]\nV = x\n",
     "[efield] V = 'x' is not a number"),
    ("[environment]\na = 200e-9\n\n[quadrature]\nl_max = 1.5\n",
     "[quadrature] l_max = '1.5' is not an integer"),
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
    ("[environment]\n", "[environment] is missing required key 'a'"),
    # ... and every number finite
    ("[environment]\na = 200e-9\nT = nan\n",
     "[environment] T = 'nan' is not finite"),
    ("[environment]\na = 200e-9\nT = inf\n",
     "[environment] T = 'inf' is not finite"),
    ("[environment]\na = 200e-9\n\n[efield]\nV = nan\n",
     "[efield] V = 'nan' is not finite"),
    ("[environment]\na = 200e-9\n\n[oscillator]\nomega0 = inf\nC = 10\n"
     "Az = 20e-9\n", "[oscillator] omega0 = 'inf' is not finite"),
])
def test_section_errors_keep_their_text(section, message):
    text = ("[run]\ncommand = force\n\n[geometry]\nA = 100e-6\nB = 100e-6\n"
            "L = 1e-3\n" + section)
    with pytest.raises(ConfigError) as exc:
        parse_config(text, origin="inline")
    assert str(exc.value) == message


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
