"""Command line: output formats, sweeps, exit codes, flag handling."""

import json
import math

import numpy as np
import pytest

from casimir_lens import engine, materials, oscillator
from casimir_lens.cli import main, run_command, thermal_correction
from casimir_lens.config import (ConfigError, load_config, parse_config,
                                 visited_range)
from casimir_lens.engine import casimir_force, force, rotation_factor
from casimir_lens.geometry import Environment, symmetric_lens
from casimir_lens.materials import IdealMetal
from casimir_lens.oscillator import (OscillatorParams,
                                     frequency_shift_for_variant,
                                     frequency_shift_linear)

BASE = """\
[run]
command = force

[geometry]
A = 100e-6
B = 100e-6
L = 1e-3

[material]
model = ideal

[environment]
a = 200e-9
T = 300
"""


def write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def rows_of(csv_text):
    lines = [l for l in csv_text.splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_force_csv_matches_library(tmp_path, capsys):
    assert main(["--config", write(tmp_path, BASE)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# casimir-lens result table")
    header, rows = rows_of(out)
    assert header == ["a_m", "T_K", "force_N", "force_T0_N",
                      "thermal_correction", "est_abs_error", "terms_used"]
    assert len(rows) == 1
    lens = symmetric_lens(100e-6, 100e-6, 1e-3)
    expect = casimir_force(lens, Environment(a=200e-9, T=300.0), IdealMetal())
    assert float(rows[0][2]) == expect.value
    corr = thermal_correction(float(rows[0][2]), float(rows[0][3]))
    assert float(rows[0][4]) == pytest.approx(corr, rel=1e-12)


def test_zero_temperature_csv_row_is_its_own_companion(tmp_path, capsys):
    assert main(["--config", write(tmp_path, BASE.replace("T = 300",
                                                          "T = 0"))]) == 0
    _, rows = rows_of(capsys.readouterr().out)
    lens = symmetric_lens(100e-6, 100e-6, 1e-3)
    expect = casimir_force(lens, Environment(a=200e-9, T=0.0), IdealMetal())
    # the row is the T = 0 force twice, no thermal correction, and the
    # v-rows of the T = 0 integral as its terms
    assert rows == [[format(v, ".17g") for v in (
        200e-9, 0.0, expect.value, expect.value, 0.0, expect.est_abs_error)]
        + ["76"]]


def test_json_round_trip(tmp_path, capsys):
    assert main(["--config", write(tmp_path, BASE), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"config", "columns", "rows", "partial"}
    assert doc["partial"] is False
    lens = symmetric_lens(100e-6, 100e-6, 1e-3)
    expect = casimir_force(lens, Environment(a=200e-9, T=300.0), IdealMetal())
    i = doc["columns"].index("force_N")
    assert doc["rows"][0][i] == expect.value  # bit-exact through json


def test_gradient_command_columns(tmp_path, capsys):
    cfg = BASE.replace("command = force", "command = gradient")
    assert main(["--config", write(tmp_path, cfg)]) == 0
    header, rows = rows_of(capsys.readouterr().out)
    assert "gradient_N_per_m" in header
    assert "gradient_T0_N_per_m" in header
    assert float(rows[0][header.index("gradient_N_per_m")]) > 0.0


def test_sweep_rows_in_order_and_threads_flag_rejected(tmp_path, capsys):
    cfg = BASE + """
[sweep]
variable = a
start = 150e-9
stop = 600e-9
count = 4
spacing = log
"""
    path = write(tmp_path, cfg)
    assert main(["--config", path]) == 0
    header, rows = rows_of(capsys.readouterr().out)
    assert len(rows) == 4
    gaps = [float(r[0]) for r in rows]
    assert gaps == sorted(gaps)
    assert gaps[0] == 150e-9  # 17 digits round-trip the exact end points
    assert gaps[-1] == 600e-9
    # sweep points run one after the other; there is no thread pool to size
    with pytest.raises(SystemExit) as exc:
        main(["--config", path, "--threads", "2"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("spacing", ["linear", "log"])
def test_visited_range_is_the_sweep_end_points(spacing):
    cfg = parse_config(BASE + "\n[sweep]\nvariable = a\nstart = 150e-9\n"
                       f"stop = 5e-6\ncount = 16\nspacing = {spacing}\n",
                       origin="inline")
    points = cfg.sweep.points()
    assert visited_range(cfg, "a") == (points[0], points[-1])
    assert visited_range(cfg, "T") == (300.0, 300.0)


def test_output_file_and_format_from_config(tmp_path):
    # '%' in a value is text: no interpolation, and '%(T)s' reads no key
    out_path = tmp_path / "50%(T)s%result.json"
    cfg = BASE + f"""
[output]
path = {out_path}
format = json
"""
    assert load_config(write(tmp_path, cfg)).output_path == str(out_path)
    assert main(["--config", write(tmp_path, cfg)]) == 0
    doc = json.loads(out_path.read_text())
    assert doc["columns"][0] == "a_m"


def test_tolerance_override_recorded(tmp_path, capsys):
    assert main(["--config", write(tmp_path, BASE),
                 "--tolerance", "1e-6"]) == 0
    out = capsys.readouterr().out
    assert "# quadrature.rel_tol = 9.9999999999999995e-07" in out


EFIELD = BASE.replace("command = force", "command = efield").replace(
    "[material]\nmodel = ideal\n\n", "") + """
[efield]
V = 0.5
V0 = 0.1

[sweep]
variable = V
start = -0.3
stop = 0.5
count = 5
"""

RATIO_SWEEP = """
[run]
command = ratio-sweep

[sweep]
variable = phi
start = 0.0
stop = 1.5707963267948966
count = 9
ratios = 1.1, 1.2, 1.4
"""


@pytest.mark.parametrize("command, cfg", [("efield", EFIELD),
                                          ("ratio-sweep", RATIO_SWEEP)],
                         ids=["efield", "ratio-sweep"])
def test_tolerance_rejected_where_no_frequency_sum_runs(tmp_path, capsys,
                                                        command, cfg):
    # the flag sets [quadrature] rel_tol, which these commands do not read
    assert main(["--config", write(tmp_path, cfg),
                 "--tolerance", "1e-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"config error: --tolerance is not read by "
                            f"command '{command}'\n")


def test_efield_parabola(tmp_path, capsys):
    assert main(["--config", write(tmp_path, EFIELD)]) == 0
    header, rows = rows_of(capsys.readouterr().out)
    assert header == ["a_m", "V_volt", "V0_volt", "force_N"]
    vs = [float(r[1]) for r in rows]
    fs = [float(r[3]) for r in rows]
    assert vs[2] == pytest.approx(0.1, rel=1e-12)
    assert fs[2] == pytest.approx(0.0, abs=1e-18)  # vertex at V0
    assert fs[0] == pytest.approx(fs[4], rel=1e-9)  # symmetric flanks


def test_freq_shift_matches_library(tmp_path, capsys):
    cfg = BASE.replace("command = force", "command = freq-shift") + """
[oscillator]
omega0 = 4398.2
C = 10.0
Az = 20e-9
"""
    assert main(["--config", write(tmp_path, cfg)]) == 0
    header, rows = rows_of(capsys.readouterr().out)
    lens = symmetric_lens(100e-6, 100e-6, 1e-3)
    env = Environment(a=200e-9, T=300.0)
    p = OscillatorParams(omega0=4398.2, C=10.0, Az=20e-9)
    nl = frequency_shift_for_variant(lens, env, IdealMetal(), p)
    lin = frequency_shift_linear(lens, env, IdealMetal(), p)
    assert float(rows[0][header.index("delta_omega2_rad2_per_s2")]) == \
        pytest.approx(nl, rel=1e-12)
    assert float(rows[0][header.index("omega_r_linear_rad_per_s")]) == \
        pytest.approx(lin.omega_r, rel=1e-12)


def test_ratio_sweep_columns_and_values(tmp_path, capsys):
    assert main(["--config", write(tmp_path, RATIO_SWEEP)]) == 0
    header, rows = rows_of(capsys.readouterr().out)
    assert header == ["phi_rad", "G_A_over_B_1.1", "G_A_over_B_1.2",
                      "G_A_over_B_1.4"]
    assert float(rows[0][1]) == 1.0  # no rotation, no reduction
    col = [float(r[2]) for r in rows]
    assert all(a > b for a, b in zip(col, col[1:]))
    assert col[-1] == pytest.approx(rotation_factor(1.2, 1.0,
                                                    math.pi / 2.0).G,
                                    rel=1e-12)


def test_exit_2_on_config_problems(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "missing.ini")]) == 2
    assert main(["--config", write(tmp_path, "[run]\ncommand = bogus\n")]) == 2
    bad_geom = BASE.replace("B = 100e-6", "B = 200e-6")  # B > A
    assert main(["--config", write(tmp_path, bad_geom)]) == 2
    capsys.readouterr()
    misspelt = BASE.replace("T = 300", "temperature = 4")
    assert main(["--config", write(tmp_path, misspelt)]) == 2
    assert capsys.readouterr().err == ("config error: [environment] key "
                                       "'temperature' is not read by this run\n")


def test_exit_2_on_a_table_below_the_runs_frequencies(tmp_path, capsys):
    table = tmp_path / "narrow.dat"
    table.write_text("1.0e8 5000.0\n2.0e13 2500.0\n")
    cfg = BASE.replace("model = ideal",
                       f"model = tabulated\npath = {table}")
    # the table reaches the T = 0 companion's first node (5.66e8 rad/s), but
    # not the first Matsubara frequency at 300 K (2.47e14 rad/s): the config
    # is refused before the run, which would fail at its first term
    assert main(["--config", write(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: [material] model = tabulated cannot "
                          "run this force: xi reaches 1.23e+17 rad/s")


_SHIFT_AT = """\
[run]
command = freq-shift

[geometry]
A = 100e-6
B = 100e-6
L = 1e-3

[material]
model = tabulated
path = {table}

[environment]
a = 200e-9
T = {T}

[oscillator]
omega0 = 4400.0
C = 10.0
Az = {az}
"""


def _drude_table(path, top, bottom=1.0e2):
    """A 50-knot Drude-like table from bottom (1e2 rad/s) to top."""
    xi = np.geomspace(bottom, top, 50)
    path.write_text("".join(f"{x:.17g} {1.0 + 1.0e32 / (x * (x + 5.0e13)):.17g}\n"
                            for x in xi))


def test_tabulated_shift_near_contact_refused_at_parse(tmp_path, capsys):
    # at Az/a = 0.99 the shift's window reaches xi ~ 6e18 rad/s, beyond a
    # table ending at 1e18; at 0.9 the same table still runs
    table = tmp_path / "gold.dat"
    _drude_table(table, 1.0e18)
    near = _SHIFT_AT.format(table=table, T=300, az=198e-9)
    assert main(["--config", write(tmp_path, near)]) == 2
    assert "above the table's top 1e+18 rad/s" in capsys.readouterr().err
    far = _SHIFT_AT.format(table=table, T=300, az=180e-9)
    assert main(["--config", write(tmp_path, far), "--quiet"]) == 0


@pytest.mark.parametrize("text", [
    BASE.replace("a = 200e-9", "a = 150e-9"),
    _SHIFT_AT.format(table="{table}", T=300, az=180e-9),
    _SHIFT_AT.format(table="{table}", T=0, az=198e-9),
    _SHIFT_AT.format(table="{table}", T=3, az=100e-9),
], ids=["force 300 K", "shift 300 K 0.9", "shift 0 K 0.99", "shift 3 K 0.5"])
def test_a_table_the_run_outgrows_is_refused_at_parse(tmp_path, monkeypatch,
                                                      text):
    # run on a wide table, recording the highest frequency evaluated; a
    # table ending just below it must not parse
    table = tmp_path / "gold.dat"
    text = text.replace("model = ideal", "model = tabulated\npath = {table}")
    text = text.format(table=table)
    _drude_table(table, 1.0e20)
    cfg = parse_config(text)
    seen, epsilon = [], materials._epsilon
    monkeypatch.setattr(materials, "_epsilon", lambda model, xi: (
        seen.append(float(np.max(xi))), epsilon(model, xi))[1])
    assert run_command(cfg)[2] is None
    _drude_table(table, max(seen) * (1.0 - 1e-9))
    with pytest.raises(ConfigError, match="above the table's top"):
        parse_config(text)


@pytest.mark.parametrize("text, T, xi1", [
    (_SHIFT_AT.format(table="{table}", T=3, az=100e-9), "3", 2.46779e12),
    (BASE.replace("T = 300", "T = 1e-6"), "1e-06", 822597.0),
    # the sweep's lowest T > 0, 0.5 mK, not its start
    (BASE + "\n[sweep]\nvariable = T\nstart = 0\nstop = 1e-3\ncount = 3\n",
     "0.0005", 4.112986e8),
], ids=["shift 3 K", "force 1 uK", "force sweep from 0 K"])
def test_a_table_starting_above_xi_1_is_refused_at_parse(tmp_path, capsys, T,
                                                        text, xi1):
    # xi_1 = 2 pi kB T / hbar is the lowest frequency a sum at T > 0
    # evaluates the table at: a table starting above it must not parse
    # (it would exit 3 at the first term), one starting just below it must
    table = tmp_path / "gold.dat"
    text = text.replace("model = ideal", "model = tabulated\npath = {table}")
    text = text.format(table=table)
    _drude_table(table, 1.0e20, bottom=xi1 * 1.01)
    assert main(["--config", write(tmp_path, text), "--quiet"]) == 2
    assert (f"cannot run T = {T} K: its first Matsubara frequency is xi_1 = "
            f"{xi1:.3g} rad/s, below the lowest tabulated frequency"
            in capsys.readouterr().err)
    _drude_table(table, 1.0e20, bottom=xi1 * 0.99)
    parse_config(text)


@pytest.mark.parametrize("a, sweep, message", [
    # the 300 K force overflows to -inf and its T = 0 companion to NaN
    ("1e-160", "", "row 1: not finite: {'a_m': 1e-160, 'T_K': 300.0, "
     "'force_N': -inf, 'force_T0_N': nan"),
    # the prefactor's 1/a^2 divides by zero
    ("1e-200", "\n[sweep]\nvariable = a\nstart = 1e-200\nstop = 2e-200\n"
     "count = 2\n", "row 1 (a = 1e-200): float division by zero"),
])
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_exit_3_on_a_row_that_cannot_be_computed(tmp_path, capsys, a, sweep,
                                                 message):
    cfg = BASE.replace("a = 200e-9", f"a = {a}").replace(
        "model = ideal", "model = drude") + sweep
    assert main(["--config", write(tmp_path, cfg), "--quiet"]) == 3
    captured = capsys.readouterr()
    assert f"domain error: {message}" in captured.err
    assert captured.out == ""


def test_exit_2_on_unwritable_output(tmp_path, capsys):
    missing = tmp_path / "missing" / "x.csv"
    assert main(["--config", write(tmp_path, BASE), "--output",
                 str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("output error: ")
    assert str(missing) in captured.err
    assert captured.out == ""


def test_exit_4_on_convergence_failure_emits_partial(tmp_path, capsys):
    # at 1 K no remainder window reaches rel_tol = 1e-40
    cfg = BASE.replace("T = 300", "T = 1") + """
[quadrature]
rel_tol = 1e-40
"""
    code = main(["--config", write(tmp_path, cfg), "--format", "json"])
    captured = capsys.readouterr()
    assert code == 4
    assert "convergence failure" in captured.err
    doc = json.loads(captured.out)
    assert doc["partial"] is True
    # CSV flags the same failure in its '#' block, above the header
    assert main(["--config", write(tmp_path, cfg)]) == 4
    out = capsys.readouterr().out
    assert ("# partial = true  (convergence failure; rows below are the "
            "completed sweep prefix)") in out.splitlines()
    assert rows_of(out) == (["a_m", "T_K", "force_N", "force_T0_N",
                             "thermal_correction", "est_abs_error",
                             "terms_used"], [])


def test_quiet_suppresses_validity_warnings(tmp_path, capsys):
    cfg = BASE.replace("a = 200e-9", "a = 15e-6")  # a/B well past the
    path = write(tmp_path, cfg)                    # trust region
    assert main(["--config", path]) == 0
    assert "warning" in capsys.readouterr().err.lower()
    assert main(["--config", path, "--quiet"]) == 0
    assert capsys.readouterr().err == ""


def test_parse_config_consistency_checks(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(BASE.replace("command = force", "command = freq-shift"),
                     origin="inline")  # oscillator section required
    with pytest.raises(ConfigError):
        parse_config(BASE + "\n[sweep]\nvariable = phi\nstart = 0\n"
                     "stop = 1\ncount = 3\n", origin="inline")
    # the drive amplitude must stay below every separation the run visits,
    # whichever variable is swept
    shift = BASE.replace("command = force", "command = freq-shift") + """
[oscillator]
omega0 = 4398.2
C = 10.0
Az = 250e-9
"""
    with pytest.raises(ConfigError, match="Az must be smaller than the "
                                          "separation a"):
        parse_config(shift + "\n[sweep]\nvariable = T\nstart = 10\n"
                     "stop = 300\ncount = 3\n", origin="inline")
    with pytest.raises(ConfigError, match="smallest separation of the a sweep"):
        parse_config(shift.replace("a = 200e-9", "a = 1e-6")
                     + "\n[sweep]\nvariable = a\nstart = 200e-9\n"
                     "stop = 1e-6\ncount = 3\n", origin="inline")
    # a sweep end point outside its variable's range fails here, not mid-run
    rotated = BASE.replace("A = 100e-6", "variant = rotated\nA = 100e-6\n"
                           "phi = 0.5")
    for text, message in (
            (rotated + "\n[sweep]\nvariable = phi\nstart = 0.5\nstop = 2.0\n"
             "count = 4\n", r"\[sweep\] phi must lie in \[0, pi/2\]"),
            (BASE + "\n[sweep]\nvariable = T\nstart = -10\nstop = 300\n"
             "count = 3\n", r"\[sweep\] temperature T cannot be negative"),
            (BASE + "\n[sweep]\nvariable = a\nstart = -100e-9\nstop = 1e-6\n"
             "count = 3\n", r"\[sweep\] separation a must be positive"),
            (shift.replace("Az = 250e-9", "Az = 20e-9")
             + "\n[sweep]\nvariable = Az\nstart = -10e-9\nstop = 100e-9\n"
             "count = 3\n", r"\[sweep\] drive amplitude Az must be positive")):
        with pytest.raises(ConfigError, match=message):
            parse_config(text, origin="inline")
    # the end points are checked before the tabulated material's T = 0 check
    table = tmp_path / "gold.dat"
    table.write_text("1.0e13 5000.0\n1.0e18 1.5\n")
    with pytest.raises(ConfigError, match=r"\[sweep\] temperature T cannot "
                                          "be negative"):
        parse_config(shift.replace("Az = 250e-9", "Az = 20e-9")
                     .replace("model = ideal",
                              f"model = tabulated\npath = {table}")
                     + "\n[sweep]\nvariable = T\nstart = -10\nstop = 300\n"
                     "count = 3\n", origin="inline")
    cfg = load_config(write(tmp_path, BASE))
    assert cfg.command == "force"
    assert cfg.geometry.A == 100e-6


def test_tabulated_at_zero_temperature_rejected(tmp_path):
    table = tmp_path / "gold.dat"
    table.write_text("1.0e13 5000.0\n1.0e18 1.5\n")
    cfg = BASE.replace("model = ideal", f"model = tabulated\npath = {table}")
    with pytest.raises(ConfigError, match="first zeta-node"):
        parse_config(cfg.replace("T = 300", "T = 0"), origin="inline")
    with pytest.raises(ConfigError, match="first zeta-node"):
        parse_config(cfg + "\n[sweep]\nvariable = T\nstart = 0\nstop = 300\n"
                     "count = 3\n", origin="inline")
    # a table reaching below the first node is accepted at T = 0
    table.write_text("1.0e2 5000.0\n1.0e18 1.5\n")
    assert parse_config(cfg.replace("T = 300", "T = 0"),
                        origin="inline").environment.T == 0.0


def test_tabulated_companion_rejected_for_force_and_gradient(tmp_path, capsys):
    # every force/gradient row carries a T = 0 companion whose first
    # zeta-node (5.66e8 rad/s at 200 nm) lies below this table; freq-shift
    # evaluates only the configured 300 K and still runs on it
    table = tmp_path / "gold.dat"
    table.write_text("1.0e13 5000.0\n1.0e18 1.5\n")
    cfg = BASE.replace("model = ideal", f"model = tabulated\npath = {table}")
    for command in ("force", "gradient"):
        text = cfg.replace("command = force", f"command = {command}")
        assert main(["--config", write(tmp_path, text)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert f"T = 0 companion that every {command} row carries" in err
    shift = cfg.replace("command = force", "command = freq-shift") + """
[oscillator]
omega0 = 4398.0
C = 10.0
Az = 20e-9
"""
    assert parse_config(shift, origin="inline").environment.T == 300.0
    assert main(["--config", write(tmp_path, shift)]) == 0


def _counted(monkeypatch, module, name):
    """Wrap module.name so that each call appends its arguments to a list."""
    calls, fn = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


_DRUDE_200NM = BASE.replace("model = ideal", "model = drude")


def test_t_sweep_computes_its_t0_companion_once_per_run(monkeypatch):
    # every row of a T sweep carries the same T = 0 companion: one
    # zero-temperature integral per run, and a second run makes its own
    cfg = parse_config(_DRUDE_200NM + "\n[sweep]\nvariable = T\nstart = 3\n"
                       "stop = 24\ncount = 4\nspacing = log\n")
    integrals = _counted(monkeypatch, engine, "_zeta_integral")
    _, rows, failure = run_command(cfg)
    assert failure is None and len(rows) == 4
    assert len(integrals) == 1
    assert run_command(cfg)[1] == rows
    assert len(integrals) == 2
    lens, model = cfg.geometry, cfg.material
    t0 = force(lens, Environment(a=200e-9, T=0.0), model)
    for row, T in zip(rows, cfg.sweep.points()):
        res = force(lens, Environment(a=200e-9, T=float(T)), model)
        assert row == [200e-9, T, res.value, t0.value,
                       thermal_correction(res.value, t0.value),
                       res.est_abs_error, res.terms_used]


def test_zero_temperature_row_is_its_own_companion(monkeypatch):
    cfg = parse_config(_DRUDE_200NM.replace("T = 300", "T = 0"))
    integrals = _counted(monkeypatch, engine, "_zeta_integral")
    row = run_command(cfg)[1][0]
    assert len(integrals) == 1
    assert row[2] == row[3] == force(cfg.geometry, cfg.environment,
                                     cfg.material).value
    assert row[4] == 0.0


def test_az_sweep_computes_its_linear_shift_once_per_run(monkeypatch):
    # the linear shift does not depend on Az: one gradient per run, while
    # the nonlinear shift is evaluated (and its amplitude checked) per row
    cfg = parse_config(_DRUDE_200NM.replace("command = force",
                                            "command = freq-shift")
                       + "\n[oscillator]\nomega0 = 4400.0\nC = 10.0\n"
                       "Az = 20e-9\n\n[sweep]\nvariable = Az\nstart = 20e-9\n"
                       "stop = 198e-9\ncount = 4\nspacing = log\n")
    gradients = _counted(monkeypatch, oscillator, "gradient")
    _, rows, failure = run_command(cfg)
    assert failure is None and len(rows) == 4
    assert len(gradients) == 1
    run_command(cfg)
    assert len(gradients) == 2
    env, model = cfg.environment, cfg.material
    for row, az in zip(rows, cfg.sweep.points()):
        osc = OscillatorParams(omega0=4400.0, C=10.0, Az=float(az))
        lin = frequency_shift_linear(cfg.geometry, env, model, osc)
        assert row == [200e-9, 300.0, az,
                       frequency_shift_for_variant(cfg.geometry, env, model,
                                                   osc),
                       lin.delta_omega2, lin.omega_r]
