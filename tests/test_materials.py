"""Permittivity models and reflection coefficients."""

import math

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from casimir_lens.constants import CONSTANTS, ev_to_rad_per_s
from casimir_lens.materials import (Drude, IdealMetal, Plasma, Tabulated,
                                    epsilon_at_imaginary, gold_drude,
                                    gold_plasma, reflection_sq_grid)


def test_gold_drude_frozen_epsilon():
    # eps(i xi) at xi = 1 eV: 1 + 81/(1 * 1.035) = 79.26...
    xi = ev_to_rad_per_s(1.0)
    eps = epsilon_at_imaginary(gold_drude(), xi)
    assert eps == pytest.approx(1.0 + 81.0 / 1.035, rel=1e-12)


def test_plasma_epsilon_scaling():
    xi = ev_to_rad_per_s(3.0)
    eps = epsilon_at_imaginary(gold_plasma(), xi)
    assert eps == pytest.approx(1.0 + 9.0, rel=1e-12)  # 1 + (9/3)^2


def test_plasma_exceeds_drude_on_imaginary_axis():
    # 1 + wp^2/xi^2 > 1 + wp^2/(xi (xi + gamma)) for any xi, gamma > 0.
    for ev in (0.01, 1.0, 100.0):
        xi = ev_to_rad_per_s(ev)
        assert epsilon_at_imaginary(gold_plasma(), xi) > \
            epsilon_at_imaginary(gold_drude(), xi)


def test_ideal_metal_epsilon_infinite():
    assert math.isinf(epsilon_at_imaginary(IdealMetal(), 1e15))


def test_epsilon_requires_positive_frequency():
    with pytest.raises(ValueError):
        epsilon_at_imaginary(gold_drude(), 0.0)


def test_epsilon_rejects_an_unknown_model():
    with pytest.raises(TypeError, match="unknown permittivity model"):
        epsilon_at_imaginary(object(), 1e15)


def test_model_parameter_validation():
    with pytest.raises(ValueError):
        Plasma(omega_p=-1.0)
    with pytest.raises(ValueError):
        Drude(omega_p=1e16, gamma=-1.0)
    with pytest.raises(ValueError, match="equal length >= 2"):
        Tabulated([1e13], [2.0])
    with pytest.raises(ValueError, match="equal length >= 2"):
        Tabulated([1e13, 1e14], [2.0, 1.5, 1.2])


def _pair(model, zeta, v, a):
    """(r_TM, r_TE) at one (zeta, v) point, from the squared grid values."""
    tm2, te2 = reflection_sq_grid(model, zeta, np.array([float(v)]), a)
    return math.sqrt(tm2[0]), -math.sqrt(te2[0])


def test_ideal_metal_reflection_everywhere():
    for zeta in (0.0, 0.5, 3.0):
        v = np.array([zeta + 1.7, zeta + 40.0])
        tm2, te2 = reflection_sq_grid(IdealMetal(), zeta, v, 200e-9)
        assert tm2.tolist() == [1.0, 1.0] and te2.tolist() == [1.0, 1.0]


def test_zero_frequency_branches():
    a, v = 200e-9, np.array([1.3])
    tm2, te2 = reflection_sq_grid(gold_drude(), 0.0, v, a)
    assert tm2[0] == 1.0 and te2[0] == 0.0
    tm2, te2 = reflection_sq_grid(gold_plasma(), 0.0, v, a)
    wp = 2.0 * a * gold_plasma().omega_p / CONSTANTS.c
    root = math.hypot(1.3, wp)
    assert tm2[0] == 1.0
    assert te2[0] == pytest.approx(((1.3 - root) / (1.3 + root)) ** 2,
                                   rel=1e-15)


def test_plasma_zero_frequency_continuity():
    # The plasma TE branch is the zeta -> 0 limit of the general formula.
    a, v = 200e-9, 2.0
    at_zero = _pair(gold_plasma(), 0.0, v, a)
    near_zero = _pair(gold_plasma(), 1e-8, v, a)
    assert near_zero[1] == pytest.approx(at_zero[1], rel=1e-6)
    assert near_zero[0] == pytest.approx(at_zero[0], rel=1e-6)


def test_ideal_metal_zero_frequency_continuity():
    a, v = 200e-9, 2.0
    at_zero = _pair(IdealMetal(), 0.0, v, a)
    near_zero = _pair(IdealMetal(), 1e-8, v, a)
    assert near_zero == pytest.approx(at_zero, rel=1e-12)


def test_tm_dominates_te():
    # |r_TM| >= |r_TE| for any dielectric at imaginary frequency.
    rng = np.random.default_rng(42)
    a = 200e-9
    for model in (gold_drude(), gold_plasma()):
        zeta = rng.uniform(0.01, 20.0, 50)
        v = rng.uniform(zeta, zeta + 40.0) + 1e-6
        tm2, te2 = reflection_sq_grid(model, zeta, v, a)
        assert np.all(tm2 >= te2)
        assert np.all((0.0 <= tm2) & (tm2 <= 1.0))
        assert np.all((0.0 <= te2) & (te2 <= 1.0))


def test_reflection_grid_matches_scalar():
    # every grid element against the closed form evaluated in floats
    a, zeta = 150e-9, 0.8
    v = np.linspace(zeta + 1e-3, zeta + 30.0, 17)
    tm2, te2 = reflection_sq_grid(gold_drude(), zeta, v, a)
    xi = CONSTANTS.c * zeta / (2.0 * a)
    eps = float(epsilon_at_imaginary(gold_drude(), xi))
    for i, vi in enumerate(v.tolist()):
        root = math.sqrt(vi * vi + (eps - 1.0) * zeta * zeta)
        r_tm = (eps * vi - root) / (eps * vi + root)
        r_te = (vi - root) / (vi + root)
        assert tm2[i] == pytest.approx(r_tm ** 2, rel=1e-14)
        assert te2[i] == pytest.approx(r_te ** 2, rel=1e-14)


_ZETAS = {  # (zeta, v) at a = 200 nm: each zeta's v >= zeta
    "zero": (0.0, np.linspace(1e-3, 30.0, 7)),
    "float": (0.8, np.linspace(0.801, 30.0, 7)),
    "column": (np.array([[0.3], [0.8], [2.5]]),
               np.array([0.3, 0.8, 2.5])[:, None] + np.linspace(1e-3, 30.0, 5)),
    "per-node": (np.array([[0.3, 1.1], [2.5, 7.0]]),
                 np.array([[0.4, 1.1], [9.0, 30.0]])),
}
_TABLE_XI = np.geomspace(1.0e11, 1.0e18, 9)


@pytest.mark.parametrize("zeta", _ZETAS)
@pytest.mark.parametrize("model", [
    IdealMetal(), gold_drude(), gold_plasma(),
    Tabulated(_TABLE_XI, 1.0 + 1.0e32 / (_TABLE_XI * (_TABLE_XI + 5.0e13)))],
    ids=["ideal", "drude", "plasma", "tabulated"])
def test_reflection_stack_is_each_polarizations_square(model, zeta):
    # one array, r_TM^2 over r_TE^2 on a first axis of two, each node the
    # square of its coefficient taken in floats, bit for bit
    a = 200e-9
    zeta, v = _ZETAS[zeta]
    got = reflection_sq_grid(model, zeta, v, a)
    assert got.shape == (2,) + np.broadcast(zeta, v).shape
    for i in np.ndindex(*got.shape[1:]):
        z, vi = float(np.broadcast_to(zeta, v.shape)[i]), float(v[i])
        if isinstance(model, IdealMetal):
            r_tm, r_te = 1.0, -1.0
        elif z == 0.0:
            r_tm, r_te = 1.0, 0.0
            if isinstance(model, Plasma):
                root = float(np.hypot(vi, 2.0 * a * model.omega_p / CONSTANTS.c))
                r_te = (vi - root) / (vi + root)
            elif isinstance(model, Tabulated):
                eps0 = float(model.eps_grid[0])
                r_tm = (eps0 - 1.0) / (eps0 + 1.0)
        else:
            eps = epsilon_at_imaginary(model, CONSTANTS.c * z / (2.0 * a))
            root = math.sqrt(vi * vi + (eps - 1.0) * z * z)
            r_tm = (eps * vi - root) / (eps * vi + root)
            r_te = (vi - root) / (vi + root)
        assert (got[0][i], got[1][i]) == (r_tm * r_tm, r_te * r_te), i


def test_reflection_requires_v_at_least_zeta():
    # the checks cover every element of a grid, and a and v themselves;
    # zero frequency never shares a call with positive ones, in a column
    # or node by node
    for zeta, v, a in ((2.0, [3.0, 1.0], 200e-9),
                       (np.array([[0.5], [2.0]]), [1.0, 1.5], 200e-9),
                       (-1e-3, [1.0], 200e-9), (0.0, [0.0, 1.0], 200e-9),
                       (0.5, [1.0], 0.0),
                       (np.array([0.0, 0.5]), [1.0, 1.5], 200e-9),
                       (np.array([[0.0], [0.5]]), [1.0, 1.5], 200e-9),
                       (np.array([[0.0, 0.5], [0.5, 0.5]]),
                        [[1.0, 1.5], [1.0, 1.5]], 200e-9)):
        with pytest.raises(ValueError):
            reflection_sq_grid(gold_drude(), zeta, np.array(v), a)


@pytest.mark.parametrize("a, message", [
    (math.inf, "a must be finite, got inf"),
    (0.0, "a must be positive, got 0.0"),
    (-1e-7, "a must be positive, got -1e-07"),
    (math.nan, "a must be positive, got nan")])
@pytest.mark.parametrize("model", [gold_drude(), gold_plasma()],
                         ids=["drude", "plasma"])
def test_reflection_requires_positive_finite_separation(model, a, message):
    # a = inf used to pass and give all-NaN coefficients
    with pytest.raises(ValueError) as exc:
        reflection_sq_grid(model, 0.5, np.array([1.0]), a)
    assert str(exc.value) == message


# ---------------------------------------------------------------------------
# tabulated model

GOOD_TABLE = """\
# xi_rad_per_s   epsilon
1.0e13  5000.0
1.0e14  120.0
1.0e15  8.0
1.0e16  1.5
"""


def test_tabulated_from_file(tmp_path):
    path = tmp_path / "eps.dat"
    path.write_text(GOOD_TABLE)
    model = Tabulated.from_file(str(path))
    # exact at a grid point
    assert epsilon_at_imaginary(model, 1.0e14) == pytest.approx(120.0)
    # between grid points, the natural cubic spline of ln eps in ln xi
    spline = CubicSpline(np.log([1.0e13, 1.0e14, 1.0e15, 1.0e16]),
                         np.log([5000.0, 120.0, 8.0, 1.5]), bc_type="natural")
    mid = epsilon_at_imaginary(model, math.sqrt(1.0e14 * 1.0e15))
    assert mid == pytest.approx(math.exp(spline(0.5 * math.log(1.0e29))),
                                rel=1e-13)


def test_tabulated_zero_frequency_uses_first_entry(tmp_path):
    path = tmp_path / "eps.dat"
    path.write_text(GOOD_TABLE)
    model = Tabulated.from_file(str(path))
    tm2, te2 = reflection_sq_grid(model, 0.0, np.array([1.0]), 200e-9)
    assert tm2[0] == pytest.approx((4999.0 / 5001.0) ** 2)
    assert te2[0] == 0.0


def test_tabulated_range_enforced(tmp_path):
    path = tmp_path / "eps.dat"
    path.write_text(GOOD_TABLE)
    model = Tabulated.from_file(str(path))
    with pytest.raises(ValueError):
        epsilon_at_imaginary(model, 1.0e12)
    with pytest.raises(ValueError):
        epsilon_at_imaginary(model, 1.0e17)


def test_epsilon_array_path_matches_scalar_path():
    # the engine asks for eps(i xi) of a whole stack of frequencies at once;
    # every element must be the float call's value, bit for bit
    xi_grid = np.geomspace(1.0e11, 1.0e18, 9)
    table = Tabulated(xi_grid, 1.0 + 1.0e32 / (xi_grid * (xi_grid + 5.0e13)))
    xi = np.geomspace(1.0e11, 1.0e18, 2001)
    for model in (IdealMetal(), gold_drude(), gold_plasma(), table):
        array = epsilon_at_imaginary(model, xi)
        scalar = np.array([epsilon_at_imaginary(model, float(x)) for x in xi])
        assert array.shape == xi.shape
        assert np.array_equal(array, scalar), model
        column = epsilon_at_imaginary(model, xi[:, None])
        assert np.array_equal(column[:, 0], scalar), model


def _sampled(nodes, lo=1.0e7):
    xi = np.geomspace(lo, 1.0e18, nodes)
    return xi, 1.0 + 1.0e32 / (xi * (xi + 5.0e13))


@pytest.mark.parametrize("xi, eps", [
    ([1.0e13, 1.0e14, 1.0e15, 1.0e16], [5000.0, 120.0, 8.0, 1.5]),  # GOOD_TABLE
    _sampled(9, lo=1.0e11), _sampled(12), _sampled(3000)],
    ids=["good", "9", "12", "3000"])
def test_tabulated_is_the_natural_spline_of_ln_eps(xi, eps):
    # exp of scipy's natural spline of ln eps in ln xi, clamped at 1 (the
    # splines through the 9- and 12-node tables dip to 0.953 and 0.9988
    # between their nodes), and exactly eps at the nodes
    xi, eps = np.asarray(xi), np.asarray(eps)
    model = Tabulated(xi, eps)
    spline = CubicSpline(np.log(xi), np.log(eps), bc_type="natural")
    q = np.geomspace(xi[0], xi[-1], 10_001)
    got = epsilon_at_imaginary(model, q)
    ref = np.maximum(np.exp(spline(np.log(q))), 1.0)
    assert np.max(np.abs(got / ref - 1.0)) <= 1e-13
    assert np.min(got) >= 1.0
    assert np.array_equal(epsilon_at_imaginary(model, xi), eps)
    assert [epsilon_at_imaginary(model, x) for x in xi.tolist()] == eps.tolist()


@pytest.mark.parametrize("xi, eps, column", [
    ([1.0e7, 1.0e14, 1.0e18], [math.inf, 50.0, 1.5], "eps"),
    ([1.0e7, 1.0e14, 1.0e18], [50.0, math.nan, 1.5], "eps"),
    ([1.0e7, 1.0e14, math.inf], [50.0, 20.0, 1.5], "frequencies"),
    ([-math.inf, 1.0e14, 1.0e18], [50.0, 20.0, 1.5], "frequencies"),
    ([math.nan, 1.0e14, 1.0e18], [50.0, 20.0, 1.5], "frequencies")],
    ids=["eps-inf", "eps-nan", "xi-inf", "xi-minus-inf", "xi-nan"])
def test_tabulated_rejects_non_finite_entries(xi, eps, column):
    # checked before the sign and order checks, naming the column
    with pytest.raises(ValueError, match=f"tabulated {column}.* must be finite"):
        Tabulated(np.array(xi), np.array(eps))


def test_tabulated_file_rejects_non_finite_entries(tmp_path):
    path = tmp_path / "eps.dat"
    path.write_text("1e7 inf\n1e14 50\n1e18 1.5\n")
    with pytest.raises(ValueError, match=r"tabulated eps\(i xi\) must be finite"):
        Tabulated.from_file(str(path))
    path.write_text("1e7 50\n1e14 20\ninf 1.5\n")
    with pytest.raises(ValueError, match="tabulated frequencies must be finite"):
        Tabulated.from_file(str(path))


def test_tabulated_array_out_of_range_names_smallest_xi(tmp_path):
    path = tmp_path / "eps.dat"
    path.write_text(GOOD_TABLE)
    model = Tabulated.from_file(str(path))
    inside = np.array([2.0e13, 3.0e14])
    assert np.all(epsilon_at_imaginary(model, inside) > 1.0)
    with pytest.raises(ValueError, match=r"xi = 2e\+12 outside the tabulated "
                       r"range \[1e\+13, 1e\+16\]"):
        epsilon_at_imaginary(model, np.array([2.0e14, 5.0e12, 2.0e12, 3.0e16]))
    with pytest.raises(ValueError, match=r"xi = 3e\+16 outside"):
        epsilon_at_imaginary(model, np.array([2.0e14, 3.0e16, 4.0e16]))
    with pytest.raises(ValueError, match="xi must be positive"):
        epsilon_at_imaginary(model, np.array([2.0e14, 0.0]))


def test_tabulated_malformed_line_reports_number(tmp_path):
    path = tmp_path / "eps.dat"
    path.write_text("1.0e13 5000.0\nnot-a-number 3.0\n")
    with pytest.raises(ValueError, match=":2:"):
        Tabulated.from_file(str(path))


def test_tabulated_grid_must_increase(tmp_path):
    path = tmp_path / "eps.dat"
    path.write_text("1.0e14 100.0\n1.0e13 200.0\n")
    with pytest.raises(ValueError):
        Tabulated.from_file(str(path))


def test_tabulated_epsilon_floor(tmp_path):
    path = tmp_path / "eps.dat"
    path.write_text("1.0e13 2.0\n1.0e14 0.5\n")
    with pytest.raises(ValueError):
        Tabulated.from_file(str(path))
