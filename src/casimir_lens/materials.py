"""Dielectric permittivity along the imaginary frequency axis and the
reflection coefficients entering the Lifshitz-type sums.

All models return eps(i xi) as a real number >= 1.  The reflection
coefficients are expressed in the dimensionless variables (zeta, v) with
zeta = 2 a xi / c and v >= zeta; the zero-frequency terms have dedicated
analytic branches because the zeta -> 0 limit differs between models.
"""

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .constants import CONSTANTS, ev_to_rad_per_s

# Gold parameters commonly used with the Drude / plasma models.
GOLD_PLASMA_EV = 9.0
GOLD_GAMMA_EV = 0.035


@dataclass(frozen=True)
class IdealMetal:
    """Perfect reflector: eps = +inf, |r| = 1 for both polarizations."""


@dataclass(frozen=True)
class Plasma:
    """Lossless plasma model eps(i xi) = 1 + omega_p^2 / xi^2."""

    omega_p: float  # rad / s

    def __post_init__(self) -> None:
        if not self.omega_p > 0.0:
            raise ValueError("omega_p must be positive")
        if not math.isfinite(self.omega_p):
            raise ValueError("omega_p must be finite")


@dataclass(frozen=True)
class Drude:
    """Dissipative metal eps(i xi) = 1 + omega_p^2 / (xi (xi + gamma))."""

    omega_p: float  # rad / s
    gamma: float  # rad / s

    def __post_init__(self) -> None:
        if not self.omega_p > 0.0 or not self.gamma > 0.0:
            raise ValueError("omega_p and gamma must be positive")
        if not math.isfinite(self.omega_p) or not math.isfinite(self.gamma):
            raise ValueError("omega_p and gamma must be finite")


@dataclass(frozen=True)
class Tabulated:
    """Permittivity sampled on an imaginary-frequency grid.

    ln eps is interpolated by a natural cubic spline in ln xi, C^2 as the
    Euler-Maclaurin remainder of a Matsubara sum needs, and eps clamped at
    1.  Both columns must be finite, the grid strictly increasing and eps
    >= 1 and non-increasing at the nodes.  Queries outside the grid raise.

    At zero frequency the table cannot express a metallic divergence, so the
    dedicated zeta = 0 branch clamps eps to the lowest tabulated value
    (dielectric-like limit: finite r_TM, r_TE = 0).
    """

    xi_grid: np.ndarray
    eps_grid: np.ndarray
    _log_xi: np.ndarray = field(init=False, repr=False, compare=False)
    _cubic: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        xi = np.asarray(self.xi_grid, dtype=float)
        eps = np.asarray(self.eps_grid, dtype=float)
        if xi.ndim != 1 or xi.size < 2 or eps.shape != xi.shape:
            raise ValueError("xi_grid and eps_grid must be 1-D arrays of equal length >= 2")
        for bad, message in (
                (~np.isfinite(xi), "frequencies must be finite"),
                (~np.isfinite(eps), "eps(i xi) must be finite"),
                (xi <= 0.0, "frequencies must be positive"),
                (np.diff(xi) <= 0.0, "frequency grid must be strictly increasing"),
                (eps < 1.0, "eps(i xi) must be >= 1"),
                (np.diff(eps) > 0.0, "eps(i xi) must decrease monotonically toward 1")):
            if np.any(bad):
                raise ValueError("tabulated " + message)
        object.__setattr__(self, "xi_grid", xi)
        object.__setattr__(self, "eps_grid", eps)
        object.__setattr__(self, "_log_xi", np.log(xi))
        object.__setattr__(self, "_cubic", _natural_spline(self._log_xi, np.log(eps)))

    @classmethod
    def from_file(cls, path) -> "Tabulated":
        """Load a two-column text table: xi in rad/s, eps(i xi).

        Blank lines and '#' comments are ignored.  Malformed lines raise a
        ValueError naming the offending line number.
        """
        xis: list[float] = []
        epss: list[float] = []
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                parts = line.split()
                if len(parts) != 2:
                    raise ValueError(
                        f"{path}:{lineno}: expected two columns, got {len(parts)}")
                try:
                    xis.append(float(parts[0]))
                    epss.append(float(parts[1]))
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
        if len(xis) < 2:
            raise ValueError(f"{path}: at least two data rows are required")
        return cls(np.asarray(xis), np.asarray(epss))


def _natural_spline(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(b, c, d) per knot of the natural cubic spline y_i + t (b + t (c + t d)),
    t = x - x_i, its curvature m from Thomas's algorithm; zero at the last knot.
    """
    h = np.diff(x)
    slope = np.diff(y) / h
    step, c, d, m = h.tolist(), [0.0], [0.0], [0.0]
    for lo, hi, r in zip(step, step[1:], (6.0 * np.diff(slope)).tolist()):
        denom = 2.0 * (lo + hi) - lo * c[-1]
        c.append(hi / denom)
        d.append((r - lo * d[-1]) / denom)
    for ci, di in zip(c[:0:-1], d[:0:-1]):
        m.append(di - ci * m[-1])
    m = np.array([0.0] + m[::-1])
    return np.pad(np.stack((slope - h * (2.0 * m[:-1] + m[1:]) / 6.0, m[:-1] / 2.0,
                            np.diff(m) / (6.0 * h))), ((0, 0), (0, 1)))


PermittivityModel = Union[IdealMetal, Plasma, Drude, Tabulated]


def gold_drude() -> Drude:
    """Drude model with the standard gold parameters (9 eV, 0.035 eV)."""
    return Drude(omega_p=ev_to_rad_per_s(GOLD_PLASMA_EV),
                 gamma=ev_to_rad_per_s(GOLD_GAMMA_EV))


def gold_plasma() -> Plasma:
    """Plasma model with the standard gold plasma frequency (9 eV)."""
    return Plasma(omega_p=ev_to_rad_per_s(GOLD_PLASMA_EV))


def epsilon_at_imaginary(model: PermittivityModel, xi):
    """Permittivity eps(i xi) for xi > 0; IdealMetal returns +inf.

    xi is a float or an array; an array gives an array of the same shape,
    each element equal to the float call's result.  Tabulated models raise
    on queries outside their grid rather than extrapolating silently,
    naming the smallest such xi.
    """
    if not (np.asarray(xi) > 0.0).all():
        raise ValueError("xi must be positive; zero frequency has dedicated branches")
    return _epsilon(model, xi)


def _epsilon(model: PermittivityModel, xi):
    """epsilon_at_imaginary past its check that xi > 0."""
    if isinstance(model, IdealMetal):
        return math.inf if np.ndim(xi) == 0 else np.full(np.shape(xi), math.inf)
    if isinstance(model, Plasma):
        ratio = model.omega_p / xi
        return 1.0 + ratio * ratio
    if isinstance(model, Drude):
        return 1.0 + model.omega_p ** 2 / (xi * (xi + model.gamma))
    if isinstance(model, Tabulated):
        lo, hi = model.xi_grid[0], model.xi_grid[-1]
        outside = (xi < lo) | (xi > hi)
        if outside.any():
            raise ValueError(
                f"xi = {np.min(np.asarray(xi)[outside]):.6g} outside the "
                f"tabulated range [{lo:.6g}, {hi:.6g}]")
        x, knots = np.log(xi), model._log_xi
        i = np.interp(x, knots, np.arange(knots.size)).astype(int)  # last knot <= x
        (b, c, d), t = np.take(model._cubic, i, axis=1), x - knots[i]
        eps = np.maximum(model.eps_grid[i] * np.exp(t * (b + t * (c + t * d))), 1.0)
        return float(eps) if np.ndim(xi) == 0 else eps
    raise TypeError(f"unknown permittivity model {model!r}")


def reflection_scale(model: PermittivityModel, a: float, v):
    """The lowest s = zeta / v (<= 1) on which an analytic model's r^2 varies
    in row v: Drude's relaxation scale zeta_g / v and TE cut-off zeta_g v /
    zeta_p^2, plasma's zeta_p / v (zeta_{g,p} = 2 a (gamma, omega_p) / c)."""
    if isinstance(model, IdealMetal):  # r^2 = 1
        return 1.0
    zeta_p = 2.0 * a * model.omega_p / CONSTANTS.c
    if isinstance(model, Plasma):
        return np.minimum(zeta_p / v, 1.0)
    zeta_g = 2.0 * a * model.gamma / CONSTANTS.c
    return np.minimum(np.minimum(zeta_g / v, zeta_g / zeta_p * (v / zeta_p)), 1.0)


# ---------------------------------------------------------------------------
# the one formula, vectorized over v

def reflection_sq_grid(model: PermittivityModel, zeta, v: np.ndarray,
                       a: float):
    """r_TM^2 and r_TE^2 over v at zeta >= 0, stacked: the kernels' r2.

    Shape (2,) + zeta and v broadcast (an ideal metal's: (2,) + v's).  zeta
    = 2 a xi / c is the dimensionless frequency and v >= zeta the
    integration variable; zeta is a float, or an array broadcasting
    against v giving each row of v its own frequency (a column, (m, 1), for
    m rows) or each node its own.  For zeta > 0 both coefficients follow
    from eps(i xi).  A zeta of zero takes the model's zero-frequency
    branch, so one call holds zero frequency alone or positive ones only:

    * IdealMetal: (1, -1) at any v.
    * Drude: (1, 0) -- dissipation removes the zero-frequency TE mode.
    * Plasma: r_TM = 1 and a finite r_TE set by 2 a omega_p / c.
    * Tabulated: dielectric-like, eps clamped to its lowest-frequency value.

    Raises ValueError unless v > 0, 0 <= zeta <= v and a > 0, or where
    zeta mixes zero and positive frequencies.
    """
    zeta = np.asarray(zeta, dtype=float)
    if not (v > 0.0).all():
        raise ValueError("v must be positive")
    if not ((zeta >= 0.0).all() and (v >= zeta).all()):
        raise ValueError("require 0 <= zeta <= v")
    if not a > 0.0:
        raise ValueError("separation a must be positive")
    if isinstance(model, IdealMetal):
        r_tm, r_te = np.ones_like(v), -np.ones_like(v)
    elif not zeta.any():
        r_tm, r_te = np.ones_like(v), np.zeros_like(v)
        if isinstance(model, Plasma):
            root = np.hypot(v, 2.0 * a * model.omega_p / CONSTANTS.c)
            r_te = (v - root) / (v + root)
        elif isinstance(model, Tabulated):  # finite dielectric limit
            eps0 = float(model.eps_grid[0])
            r_tm = np.full_like(v, (eps0 - 1.0) / (eps0 + 1.0))
    elif not zeta.all():
        raise ValueError("zeta must be all zero or all positive")
    else:
        eps = _epsilon(model, CONSTANTS.c * zeta / (2.0 * a))
        root = np.sqrt(v * v + (eps - 1.0) * zeta * zeta)
        r_tm = (eps * v - root) / (eps * v + root)
        r_te = (v - root) / (v + root)
    r2 = np.stack((r_tm, r_te))
    return np.multiply(r2, r2, out=r2)
