"""Lens geometries, environment state and the PFA validity check.

The lens is a section of an elliptic cylinder (semiaxes A >= B, length L)
facing a plane plate: thickness h, width 2d, cylinder axis parallel to the
plate.  Three variants are supported: the symmetric lens (vertical semiaxis
B), a lens glued from two halves with different semiaxes, and a lens cut
from the cylinder at an angle phi and re-seated so its base is parallel to
the plate.  A variant enters every leading-order formula only through
shape_factor, and expect_variant is the check of the entry points written
for one variant.
"""

import math
from dataclasses import dataclass, field, fields
from typing import Union


def _require_positive(**lengths: float) -> None:
    for name, value in lengths.items():
        if not value > 0.0:
            raise ValueError(f"{name} must be positive, got {value!r}")
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class EllipticLens:
    """Symmetric lens: semiaxis A along the plate, B normal to it.

    Parameters
    ----------
    A, B : float
        Horizontal and vertical semiaxes in m, A >= B.
    h, d : float
        Lens thickness and half-width in m, d <= A.
    L : float
        Cylinder length in m.
    """

    A: float
    B: float
    h: float
    d: float
    L: float

    def __post_init__(self) -> None:
        _require_positive(A=self.A, B=self.B, h=self.h, d=self.d, L=self.L)
        if self.A < self.B:
            raise ValueError("semiaxes must satisfy A >= B; rotate the lens instead")
        if self.d > self.A:
            raise ValueError("half-width d cannot exceed the semiaxis A")


@dataclass(frozen=True)
class TwoHalvesLens:
    """Lens glued from two halves with semiaxes (A1, B1) and (A2, B2).

    Both halves share the same thickness h, so the joint is smooth at the
    apex.  Fields mirror EllipticLens otherwise.
    """

    A1: float
    B1: float
    A2: float
    B2: float
    h: float
    d: float
    L: float

    def __post_init__(self) -> None:
        _require_positive(A1=self.A1, B1=self.B1, A2=self.A2, B2=self.B2,
                          h=self.h, d=self.d, L=self.L)
        if self.A1 < self.B1 or self.A2 < self.B2:
            raise ValueError("each half must satisfy A >= B")
        if self.d > min(self.A1, self.A2):
            raise ValueError("half-width d cannot exceed either semiaxis A")


@dataclass(frozen=True)
class RotatedLens:
    """Lens cut from the cylinder at angle phi and seated base-down.

    phi is the angle between the cut and the major axis, 0 <= phi <= pi/2.
    """

    A: float
    B: float
    phi: float
    h: float
    d: float
    L: float

    def __post_init__(self) -> None:
        _require_positive(A=self.A, B=self.B, h=self.h, d=self.d, L=self.L)
        if self.A < self.B:
            raise ValueError("semiaxes must satisfy A >= B")
        if not 0.0 <= self.phi <= math.pi / 2.0:
            raise ValueError("phi must lie in [0, pi/2]")


LensGeometry = Union[EllipticLens, TwoHalvesLens, RotatedLens]


@dataclass(frozen=True)
class RotationFactor:
    """Force reduction factor G and effective vertical extent H of a rotated lens."""

    G: float
    H: float


def rotation_factor(A: float, B: float, phi: float) -> RotationFactor:
    """Force reduction factor of a lens cut at angle phi.

    G = (B / H)^{3/2} with H = sqrt(A^2 sin^2 phi + B^2 cos^2 phi).  H is
    the vertical semi-extent of the tilted ellipse, and at leading PFA order
    the whole effect of the rotation collapses into this single factor.
    Any positive (A, B) pair is accepted so the phi -> phi + pi/2 axis-swap
    identity can be exercised directly.
    """
    if not A > 0.0 or not B > 0.0:
        raise ValueError("semiaxes must be positive")
    if not (math.isfinite(A) and math.isfinite(B)):
        raise ValueError("semiaxes must be finite")
    s, c = math.sin(phi), math.cos(phi)
    H = math.sqrt(A * A * s * s + B * B * c * c)
    return RotationFactor(G=(B / H) ** 1.5, H=H)


def shape_factor(geom: LensGeometry) -> float:
    """The A / sqrt(B) factor, the only way a variant enters the formulas."""
    if isinstance(geom, EllipticLens):
        return geom.A / math.sqrt(geom.B)
    if isinstance(geom, TwoHalvesLens):
        return 0.5 * (geom.A1 / math.sqrt(geom.B1) + geom.A2 / math.sqrt(geom.B2))
    if isinstance(geom, RotatedLens):
        return geom.A / math.sqrt(geom.B) * rotation_factor(geom.A, geom.B, geom.phi).G
    raise TypeError(f"unknown lens geometry {geom!r}")


def expect_variant(geom: LensGeometry, cls: type, name: str,
                   general: str | None = None) -> None:
    """TypeError unless geom is a cls; general takes any variant, if given."""
    if not isinstance(geom, cls):
        hint = f"; use {general} for any lens variant" if general else ""
        raise TypeError(f"{name} expects a {cls.__name__}, got "
                        f"{type(geom).__name__}{hint}")


def thickness_for_width(A: float, B: float, d: float) -> float:
    """Thickness of the cap cut from the cylinder at half-width d."""
    _require_positive(A=A, B=B, d=d)
    if d > A:
        raise ValueError("half-width d cannot exceed the semiaxis A")
    return B * (1.0 - math.sqrt(1.0 - (d / A) ** 2))


def width_for_thickness(A: float, B: float, h: float) -> float:
    """Half-width of the cap cut from the cylinder at thickness h <= B."""
    _require_positive(A=A, B=B, h=h)
    if h > B:
        raise ValueError("a cap thinner than the semiaxis is required (h <= B)")
    return (A / B) * math.sqrt(h * (2.0 * B - h))


def symmetric_lens(A: float, B: float, L: float, *, d: float | None = None,
                   h: float | None = None) -> EllipticLens:
    """Build a symmetric lens from either its width or its thickness.

    A given d or h is kept; a missing one is derived from the cylinder
    surface.  With neither given, d defaults to 0.9 A.
    """
    if d is None:
        d = 0.9 * A if h is None else width_for_thickness(A, B, h)
    if h is None:
        h = thickness_for_width(A, B, d)
    return EllipticLens(A=A, B=B, h=h, d=d, L=L)


@dataclass(frozen=True)
class Environment:
    """Separation a (m) between lens apex and plate, temperature T (K)."""

    a: float
    T: float

    def __post_init__(self) -> None:
        if not self.a > 0.0:
            raise ValueError("separation a must be positive")
        if not self.T >= 0.0:
            raise ValueError("temperature T cannot be negative")
        if not math.isfinite(self.a) or not math.isfinite(self.T):
            raise ValueError("separation a and temperature T must be finite")


# Ratio of curvature (or thickness) to separation above which the proximity
# force approximation degrades noticeably.
PFA_RATIO_WARN = 0.1


@dataclass
class ValidityReport:
    """Outcome of validate_geometry: soft warnings and the PFA error estimate."""

    warnings: list[str] = field(default_factory=list)
    a_over_B: float = 0.0
    a_over_h: float = 0.0
    pfa_error_estimate: float = 0.0


def validate_geometry(geom: LensGeometry, env: Environment) -> ValidityReport:
    """Check PFA applicability of a lens/environment combination.

    Nonpositive lengths and a negative T never get here: the dataclass
    constructors reject them.  The fractional PFA error is estimated as
    0.3 * a/B, and a warning is issued when a/B or a/h exceeds 0.1.
    """
    report = ValidityReport()
    B = min(getattr(geom, f.name) for f in fields(geom)
            if f.name.startswith("B"))
    report.a_over_B = env.a / B
    report.a_over_h = env.a / geom.h
    report.pfa_error_estimate = 0.3 * report.a_over_B
    if report.a_over_B > PFA_RATIO_WARN:
        report.warnings.append(
            f"a/B = {report.a_over_B:.3g} exceeds {PFA_RATIO_WARN}; "
            f"PFA error estimate {report.pfa_error_estimate:.2%}")
    if report.a_over_h > PFA_RATIO_WARN:
        report.warnings.append(
            f"a/h = {report.a_over_h:.3g} exceeds {PFA_RATIO_WARN}; "
            "the lens is thin compared to the separation")
    return report
