"""The exact sixteen-signature ledger of the right-angle corner.

A closed path at a rectangular corner splits into two legs through a
mediate point; expanding each leg in wall images gives sixteen terms, one
per "four signs" signature in the squared path lengths

    [(x s1 x0)^2 + (y s2 y0)^2] + [(x s3 x0)^2 + (y s4 y0)^2],

where a plus between a coordinate and its mediate partner marks a bounce
on the corresponding side.  ``signature_ledger`` tabulates the exact
folded-Gaussian (area, length, delta(E)) content of each signature in
exact arithmetic, assembled from the closed-form one-axis factors of the
Gaussian integrals; its totals are the Dirichlet quadrant trace
A/(4 pi T) - L/(8 sqrt(pi T)) + 1/16, whose constant is Weyl's right-angle
corner coefficient.  The table is Fractions and needs no numerical
library; ``folding.signature_oracle`` recomputes each row by quadrature,
independently of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .errors import DomainError
from .weyl import BoundaryCondition, DIRICHLET

__all__ = [
    "SignSignature",
    "DeltaValue",
    "PathContribution",
    "Ledger",
    "ALL_SIGNATURES",
    "signature_ledger",
]


@dataclass(frozen=True)
class SignSignature:
    """Signs (x1, y1, x2, y2): legs 1 and 2, x- and y-partners."""

    sx1: str
    sy1: str
    sx2: str
    sy2: str

    def __post_init__(self):
        for s in (self.sx1, self.sy1, self.sx2, self.sy2):
            if s not in "+-":
                raise DomainError(f"signs must be '+' or '-', got {s!r}")

    @property
    def bounce_count(self) -> int:
        return f"{self.sx1}{self.sy1}{self.sx2}{self.sy2}".count("+")

    def __str__(self) -> str:
        return self.sx1 + self.sy1 + self.sx2 + self.sy2


ALL_SIGNATURES: tuple[SignSignature, ...] = tuple(
    SignSignature(*s) for s in product("-+", repeat=4)
)


@dataclass(frozen=True)
class DeltaValue:
    """Exact constant of the form a + b/pi + c/pi^2 with rational a, b, c."""

    const: Fraction = Fraction(0)
    over_pi: Fraction = Fraction(0)
    over_pi2: Fraction = Fraction(0)

    def value(self) -> float:
        return (float(self.const) + float(self.over_pi) / math.pi
                + float(self.over_pi2) / math.pi**2)

    def __float__(self) -> float:
        return self.value()

    def __add__(self, other: "DeltaValue") -> "DeltaValue":
        return DeltaValue(self.const + other.const,
                          self.over_pi + other.over_pi,
                          self.over_pi2 + other.over_pi2)

    def __neg__(self) -> "DeltaValue":
        return DeltaValue(-self.const, -self.over_pi, -self.over_pi2)


@dataclass(frozen=True)
class PathContribution:
    signature: SignSignature
    area_units: Fraction           # multiples of the area density A/(4 pi)
    # multiples of 1/(8 pi sqrt(E)) per unit length of a side, summed over
    # both sides (trace: 1/(8 sqrt(pi T))); a single bounce carries -1/2
    length_units: DeltaValue
    delta_units: DeltaValue        # coefficient of delta(E)


@dataclass(frozen=True)
class Ledger:
    entries: tuple[PathContribution, ...]
    total_area: Fraction
    total_length: DeltaValue
    total_delta: DeltaValue
    flags: tuple[str, ...] = ()


# One-axis factor of a signature: for the axis sign pair (s1, s2),
#   integral_0^X dx integral_0^inf dx0 exp(-[(x s1 x0)^2 + (x s2 x0)^2]/(4 tau))
#     = alpha X + beta   (up to exponentially small terms),
# with alpha = a sqrt(2 pi tau) and beta = b pi^k tau, stored as (a, b, k).
_AXIS_FACTORS = {
    ("-", "-"): (1, Fraction(-1), 0),
    ("+", "+"): (0, Fraction(1), 0),
    ("+", "-"): (0, Fraction(1, 2), 1),
    ("-", "+"): (0, Fraction(1, 2), 1),
}


def _times_pi_power(coef: Fraction, power: int) -> DeltaValue:
    """Exact coef * pi^power for power in {0, -1, -2}."""
    return DeltaValue(*(coef if p == power else Fraction(0) for p in (0, -1, -2)))


def _dirichlet_entry(sig: SignSignature) -> PathContribution:
    """Exact folded-Gaussian content of one signature.

    The trace factorizes into the x- and y-axis factors, times
    (-1)^bounces / (16 pi^2 tau^2); in the table's units the area is
    a_x a_y, the length (a_x b_y pi^k_y + b_x a_y pi^k_x)/pi and the
    delta constant b_x b_y pi^(k_x + k_y) / (16 pi^2).
    """
    ax, bx, kx = _AXIS_FACTORS[(sig.sx1, sig.sx2)]
    ay, by, ky = _AXIS_FACTORS[(sig.sy1, sig.sy2)]
    sgn = (-1) ** sig.bounce_count
    length = (_times_pi_power(sgn * ax * by, ky - 1)
              + _times_pi_power(sgn * bx * ay, kx - 1))
    delta = _times_pi_power(sgn * bx * by / 16, kx + ky - 2)
    return PathContribution(sig, Fraction(sgn * ax * ay), length, delta)


def signature_ledger(bc: BoundaryCondition = DIRICHLET) -> Ledger:
    """The sixteen-signature table: exact folded-Gaussian content per row.

    Dirichlet rows are the exact decomposition of each signature's
    two-piece Gaussian trace, which ``folding.signature_oracle`` reproduces by
    quadrature.  The totals are the exact quadrant trace: area 1, length
    -2 (the two sides at -1 each) and delta 1/16, Weyl's right-angle corner
    coefficient.  Neumann flips the sign of every odd-bounce entry
    (reflection parity), giving length +2 and delta 1/16, and is flagged
    DERIVED-ONLY, since it is not checked against an independent oracle.
    """
    entries = []
    for sig in ALL_SIGNATURES:
        e = _dirichlet_entry(sig)
        if bc.kind == "neumann" and sig.bounce_count % 2 == 1:
            e = PathContribution(sig, -e.area_units, -e.length_units,
                                 -e.delta_units)
        entries.append(e)
    total_area = sum((e.area_units for e in entries), Fraction(0))
    total_length = sum((e.length_units for e in entries), DeltaValue())
    total_delta = sum((e.delta_units for e in entries), DeltaValue())
    flags = () if bc.kind == "dirichlet" else ("DERIVED-ONLY",)
    return Ledger(tuple(entries), total_area, total_length, total_delta, flags)
