"""A 60-digit reference for the 120-deg star point, on the standard library
alone: it imports nothing from ``starsolve``, so a defect in the program
cannot reach it.

At 120 deg the star point is the Fermat point, and its distances have a
closed form with no trigonometry. With x, y, z the distances to A, B, C,
the law of cosines gives a^2 = y^2 + z^2 + yz, cyclically, and
Theta^2 = 4 area = sqrt(3) (xy + yz + zx). Then

    sqrt(3) (b^2 + c^2 - a^2) + Theta^2 = 2 sqrt(3) x (x + y + z),
    6 (a^2 + b^2 + c^2 + sqrt(3) Theta^2) = 12 (x + y + z)^2,

so x = (sqrt(3) (b^2 + c^2 - a^2) + Theta^2)
       / sqrt(6 (a^2 + b^2 + c^2 + sqrt(3) Theta^2)), and y, z cyclically
(the identity behind the classical S^2 = (a^2 + b^2 + c^2) / 2
+ 2 sqrt(3) area). The squared edges, their sums and the Heron radicand
16 area^2 = 2 (a^2 b^2 + b^2 c^2 + c^2 a^2) - (a^4 + b^4 + c^4) are exact
rationals of the float inputs (:mod:`fractions`); only sqrt(3), Theta^2,
the root in the denominator and the quotient round, each in
:mod:`decimal` at 60 digits.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction

DIGITS = 60


def _decimal(q: Fraction) -> Decimal:
    """``q`` rounded to the current context's precision."""
    return Decimal(q.numerator) / Decimal(q.denominator)


def fermat_distances(a: float, b: float, c: float) -> tuple[Decimal, Decimal, Decimal]:
    """Distances from the Fermat point to vertices A, B and C of the
    triangle whose edges a = BC, b = CA and c = AB are the floats given
    exactly, to 60 digits. The triangle must have every angle below
    120 deg, so that the point lies inside it."""
    a2, b2, c2 = Fraction(a) ** 2, Fraction(b) ** 2, Fraction(c) ** 2
    heron = 2 * (a2 * b2 + b2 * c2 + c2 * a2) - (a2 * a2 + b2 * b2 + c2 * c2)
    spans = (b2 + c2 - a2, c2 + a2 - b2, a2 + b2 - c2)
    with localcontext() as ctx:
        ctx.prec = DIGITS
        sqrt3 = Decimal(3).sqrt()
        theta_sq = _decimal(heron).sqrt()
        denominator = (6 * (_decimal(a2 + b2 + c2) + sqrt3 * theta_sq)).sqrt()
        return tuple((sqrt3 * _decimal(span) + theta_sq) / denominator
                     for span in spans)
