"""Correlation functions, CHSH combinations and interference diagnostics.

Angles live in two frames.  The analyzers turn by theta1 and theta2;
the correlation is naturally a function of psi1 = 2 theta1 and
psi2 = -2 theta2, which makes it depend on psi1 + psi2 alone in the
ideal case:

    E(psi1, psi2) = -cos(psi1 + psi2) / 2 + alpha / 2
                    + (1 - alpha)(cos^2 psi1 + cos^2 psi2) / 4,

with detector efficiency folding in as

    E(eta) = eta^2 E(1) + (1 - eta)^2,

as the loss channel L (``detection.loss_channel``) maps the class values
v = ``detection.VALUES`` to L^T v = (1 - 2 eta, 1, 1, eta^2 + (1 - eta)^2,
1, (1 - 2 eta)^2).  Both identities are also available through the
explicit joint table, and the two routes are kept independent so each
checks the other.
"""

import math
from dataclasses import dataclass

import numpy as np

from .detection import (
    VALUES,
    DetectorModel,
    JointProbabilityTable,
    apply_alpha_confusion,
    closed_form_ideal_table,
    joint_table,
)

#: CHSH setting labels in canonical order
SETTING_LABELS = ("AB", "A'B", "AB'", "A'B'")

_TWO_PI = 2.0 * math.pi

#: VALUES[i] * VALUES[j], the sign of cell [i, j] in E
_SIGNS = np.outer(VALUES, VALUES).astype(float)


@dataclass(frozen=True)
class PsiAngles:
    """One correlation setting in the psi frame.

    The analyzer angles are theta1 = psi1 / 2 and theta2 = -psi2 / 2.
    theta -> psi -> theta is exact in floating point while 2 theta is
    finite; psi -> theta -> psi is exact for psi = 0 or |psi| >= 2^-1021,
    below which the half is subnormal and can lose its lowest bit.
    """

    psi1: float
    psi2: float

    @classmethod
    def from_thetas(cls, theta1: float, theta2: float) -> "PsiAngles":
        return cls(2.0 * theta1, -2.0 * theta2)

    def to_thetas(self) -> tuple:
        return (0.5 * self.psi1, -0.5 * self.psi2)


@dataclass(frozen=True)
class ChshSettings:
    """Two settings per station: psi1/psi1_prime and psi2/psi2_prime."""

    psi1: float
    psi1_prime: float
    psi2: float
    psi2_prime: float

    def canonical(self) -> "ChshSettings":
        """Station-1 angles wrapped into [0, 2pi), station-2 into [-pi, pi)."""
        return ChshSettings(
            self.psi1 % _TWO_PI,
            self.psi1_prime % _TWO_PI,
            (self.psi2 + math.pi) % _TWO_PI - math.pi,
            (self.psi2_prime + math.pi) % _TWO_PI - math.pi,
        )

    def pairs(self) -> tuple:
        """The four labeled settings in SETTING_LABELS order."""
        angles = (
            PsiAngles(self.psi1, self.psi2),
            PsiAngles(self.psi1_prime, self.psi2),
            PsiAngles(self.psi1, self.psi2_prime),
            PsiAngles(self.psi1_prime, self.psi2_prime),
        )
        return tuple(zip(SETTING_LABELS, angles))


def correlation_closed_form(psi: PsiAngles, model: DetectorModel) -> float:
    """E(psi1, psi2) from the trigonometric identities above."""
    e_ideal = (
        -0.5 * math.cos(psi.psi1 + psi.psi2)
        + 0.5 * model.alpha
        + 0.25
        * (1.0 - model.alpha)
        * (math.cos(psi.psi1) ** 2 + math.cos(psi.psi2) ** 2)
    )
    return model.eta**2 * e_ideal + (1.0 - model.eta) ** 2


def table_for(psi: PsiAngles, model: DetectorModel) -> JointProbabilityTable:
    """Joint table at one setting with both imperfections applied."""
    theta1, theta2 = psi.to_thetas()
    return apply_alpha_confusion(joint_table(theta1, theta2, model.eta), model.alpha)


def correlation_from_table(table: JointProbabilityTable) -> float:
    """E = sum_ij VALUES[i] VALUES[j] p[i][j] over the full 6x6 table.

    Each signed cell is exact, so fsum returns the correctly rounded sum,
    whatever the BLAS kernel or numpy version.
    """
    return math.fsum((_SIGNS * table.probs).ravel().tolist())


def correlation_via_table(psi: PsiAngles, model: DetectorModel) -> float:
    """Convenience: build the table for ``psi`` and contract it."""
    return correlation_from_table(table_for(psi, model))


def chsh_combination(e) -> float:
    """S = E(AB) + E(A'B) + E(AB') - E(A'B') from E keyed by SETTING_LABELS."""
    return e["AB"] + e["A'B"] + e["AB'"] - e["A'B'"]


def chsh(settings: ChshSettings, model: DetectorModel) -> float:
    """S from the closed-form correlations; ``correlation_via_table`` at each
    of ``settings.pairs()`` gives the independent table route."""
    return chsh_combination(
        {label: correlation_closed_form(psi, model) for label, psi in settings.pairs()})


@dataclass(frozen=True)
class HomPortProbabilities:
    """Both-photons-at-one-station probabilities at perfect detectors.

    ``station1_split`` is the chance that both photons end at station 1
    with one on each detector; it vanishes at theta1 = pi/4, where the
    pair bunches into a single port (``station1_double_plus`` and
    ``station1_double_minus``).  Station-2 entries mirror with theta2.
    """

    station1_split: float
    station1_double_plus: float
    station1_double_minus: float
    station2_split: float
    station2_double_plus: float
    station2_double_minus: float

    @property
    def total(self) -> float:
        return (
            self.station1_split
            + self.station1_double_plus
            + self.station1_double_minus
            + self.station2_split
            + self.station2_double_plus
            + self.station2_double_minus
        )

    def as_dict(self) -> dict:
        return {
            "p_4_3": self.station1_split,
            "p_5_3": self.station1_double_plus,
            "p_6_3": self.station1_double_minus,
            "p_3_4": self.station2_split,
            "p_3_5": self.station2_double_plus,
            "p_3_6": self.station2_double_minus,
        }


def hom_port_probabilities(theta1: float, theta2: float) -> HomPortProbabilities:
    """Single-station pair statistics at unit efficiency: the cells (4,3),
    (5,3), (6,3), (3,4), (3,5), (3,6) of ``closed_form_ideal_table``."""
    p = closed_form_ideal_table(theta1, theta2)
    return HomPortProbabilities(*p[3:, 2].tolist(), *p[2, 3:].tolist())
