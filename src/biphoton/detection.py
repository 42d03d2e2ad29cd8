"""Click statistics: outcome classes, joint tables, detector imperfections.

Each station watches two detectors, D+ on the analyzer-parallel mode and
D- on the perpendicular one.  With at most two photons the per-station
record (n+, n-) falls into six classes:

    1: (0, 1)   lone D- click
    2: (1, 0)   lone D+ click
    3: (0, 0)   no click
    4: (1, 1)   one click on each detector
    5: (2, 0)   both photons on D+
    6: (0, 2)   both photons on D-

Imperfections act on the finished table, per station: photon loss
(efficiency eta) first, as ``loss_channel``, then imperfect double-click
recognition (alpha), turning class 6 into class 1 and class 5 into class
2 with probability 1 - alpha.
"""

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .fock import (
    C_PAR,
    C_PERP,
    D_PAR,
    D_PERP,
    OccupationVector,
)
from .optics import DETECTED_MODES, ExperimentConfig, check_eta, network_matrix


class ImpossibleCountError(ValueError):
    """Raised when a station would register more than two photons."""


class StationOutcome(IntEnum):
    """Six-way classification of one station's detector record."""

    SINGLE_MINUS = 1
    SINGLE_PLUS = 2
    NO_CLICK = 3
    COINCIDENCE = 4
    DOUBLE_PLUS = 5
    DOUBLE_MINUS = 6


_CLASS_BY_COUNTS = {
    (0, 1): StationOutcome.SINGLE_MINUS,
    (1, 0): StationOutcome.SINGLE_PLUS,
    (0, 0): StationOutcome.NO_CLICK,
    (1, 1): StationOutcome.COINCIDENCE,
    (2, 0): StationOutcome.DOUBLE_PLUS,
    (0, 2): StationOutcome.DOUBLE_MINUS,
}


def check_alpha(alpha: float) -> None:
    """Reject a recognition probability alpha outside [0, 1], NaN included."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha!r}")


@dataclass(frozen=True)
class DetectorModel:
    """Detector imperfections: double-click recognition and efficiency.

    ``alpha`` is the probability that two photons on one detector are
    recognized as such (1 = ideal).  ``eta`` is the probability that a
    photon reaching a detector is registered.
    """

    alpha: float = 1.0
    eta: float = 1.0

    def __post_init__(self):
        check_alpha(self.alpha)
        check_eta(self.eta)


def classify(occ: OccupationVector) -> tuple:
    """Map an occupation over detected modes to per-station outcome classes.

    Loss-ancilla counts are ignored; any other mode outside the four
    detected ones is a contract violation.
    """
    plus = {1: 0, 2: 0}
    minus = {1: 0, 2: 0}
    for mode, count in occ.pairs:
        if mode.lost:
            continue
        if mode in (C_PAR, D_PAR):
            plus[mode.station] += count
        elif mode in (C_PERP, D_PERP):
            minus[mode.station] += count
        else:
            raise ValueError(f"mode {mode} is not a detected mode")
    outcomes = []
    for station in (1, 2):
        key = (plus[station], minus[station])
        if key not in _CLASS_BY_COUNTS:
            raise ImpossibleCountError(
                f"station {station} cannot register counts {key}"
            )
        outcomes.append(_CLASS_BY_COUNTS[key])
    return tuple(outcomes)


@dataclass(frozen=True)
class ValueAssignment:
    """Dichotomic +/-1 value per outcome class, one tuple per station.

    The default assigns -1 only to a lone D- click (class 1) and +1 to
    everything else, including no-click events.
    """

    a: tuple = (-1, 1, 1, 1, 1, 1)
    b: tuple = (-1, 1, 1, 1, 1, 1)

    def __post_init__(self):
        for side in (self.a, self.b):
            if len(side) != 6 or any(v not in (-1, 1) for v in side):
                raise ValueError("values must be six entries of +/-1")


DEFAULT_ASSIGNMENT = ValueAssignment()


@dataclass(frozen=True)
class JointProbabilityTable:
    """6x6 joint outcome probabilities p[i][j] plus the parameters behind them."""

    probs: np.ndarray
    theta1: float
    theta2: float
    eta: float
    alpha: float

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.shape != (6, 6):
            raise ValueError("table must be 6x6")
        p = p.copy()
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)

    def p(self, i: int, j: int) -> float:
        """Probability of class i at station 1 and class j at station 2."""
        for outcome in (i, j):
            if outcome not in range(1, 7):
                raise ValueError(f"outcome must be a class 1..6, got {outcome!r}")
        return float(self.probs[int(i) - 1, int(j) - 1])

    @property
    def total(self) -> float:
        return float(self.probs.sum())

    def records(self) -> list:
        """Flat record set {i, j, theta1, theta2, eta, alpha, p}, row-major."""
        out = []
        for i in range(1, 7):
            for j in range(1, 7):
                out.append(
                    {
                        "i": i,
                        "j": j,
                        "theta1": self.theta1,
                        "theta2": self.theta2,
                        "eta": self.eta,
                        "alpha": self.alpha,
                        "p": self.p(i, j),
                    }
                )
        return out


#: flat 6x6 cell of the click classes of each ordered pair of detected
#: modes (row-major over DETECTED_MODES x DETECTED_MODES)
_PAIR_CELL = np.array([
    6 * (i - 1) + (j - 1)
    for i, j in (
        classify(OccupationVector.of(m, n))
        for m in DETECTED_MODES for n in DETECTED_MODES
    )
])


def loss_channel(eta: float) -> np.ndarray:
    """Photon loss at one station, column-stochastic: [i, j] is the chance
    that class j + 1 reads as class i + 1, each photon kept with chance eta."""
    check_eta(eta)
    e, f = eta, 1.0 - eta
    return np.array([e, 0.0, 0.0, e * f, 0.0, 2.0 * e * f,
                     0.0, e, 0.0, e * f, 2.0 * e * f, 0.0,
                     f, f, 1.0, f * f, f * f, f * f,
                     0.0, 0.0, 0.0, e * e, 0.0, 0.0,
                     0.0, 0.0, 0.0, 0.0, e * e, 0.0,
                     0.0, 0.0, 0.0, 0.0, 0.0, e * e]).reshape(6, 6)


def joint_table(theta1: float, theta2: float, eta: float = 1.0) -> JointProbabilityTable:
    """Joint class probabilities from the two-photon network matrix.

    With ``u`` the 2 x 4 network matrix (``optics.network_matrix``), the
    pair a1x^dag a2y^dag |0> leaves as sum_ij u[0, i] u[1, j] b_i^dag b_j^dag
    |0>, so the amplitude of one photon in mode i and one in mode j is the
    2x2 permanent S_ij = u[0, i] u[1, j] + u[0, j] u[1, i].  Each ordered
    pair (i, j) carries |S_ij|^2 / 2, which also gives the doubly occupied
    ket its bosonic factor: |sqrt(2) u[0, i] u[1, i]|^2 = |S_ii|^2 / 2.
    The 16 pair probabilities are summed into the cells ``classify``
    assigns them, then loss acts as L p L^T, L = ``loss_channel(eta)``.
    The table carries alpha = 1; the closed forms and the sparse route
    are its independent cross-checks.
    """
    u0, u1 = network_matrix(ExperimentConfig(theta1, theta2, eta))
    s = np.outer(u0, u1)
    s += s.T
    pair = 0.5 * (s.real ** 2 + s.imag ** 2)
    probs = np.bincount(_PAIR_CELL, weights=pair.ravel(), minlength=36).reshape(6, 6)
    if eta < 1.0:
        m = loss_channel(eta)
        probs = m @ probs @ m.T
    n = math.sqrt(probs.sum())
    if abs(n - 1.0) > 1e-9:
        raise RuntimeError(f"pipeline produced norm {n!r}, expected 1")
    return JointProbabilityTable(probs, theta1, theta2, eta, 1.0)


def apply_alpha_confusion(table: JointProbabilityTable, alpha: float) -> JointProbabilityTable:
    """Degrade double-click recognition on a table built at alpha = 1.

    Per station, independently: class 6 mass moves to class 1 and class
    5 mass to class 2, each with weight 1 - alpha.  Implemented as the
    product channel M p M^T, which preserves total mass.
    """
    check_alpha(alpha)
    if table.alpha != 1.0:
        raise ValueError("confusion must start from an alpha = 1 table")
    m = np.eye(6)
    m[0, 5] = 1.0 - alpha
    m[5, 5] = alpha
    m[1, 4] = 1.0 - alpha
    m[4, 4] = alpha
    probs = m @ table.probs @ m.T
    return JointProbabilityTable(probs, table.theta1, table.theta2, table.eta, alpha)


def closed_form_ideal_table(theta1: float, theta2: float) -> np.ndarray:
    """Lossless joint table from the trigonometric closed forms.

    Ten cells are populated: the four two-station coincidences driven by
    theta1 - theta2, and the six one-station pair classes driven by the
    local angle alone.
    """
    d = theta1 - theta2
    p = np.zeros((6, 6))
    p[0, 0] = p[1, 1] = 0.25 * math.sin(d) ** 2
    p[1, 0] = p[0, 1] = 0.25 * math.cos(d) ** 2
    p[4, 2] = p[5, 2] = 0.125 * math.sin(2.0 * theta1) ** 2
    p[2, 4] = p[2, 5] = 0.125 * math.sin(2.0 * theta2) ** 2
    p[3, 2] = 0.25 * math.cos(2.0 * theta1) ** 2
    p[2, 3] = 0.25 * math.cos(2.0 * theta2) ** 2
    return p


def closed_form_lossy_table(theta1: float, theta2: float, eta: float) -> np.ndarray:
    """Joint table with detector efficiency folded in, from closed forms.

    The detected-pair sector scales by eta^2.  Each one-sided lone-click
    class carries eta(1 - eta)/2: the factor 1/2 is forced by
    normalization, since the surviving photon of a split pair reaches a
    given station with probability 1/2 in every relevant ket.  The
    double no-click cell is (1 - eta)^2.
    """
    check_eta(eta)
    p = eta * eta * closed_form_ideal_table(theta1, theta2)
    half = 0.5 * eta * (1.0 - eta)
    p[0, 2] += half
    p[1, 2] += half
    p[2, 0] += half
    p[2, 1] += half
    p[2, 2] += (1.0 - eta) ** 2
    return p
