"""The CHSH maximum and the critical detector efficiency, in closed form.

Efficiency.  Every correlation obeys E(eta) = eta^2 E(1) + (1 - eta)^2
(see ``bell``), so the CHSH value at efficiency eta is

    S(eta) = eta^2 S1 + 2 (1 - eta)^2,

with S1 the value at perfect detectors.  The settings enter through S1
alone, so one argmax serves every eta, the maximum is
eta^2 M + 2 (1 - eta)^2 with M = max S1, and its nonzero root of
S = 2 is the threshold

    eta_c = 4 / (2 + M)

(Garg & Mermin, PRD 35, 3831 (1987); Eberhard, PRA 47, R747 (1993)).

Maximum.  Summing the four correlations of ``bell`` gives

    S1 = alpha + (1 - alpha)/2 (1 + cos s cos d)
         - [cos s + cos u + cos v - cos(u + v - s)] / 2,

with s = psi1 + psi2, d = psi1 - psi2, u = psi1' + psi2 and
v = psi1 + psi2'.  The primed angles enter only through u and v, and d
only through the local term, which peaks at 1 + |cos s|.  Stationarity
in u and v gives sin u = sin v = sin(u + v - s); on the branch
u = v = w it gives s = 3w - pi.  Taking d = pi, so that
cos s cos d = cos 3w, and writing c = cos w,

    S1(c) = alpha + (1 - alpha)/2 (1 + 4c^3 - 3c) + 2c^3 - 3c,

whose maximum on [-1, 1] sits at c = -sqrt((3 - alpha) / (4 (2 - alpha))):

    M(alpha) = (1 + alpha)/2 + (3 - alpha)^(3/2) / (2 sqrt(2 - alpha)).

M(1) = 1 + sqrt(2) and M(0) = 2.33712.  That no other branch does
better is checked independently by a random search over all four
angles, in the tests and in ``validate``.
"""

import math
from dataclasses import dataclass

from .bell import ChshSettings, chsh
from .detection import DetectorModel


@dataclass(frozen=True)
class OptimizationResult:
    """Maximum CHSH value, with the settings that achieve it.

    The maximum is computed, not searched for: ``starts_used`` is
    always 1 and ``converged`` always True.
    """

    best_value: float
    settings: ChshSettings
    starts_used: int
    converged: bool


@dataclass(frozen=True)
class ThresholdResult:
    """Critical efficiency for one alpha, with its verified bracket width."""

    alpha: float
    eta_critical: float
    settings_at_threshold: ChshSettings
    bracket_width: float


def _optimal_settings(alpha: float) -> ChshSettings:
    """The maximizing settings of the module docstring, canonicalized."""
    w = math.acos(-math.sqrt((3.0 - alpha) / (4.0 * (2.0 - alpha))))
    s = 3.0 * w - math.pi
    psi1 = 0.5 * (s + math.pi)
    psi2 = 0.5 * (s - math.pi)
    return ChshSettings(psi1, w - psi2, psi2, w - psi1).canonical()


def maximize_chsh(model: DetectorModel, starts: int = 1) -> OptimizationResult:
    """Global maximum of S over the four setting angles.

    Equals eta^2 M(alpha) + 2 (1 - eta)^2.  ``starts`` must be at least
    1 and has no other effect; the maximum needs no search.
    """
    if starts < 1:
        raise ValueError("starts must be at least 1")
    settings = _optimal_settings(model.alpha)
    # evaluated at the canonical angles, so the reported pair is
    # self-consistent to machine precision
    return OptimizationResult(
        best_value=chsh(settings, model),
        settings=settings,
        starts_used=1,
        converged=True,
    )


def critical_efficiency(alpha: float, tol: float = 1e-4) -> ThresholdResult:
    """Smallest efficiency at which max-CHSH still reaches 2: 4 / (2 + M).

    The bracket eta_c +/- tol/2, clipped to [0.5, 1], is proven rather
    than assumed: S at the maximizing settings must lie below 2 at its
    low end and above 2 at its high end.  ``bracket_width`` is its
    width, at most ``tol``.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    top = maximize_chsh(DetectorModel(alpha, 1.0))
    eta_c = 4.0 / (2.0 + top.best_value)
    lo = max(0.5, eta_c - 0.5 * tol)
    hi = min(1.0, eta_c + 0.5 * tol)
    # rounding eta_c +/- tol/2 can leave the width one ulp over tol
    while hi - lo > tol:
        hi = math.nextafter(hi, lo)
    settings = top.settings
    below = chsh(settings, DetectorModel(alpha, lo))
    above = chsh(settings, DetectorModel(alpha, hi))
    if not below < 2.0 < above:
        raise ValueError(f"tol {tol!r} is too small to resolve the crossing")
    return ThresholdResult(
        alpha=alpha,
        eta_critical=eta_c,
        settings_at_threshold=settings,
        bracket_width=hi - lo,
    )
