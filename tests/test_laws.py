"""Physical laws that need no second route and no pinned bytes.

Each law is checked over seeded points, against a tolerance stated in
units of the float64 machine epsilon EPS (2.2e-16).
"""

import math

import numpy as np
import pytest

from biphoton.bell import chsh
from biphoton.detection import (
    DetectorModel,
    apply_alpha_confusion,
    joint_table,
    loss_channel,
)
from biphoton.optimize import critical_efficiency

EPS = np.finfo(float).eps

POINTS = 300

#: photons on D+ and on D- in each outcome class 1..6
N_PLUS = np.array((0, 1, 0, 1, 2, 0), dtype=float)
N_MINUS = np.array((1, 0, 0, 1, 0, 2), dtype=float)


def _confused(theta1, theta2, eta, alpha):
    return apply_alpha_confusion(joint_table(theta1, theta2, eta), alpha).probs


def test_no_signalling():
    # one station's click statistics do not depend on the other's
    # analyzer; 4 EPS, where 2.5 EPS was the largest residual seen
    rng = np.random.default_rng(26)
    for _ in range(POINTS):
        theta1, theta2, other = rng.uniform(-10.0, 10.0, 3)
        eta, alpha = rng.uniform(1e-3, 1.0), rng.random()
        p = _confused(theta1, theta2, eta, alpha)
        station1 = _confused(theta1, other, eta, alpha).sum(axis=1)
        station2 = _confused(other, theta2, eta, alpha).sum(axis=0)
        assert np.max(np.abs(p.sum(axis=1) - station1)) <= 4 * EPS
        assert np.max(np.abs(p.sum(axis=0) - station2)) <= 4 * EPS


def test_loss_composes():
    # keeping a photon with chance eta1, then eta2, keeps it with chance
    # eta1 * eta2; 2 EPS, where 1.5 EPS was the largest residual seen
    rng = np.random.default_rng(27)
    for eta1, eta2 in rng.uniform(1e-3, 1.0, (POINTS, 2)):
        composed = loss_channel(eta1) @ loss_channel(eta2)
        assert np.max(np.abs(composed - loss_channel(eta1 * eta2))) <= 2 * EPS


def test_loss_thins_each_detector_count():
    # each photon on a detector is kept with chance eta, so the mean count
    # of D+ and of D- photons scales by eta: n^T L(eta) = eta n^T; 2 EPS,
    # where 1 EPS was the largest residual seen
    rng = np.random.default_rng(28)
    for eta in rng.uniform(1e-3, 1.0, POINTS):
        m = loss_channel(eta)
        for n in (N_PLUS, N_MINUS):
            assert np.max(np.abs(n @ m - eta * n)) <= 2 * EPS


@pytest.mark.parametrize("alpha", (0.0, 0.25, 0.5, 0.75, 1.0))
def test_chsh_is_two_at_the_critical_efficiency(alpha):
    # the threshold is where the maximal S crosses the local bound 2:
    # within one ulp of 2
    result = critical_efficiency(alpha)
    s = chsh(result.settings_at_threshold, DetectorModel(alpha, result.eta_critical))
    assert abs(s - 2.0) <= math.ulp(2.0)
