import dataclasses
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import biphoton
from biphoton import bell, optimize, selftest
from biphoton.bell import ChshSettings, chsh
from biphoton.detection import DetectorModel
from biphoton.optimize import (
    ThresholdResult,
    critical_efficiency,
    maximize_chsh,
)
from biphoton.selftest import (
    _chsh_batch,
    _chsh_parts,
    check_random_search_never_beats_closed_form,
    random_search_chsh,
)

EXACT_THRESHOLD_IDEAL = 4.0 / (3.0 + math.sqrt(2.0))

REFERENCE_ALPHAS = (1.0, 0.875, 0.75, 0.5, 0.0)


def test_ideal_maximum_is_one_plus_sqrt2():
    result = maximize_chsh(DetectorModel())
    assert result.converged
    assert abs(result.best_value - (1.0 + math.sqrt(2.0))) < 1e-6


def test_alpha_zero_maximum():
    result = maximize_chsh(DetectorModel(alpha=0.0))
    assert abs(result.best_value - 2.33712) < 1e-4


def test_quoted_angles_sit_at_the_alpha_zero_maximum():
    result = maximize_chsh(DetectorModel(alpha=0.0))
    quoted = chsh(
        ChshSettings(2.93798, 4.25513, -0.20241, 1.11708), DetectorModel(alpha=0.0)
    )
    assert quoted <= result.best_value + 1e-9
    assert result.best_value - quoted < 1e-4


def test_reported_value_matches_reported_settings():
    for alpha in (0.0, 0.6, 1.0):
        model = DetectorModel(alpha=alpha, eta=0.93)
        result = maximize_chsh(model)
        assert abs(result.best_value - chsh(result.settings, model)) < 1e-9


def test_reported_settings_are_canonical():
    result = maximize_chsh(DetectorModel())
    s = result.settings
    assert 0.0 <= s.psi1 < 2.0 * math.pi
    assert 0.0 <= s.psi1_prime < 2.0 * math.pi
    assert -math.pi <= s.psi2 < math.pi
    assert -math.pi <= s.psi2_prime < math.pi


def test_value_never_exceeds_soundness_bound():
    for alpha, eta in ((0.0, 1.0), (0.5, 0.8), (1.0, 0.7), (0.3, 0.55)):
        result = maximize_chsh(DetectorModel(alpha, eta))
        bound = 2.0 * math.sqrt(2.0) * eta * eta + 2.0 * (1.0 - eta) ** 2
        assert result.best_value <= bound + 1e-9


def test_maximum_is_monotone_in_alpha():
    values = [
        maximize_chsh(DetectorModel(alpha=a)).best_value
        for a in (0.0, 0.25, 0.5, 0.75, 1.0)
    ]
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo - 1e-7


@pytest.mark.parametrize("alpha", (0.0, 0.25, 0.5, 0.75, 1.0))
def test_random_search_never_beats_the_closed_form(alpha):
    model = DetectorModel(alpha, 0.93)
    best = maximize_chsh(model).best_value
    [found] = random_search_chsh([model], 10**6, np.random.default_rng(int(alpha * 100)))
    assert found <= best + 1e-12


@pytest.mark.parametrize("eta", (1.0, 0.93, 0.6))
@pytest.mark.parametrize("alpha", (0.0, 0.25, 0.5, 0.75, 1.0))
def test_vectorized_chsh_matches_bell_chsh(alpha, eta):
    model = DetectorModel(alpha, eta)
    x = np.random.default_rng(int(100 * alpha + 1000 * eta)).uniform(
        -2.0 * math.pi, 4.0 * math.pi, size=(4, 1000))
    values = _chsh_batch(_chsh_parts(x), model)
    assert values.shape == (1000,)
    for row, value in zip(x.T, values):
        assert abs(chsh(ChshSettings(*row), model) - value) < 1e-12


class _RecordingRng:
    """Hands out the draws of ``rng.uniform`` and keeps each one.

    ``plant`` maps a chunk index to settings written into that chunk's
    last row, which no spot check reads.
    """

    def __init__(self, rng, plant=None):
        self.rng = rng
        self.plant = plant or {}
        self.draws = []

    def uniform(self, *args, **kwargs):
        x = self.rng.uniform(*args, **kwargs)
        if len(self.draws) in self.plant:
            x[:, -1] = self.plant[len(self.draws)]
        self.draws.append(x)
        return x


def _record_search(monkeypatch, plant=None, lowered=()):
    """Run validate's search with the rng and ``bell.chsh`` recorded.

    The closed-form maximum of every alpha in ``lowered`` is reported
    1e-9 too low, so the search fails there once it sees a setting
    within 1e-9 of the true maximum.
    """
    rngs, spot = [], []
    real_rng, real_chsh, real_maximize = selftest._rng, bell.chsh, optimize.maximize_chsh

    def rng():
        rngs.append(_RecordingRng(real_rng(), plant))
        return rngs[-1]

    def recorded_chsh(settings, model, *args, **kwargs):
        spot.append((dataclasses.astuple(settings), model.alpha))
        return real_chsh(settings, model, *args, **kwargs)

    def maximize(model, *args, **kwargs):
        result = real_maximize(model, *args, **kwargs)
        if model.alpha in lowered:
            result = dataclasses.replace(result, best_value=result.best_value - 1e-9)
        return result

    monkeypatch.setattr(selftest, "_rng", rng)
    monkeypatch.setattr(bell, "chsh", recorded_chsh)
    monkeypatch.setattr(optimize, "maximize_chsh", maximize)
    check_random_search_never_beats_closed_form()
    return rngs, spot


VALIDATE_ALPHAS = (0.0, 0.5, 1.0)


def test_validate_search_draws_once_and_spot_checks_every_chunk_at_every_alpha(monkeypatch):
    rngs, spot = _record_search(monkeypatch)
    [rng] = rngs
    assert [x.shape for x in rng.draws] == [(4, selftest._SEARCH_CHUNK)] * 16
    assert sum(x.shape[1] for x in rng.draws) == 2**16
    for x in rng.draws:
        rows = {tuple(col) for col in x.T}
        for alpha in VALIDATE_ALPHAS:
            checked = [s for s, a in spot if a == alpha and s in rows]
            assert len(checked) == selftest._SPOT_CHECKS, alpha
    assert len(spot) == 16 * len(VALIDATE_ALPHAS) * selftest._SPOT_CHECKS


def test_validate_search_alone_stays_1e9_below_the_maximum(monkeypatch):
    # the control for the planted test below: the random settings alone
    # come nowhere near 1e-9 of the maximum
    _record_search(monkeypatch, lowered=VALIDATE_ALPHAS)


@pytest.mark.parametrize("chunk", (0, 15))
@pytest.mark.parametrize("alpha", VALIDATE_ALPHAS)
def test_validate_search_evaluates_every_alpha_on_the_first_and_last_chunk(monkeypatch, alpha, chunk):
    top = dataclasses.astuple(maximize_chsh(DetectorModel(alpha)).settings)
    with pytest.raises(AssertionError) as excinfo:
        _record_search(monkeypatch, plant={chunk: top}, lowered=(alpha,))
    assert excinfo.value.args[0][0] == alpha


def test_random_search_memory_is_bounded_by_the_chunk():
    tracemalloc.start()
    try:
        check_random_search_never_beats_closed_form()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("alpha", (0.0, 0.25, 0.5, 0.75, 1.0))
def test_gradient_vanishes_at_the_reported_settings(alpha):
    model = DetectorModel(alpha, 0.93)
    x = np.array(dataclasses.astuple(maximize_chsh(model).settings))
    h = 1e-5
    for step in h * np.eye(4):
        up = chsh(ChshSettings(*(x + step)), model)
        down = chsh(ChshSettings(*(x - step)), model)
        assert abs(up - down) / (2.0 * h) < 1e-6


def test_cli_import_loads_neither_scipy_nor_threads():
    src = str(Path(biphoton.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import biphoton.cli; "
        "print(sorted({'scipy', 'concurrent.futures'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_parameter_validation():
    with pytest.raises(ValueError):
        maximize_chsh(DetectorModel(), starts=0)
    with pytest.raises(ValueError):
        critical_efficiency(-0.1)
    with pytest.raises(ValueError):
        critical_efficiency(1.1)
    with pytest.raises(ValueError):
        critical_efficiency(1.0, tol=0.0)


@pytest.mark.parametrize("alpha", REFERENCE_ALPHAS)
def test_threshold_at_ideal_recognition(alpha):
    result = critical_efficiency(alpha)
    assert isinstance(result, ThresholdResult)
    if alpha == 1.0:
        assert abs(result.eta_critical - EXACT_THRESHOLD_IDEAL) < 1e-4
    assert result.bracket_width <= 1e-4
    # the bracket truly straddles the crossing
    half = 0.5 * result.bracket_width
    below = maximize_chsh(
        DetectorModel(alpha, result.eta_critical - 2.0 * half),
        starts=4,
    )
    above = maximize_chsh(
        DetectorModel(alpha, result.eta_critical + 2.0 * half),
        starts=4,
    )
    assert below.best_value < 2.0 < above.best_value


def test_threshold_is_monotone_in_alpha():
    etas = [
        critical_efficiency(a).eta_critical for a in (0.0, 0.5, 1.0)
    ]
    for hi, lo in zip(etas, etas[1:]):
        assert lo <= hi + 1e-4


def test_threshold_settings_still_achieve_the_maximum():
    result = critical_efficiency(1.0)
    model = DetectorModel(1.0, result.eta_critical)
    direct = chsh(result.settings_at_threshold, model)
    fresh = maximize_chsh(model)
    assert abs(direct - fresh.best_value) < 1e-6
