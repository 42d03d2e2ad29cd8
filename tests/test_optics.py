import hashlib
import math

import numpy as np
import pytest

from biphoton.fock import (
    A1X,
    A2Y,
    C_PAR,
    C_PERP,
    C_X,
    C_Y,
    DETECTED_MODES,
    D_PAR,
    D_PERP,
    D_X,
    D_Y,
    FockState,
    ModeId,
    OccupationVector,
    norm,
)
from biphoton import optics
from biphoton.optics import (
    _ANALYZER_MODES,
    _BEAMSPLITTER_MODES,
    _LOSS_MODES,
    NETWORK_MODES,
    ExperimentConfig,
    ModeTransform,
    _analyzer_matrix,
    _check_chain,
    _loss_matrix,
    apply,
    beamsplitter_5050,
    build_experiment_state,
    network_matrix,
)
from test_detection import _pinned_grid

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def ket(*modes):
    """The ket with one photon per entry of ``modes``, amplitude 1."""
    return FockState({OccupationVector.of(*modes): 1.0})


def test_beamsplitter_is_isometry():
    u = beamsplitter_5050().matrix
    assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-12


def test_beamsplitter_is_built_once_and_read_only():
    bs = beamsplitter_5050()
    assert beamsplitter_5050() is bs
    assert not bs.matrix.flags.writeable
    with pytest.raises(ValueError):
        bs.matrix[0, 0] = 0.0
    with pytest.raises(ValueError):
        bs.matrix.flags.writeable = True


def test_beamsplitter_action_on_single_photon():
    out = apply(beamsplitter_5050(), ket(A1X))
    assert abs(out.amplitude(OccupationVector.of(C_X)) - 1j * INV_SQRT2) < 1e-15
    assert abs(out.amplitude(OccupationVector.of(D_X)) - INV_SQRT2) < 1e-15
    assert abs(norm(out) - 1.0) < 1e-15


def test_beamsplitter_action_on_pair():
    # (i cx + dx)(cy + i dy) / 2 expanded by hand
    out = apply(beamsplitter_5050(), ket(A1X, A2Y))
    expected = {
        OccupationVector.of(C_X, C_Y): 0.5j,
        OccupationVector.of(C_X, D_Y): -0.5,
        OccupationVector.of(C_Y, D_X): 0.5,
        OccupationVector.of(D_X, D_Y): 0.5j,
    }
    assert set(out.terms) == set(expected)
    for occ, ref in expected.items():
        assert abs(out.amplitude(occ) - ref) < 1e-15


def test_analyzer_stage_action():
    theta1, theta2 = 0.3, -1.2
    analyzers = ExperimentConfig(theta1, theta2, 0.6).elements()[1]
    for x, y, par, perp, theta in ((C_X, C_Y, C_PAR, C_PERP, theta1),
                                   (D_X, D_Y, D_PAR, D_PERP, theta2)):
        c, s = math.cos(theta), math.sin(theta)
        out = apply(analyzers, ket(x))
        assert abs(out.amplitude(OccupationVector.of(par)) - c) < 1e-15
        assert abs(out.amplitude(OccupationVector.of(perp)) - s) < 1e-15
        out = apply(analyzers, ket(y))
        assert abs(out.amplitude(OccupationVector.of(par)) - s) < 1e-15
        assert abs(out.amplitude(OccupationVector.of(perp)) + c) < 1e-15


@pytest.mark.parametrize("x, y, par, perp, thetas", (
    (C_X, C_Y, C_PAR, C_PERP, (math.pi / 4.0, 0.3)),
    (D_X, D_Y, D_PAR, D_PERP, (0.3, math.pi / 4.0)),
))
def test_apply_makes_the_bosonic_factor(x, y, par, perp, thetas):
    # at theta = pi/4, x^dag y^dag -> (par^dag^2 - perp^dag^2) / 2, and
    # par^dag^2 |0> = sqrt(2) |2 par>: the pair bunches into one port with
    # amplitude +-sqrt(2)/2, and the split ket cancels
    analyzers = ExperimentConfig(*thetas).elements()[1]
    out = apply(analyzers, ket(x, y))
    two_par, two_perp = OccupationVector.of(par, par), OccupationVector.of(perp, perp)
    assert set(out.terms) == {two_par, two_perp}
    assert abs(out.amplitude(two_par) - INV_SQRT2) < 1e-15
    assert abs(out.amplitude(two_perp) + INV_SQRT2) < 1e-15


@pytest.mark.parametrize("mode", DETECTED_MODES)
def test_loss_stage_amplitudes(mode):
    # sqrt(eta) |1> + sqrt(1-eta) |1_r> on one photon, and
    # eta |2> + sqrt(2 eta (1-eta)) |1,1_r> + (1-eta) |2_r> on two
    eta = 0.81
    losses = ExperimentConfig(0.3, -1.2, eta).elements()[2]
    r = ModeId(mode.beam, mode.channel, lost=True)
    out = apply(losses, ket(mode))
    assert abs(out.amplitude(OccupationVector.of(mode)) - math.sqrt(eta)) < 1e-15
    assert abs(out.amplitude(OccupationVector.of(r)) - math.sqrt(1.0 - eta)) < 1e-15
    out = apply(losses, ket(mode, mode))
    assert abs(out.amplitude(OccupationVector.of(mode, mode)) - eta) < 1e-15
    assert (
        abs(
            out.amplitude(OccupationVector.of(mode, r))
            - math.sqrt(2.0 * eta * (1.0 - eta))
        )
        < 1e-15
    )
    assert abs(out.amplitude(OccupationVector.of(r, r)) - (1.0 - eta)) < 1e-15
    assert abs(norm(out) - 1.0) < 1e-15


def test_apply_rejects_a_mode_that_is_not_an_input():
    bs, analyzers = ExperimentConfig(0.3, -1.2).elements()
    # an output of the stage, and a mode the stage does not touch at all
    for stage, mode in ((bs, C_X), (analyzers, C_PAR), (analyzers, A1X)):
        state = ket(stage.input_modes[0], mode)
        with pytest.raises(ValueError, match=f"occupied mode {mode} is not an input"):
            apply(stage, state)


def test_transform_construction_rejects_non_isometry():
    with pytest.raises(ValueError):
        ModeTransform((C_X,), (C_PAR,), np.array([[0.5]]))
    with pytest.raises(ValueError):
        ModeTransform((C_X,), (C_PAR, C_PERP), np.array([[1.0]]))


def test_random_unitary_preserves_norm():
    rng = np.random.default_rng(5)
    for _ in range(20):
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, _ = np.linalg.qr(z)
        t = ModeTransform((C_X, C_Y), (C_PAR, C_PERP), q)
        amps = rng.normal(size=3) + 1j * rng.normal(size=3)
        raw = FockState(
            {
                OccupationVector.of(C_X): amps[0],
                OccupationVector.of(C_Y): amps[1],
                OccupationVector.of(C_X, C_Y): amps[2],
            }
        )
        before = norm(raw)
        after = norm(apply(t, raw))
        assert abs(before - after) < 1e-12


def test_experiment_state_spot_amplitudes():
    # theta1 = pi/8, theta2 = 0: coincidence amplitudes sin/cos of pi/8,
    # both-at-station-1 pair terms driven by sin/cos of pi/4
    t1 = math.pi / 8.0
    state = build_experiment_state(ExperimentConfig(t1, 0.0))
    s, c = math.sin(t1), math.cos(t1)
    assert abs(state.amplitude(OccupationVector.of(C_PAR, D_PAR)) - 0.5 * s) < 1e-14
    assert abs(state.amplitude(OccupationVector.of(C_PAR, D_PERP)) - 0.5 * c) < 1e-14
    assert abs(state.amplitude(OccupationVector.of(C_PERP, D_PAR)) + 0.5 * c) < 1e-14
    assert abs(state.amplitude(OccupationVector.of(C_PERP, D_PERP)) - 0.5 * s) < 1e-14
    two_plus = state.amplitude(OccupationVector.of(C_PAR, C_PAR))
    two_minus = state.amplitude(OccupationVector.of(C_PERP, C_PERP))
    ref = 0.25j * math.sqrt(2.0) * math.sin(2.0 * t1)
    assert abs(two_plus - ref) < 1e-14
    assert abs(two_minus + ref) < 1e-14
    # station 2 analyzer at zero: the pair term lands on the split ket only
    assert abs(state.amplitude(OccupationVector.of(D_PAR, D_PERP)) + 0.5j) < 1e-14
    assert abs(norm(state) - 1.0) < 1e-12


def test_experiment_state_with_loss_keeps_norm():
    # eta < 1 alone switches the loss channels on
    state = build_experiment_state(ExperimentConfig(0.9, 2.2, 0.35))
    assert abs(norm(state) - 1.0) < 1e-12
    assert any(m.lost for occ in state.terms for m, _ in occ.pairs)
    assert len(ExperimentConfig(0.9, 2.2, 0.35).elements()) == 3
    assert len(ExperimentConfig(0.9, 2.2).elements()) == 2


#: sha256 over ``_pinned_grid()`` of each ``build_experiment_state`` ket, in
#: the order ``FockState.__str__`` renders them, as ``str(occ)`` then the
#: amplitude's ``np.complex128(amp).tobytes()``
STATE_PIN = "b53f508a04b8b535c97edcc65f316408d259101ad3480817cdfd84f3825ed7fc"


def test_sparse_state_bytes_are_pinned():
    digest = hashlib.sha256()
    kets = 0
    for theta1, theta2, eta in _pinned_grid():
        state = build_experiment_state(ExperimentConfig(theta1, theta2, eta))
        for occ, amp in sorted(
            state.items(),
            key=lambda kv: tuple((m.sort_key(), n) for m, n in kv[0].pairs),
        ):
            digest.update(str(occ).encode())
            digest.update(np.complex128(amp).tobytes())
            kets += 1
    assert kets == 14076
    assert digest.hexdigest() == STATE_PIN


def test_config_validates_eta():
    with pytest.raises(ValueError):
        ExperimentConfig(0.0, 0.0, eta=0.0)
    with pytest.raises(ValueError):
        ExperimentConfig(0.0, 0.0, eta=1.5)


@pytest.mark.parametrize("eta", (1.0, 0.7, 0.5, 1e-3))
def test_network_matrix_is_an_isometry(eta):
    u = network_matrix(ExperimentConfig(0.4, -1.3, eta))
    assert u.shape == (2, len(DETECTED_MODES))
    assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-12
    # the optics are lossless at every eta: loss acts on the click table
    assert u.tobytes() == network_matrix(ExperimentConfig(0.4, -1.3)).tobytes()


@pytest.mark.parametrize(
    "theta1, theta2, eta",
    ((0.37, 1.91, 0.35), (-9.5, 13.0, 0.999), (math.pi / 4.0, -0.6, 1e-3)),
)
def test_stages_chain_mode_for_mode(theta1, theta2, eta):
    bs, analyzers, losses = ExperimentConfig(theta1, theta2, eta).elements()
    assert bs is beamsplitter_5050()
    assert analyzers.input_modes == bs.output_modes
    assert analyzers.output_modes == losses.input_modes == DETECTED_MODES
    assert losses.output_modes == NETWORK_MODES
    # eta < 1 appends the loss stage and changes no earlier one, to the bit
    lossless = ExperimentConfig(theta1, theta2).elements()
    assert [t.matrix.tobytes() for t in lossless] == [
        bs.matrix.tobytes(), analyzers.matrix.tobytes()
    ]


@pytest.mark.parametrize("index, block", ((1, np.s_[0::2, :2]), (2, np.s_[3, :])))
def test_stage_check_catches_one_bad_block(index, block):
    # one analyzer, or one loss channel, scaled off the isometry
    stage = ExperimentConfig(0.37, 1.91, 0.35).elements()[index]
    ModeTransform(stage.input_modes, stage.output_modes, stage.matrix)
    u = stage.matrix.copy()
    u[block] *= 1.0 + 1e-9
    with pytest.raises(ValueError, match="orthonormal"):
        ModeTransform(stage.input_modes, stage.output_modes, u)


def test_chain_check_rejects_stages_that_do_not_chain():
    bs, analyzers, losses = _BEAMSPLITTER_MODES, _ANALYZER_MODES, _LOSS_MODES
    _check_chain([bs, analyzers])
    _check_chain([bs, analyzers, losses])
    # the same four modes in another order would silently mix columns
    reordered = ((C_X, C_Y, D_X, D_Y), analyzers[1])
    for stages in ([bs, losses], [analyzers, bs, losses], [bs, reordered, losses]):
        with pytest.raises(ValueError, match="chain"):
            _check_chain(stages)
    with pytest.raises(ValueError, match="not on the network modes"):
        _check_chain([bs])


class _MathScaledAt:
    """``math`` with cos, sin and sqrt scaled by 1 + 1e-9 at one argument."""

    def __init__(self, at):
        self.at = at

    def __getattr__(self, name):
        return getattr(math, name)

    def _scaled(self, f, x):
        return f(x) * (1.0 + 1e-9) if x == self.at else f(x)

    def cos(self, x):
        return self._scaled(math.cos, x)

    def sin(self, x):
        return self._scaled(math.sin, x)

    def sqrt(self, x):
        return self._scaled(math.sqrt, x)


@pytest.mark.parametrize("at, build, args", (
    (0.37, _analyzer_matrix, (0.37, 1.91)),
    (1.91, _analyzer_matrix, (0.37, 1.91)),
    (0.35, _loss_matrix, (0.35,)),
    (1.0 - 0.35, _loss_matrix, (0.35,)),
))
def test_block_checks_catch_one_bad_block(monkeypatch, at, build, args):
    # one analyzer block, or one loss amplitude, scaled off the isometry,
    # is caught as the stage is built: an analyzer on either route, a loss
    # channel on the sparse route, the only one with a loss stage
    cfg = ExperimentConfig(0.37, 1.91, 0.35)
    beamsplitter_5050()
    monkeypatch.setattr(optics, "math", _MathScaledAt(None))
    cfg.elements()
    monkeypatch.setattr(optics, "math", _MathScaledAt(at))
    calls = [lambda: build(*args), cfg.elements]
    if build is _analyzer_matrix:
        calls.append(lambda: network_matrix(cfg))
    for call in calls:
        with pytest.raises(ValueError, match="orthonormal"):
            call()
