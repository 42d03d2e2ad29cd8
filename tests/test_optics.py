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
    create,
    norm,
    vacuum,
)
from biphoton.optics import (
    NETWORK_MODES,
    ExperimentConfig,
    ModeTransform,
    apply,
    beamsplitter_5050,
    build_experiment_state,
    network_matrix,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def test_beamsplitter_is_isometry():
    assert beamsplitter_5050().is_unitary(1e-12)


def test_beamsplitter_is_built_once_and_read_only():
    bs = beamsplitter_5050()
    assert beamsplitter_5050() is bs
    assert not bs.matrix.flags.writeable
    with pytest.raises(ValueError):
        bs.matrix[0, 0] = 0.0
    with pytest.raises(ValueError):
        bs.matrix.flags.writeable = True


def test_beamsplitter_action_on_single_photon():
    out = apply(beamsplitter_5050(), create(vacuum(), A1X))
    assert abs(out.amplitude(OccupationVector.of(C_X)) - 1j * INV_SQRT2) < 1e-15
    assert abs(out.amplitude(OccupationVector.of(D_X)) - INV_SQRT2) < 1e-15
    assert abs(norm(out) - 1.0) < 1e-15


def test_beamsplitter_action_on_pair():
    # (i cx + dx)(cy + i dy) / 2 expanded by hand
    out = apply(beamsplitter_5050(), create(create(vacuum(), A1X), A2Y))
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
        out = apply(analyzers, create(vacuum(), x))
        assert abs(out.amplitude(OccupationVector.of(par)) - c) < 1e-15
        assert abs(out.amplitude(OccupationVector.of(perp)) - s) < 1e-15
        out = apply(analyzers, create(vacuum(), y))
        assert abs(out.amplitude(OccupationVector.of(par)) - s) < 1e-15
        assert abs(out.amplitude(OccupationVector.of(perp)) + c) < 1e-15


@pytest.mark.parametrize("mode", DETECTED_MODES)
def test_loss_stage_amplitudes(mode):
    # sqrt(eta) |1> + sqrt(1-eta) |1_r> on one photon, and
    # eta |2> + sqrt(2 eta (1-eta)) |1,1_r> + (1-eta) |2_r> on two
    eta = 0.81
    losses = ExperimentConfig(0.3, -1.2, eta).elements()[2]
    r = ModeId(mode.beam, mode.channel, lost=True)
    out = apply(losses, create(vacuum(), mode))
    assert abs(out.amplitude(OccupationVector.of(mode)) - math.sqrt(eta)) < 1e-15
    assert abs(out.amplitude(OccupationVector.of(r)) - math.sqrt(1.0 - eta)) < 1e-15
    out = apply(losses, FockState({OccupationVector.of(mode, mode): 1.0}))
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
        state = create(create(vacuum(), stage.input_modes[0]), mode)
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


def test_config_validates_eta():
    with pytest.raises(ValueError):
        ExperimentConfig(0.0, 0.0, eta=0.0)
    with pytest.raises(ValueError):
        ExperimentConfig(0.0, 0.0, eta=1.5)


@pytest.mark.parametrize("eta", (1.0, 0.7, 0.5))
def test_network_matrix_is_an_isometry(eta):
    u = network_matrix(ExperimentConfig(0.4, -1.3, eta))
    assert u.shape == (2, 8)
    assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-12
    # columns 4..7 are the loss twins, empty exactly when eta = 1
    assert np.all(u[:, 4:] != 0) == (eta < 1.0)
    assert np.all(u[:, 4:] == 0) == (eta == 1.0)


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


def test_network_matrix_rejects_stages_that_do_not_chain(monkeypatch):
    cfg = ExperimentConfig(0.4, -1.3, 0.7)
    bs, analyzers, losses = cfg.elements()
    # the same four modes in another order would silently mix columns
    reordered = ModeTransform(
        (C_X, C_Y, D_X, D_Y), analyzers.output_modes, analyzers.matrix
    )
    for stages in ([bs, losses], [analyzers, bs, losses], [bs, reordered, losses]):
        monkeypatch.setattr(ExperimentConfig, "elements", lambda self: stages)
        with pytest.raises(ValueError, match="chain"):
            network_matrix(cfg)
    monkeypatch.setattr(ExperimentConfig, "elements", lambda self: [bs])
    with pytest.raises(ValueError, match="not on the network modes"):
        network_matrix(cfg)
