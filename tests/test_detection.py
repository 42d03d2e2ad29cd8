import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton import detection, optics
from biphoton.bell import correlation_from_table
from biphoton.detection import (
    DEFAULT_ASSIGNMENT,
    DetectorModel,
    ImpossibleCountError,
    JointProbabilityTable,
    StationOutcome,
    ValueAssignment,
    apply_alpha_confusion,
    classify,
    closed_form_ideal_table,
    closed_form_lossy_table,
    joint_table,
    loss_channel,
)
from biphoton.fock import C_PAR, C_PERP, C_X, D_PAR, D_PERP, ModeId, OccupationVector
from biphoton.optics import (
    NETWORK_MODES,
    ExperimentConfig,
    build_experiment_state,
    network_matrix,
)
from biphoton.selftest import table_from_state


def test_classify_examples():
    assert classify(OccupationVector.of(C_PERP, D_PAR)) == (
        StationOutcome.SINGLE_MINUS,
        StationOutcome.SINGLE_PLUS,
    )
    assert classify(OccupationVector.of(C_PAR, C_PAR)) == (
        StationOutcome.DOUBLE_PLUS,
        StationOutcome.NO_CLICK,
    )
    assert classify(OccupationVector()) == (
        StationOutcome.NO_CLICK,
        StationOutcome.NO_CLICK,
    )
    assert classify(OccupationVector.of(C_PAR, C_PERP)) == (
        StationOutcome.COINCIDENCE,
        StationOutcome.NO_CLICK,
    )
    assert classify(OccupationVector.of(D_PERP, D_PERP)) == (
        StationOutcome.NO_CLICK,
        StationOutcome.DOUBLE_MINUS,
    )


def test_classify_ignores_loss_ancillas():
    lost = ModeId("d", "perp", lost=True)
    occ = OccupationVector.of(C_PAR, lost)
    assert classify(occ) == (StationOutcome.SINGLE_PLUS, StationOutcome.NO_CLICK)


def test_classify_rejects_undetected_modes():
    with pytest.raises(ValueError):
        classify(OccupationVector.of(C_X))


def test_classify_rejects_impossible_counts():
    occ = OccupationVector.of(C_PAR, C_PAR, C_PERP)
    with pytest.raises(ImpossibleCountError):
        classify(occ)


def test_default_value_assignment():
    # -1 only for a lone D- click, class 1, at either station
    assert DEFAULT_ASSIGNMENT.a == DEFAULT_ASSIGNMENT.b == (-1, 1, 1, 1, 1, 1)


def test_value_assignment_validation():
    with pytest.raises(ValueError):
        ValueAssignment(a=(1, 1, 1), b=(-1, 1, 1, 1, 1, 1))
    with pytest.raises(ValueError):
        ValueAssignment(a=(0, 1, 1, 1, 1, 1), b=(-1, 1, 1, 1, 1, 1))


def test_detector_model_validation():
    with pytest.raises(ValueError):
        DetectorModel(alpha=-0.1)
    with pytest.raises(ValueError):
        DetectorModel(alpha=1.1)
    with pytest.raises(ValueError):
        DetectorModel(eta=0.0)
    with pytest.raises(ValueError):
        DetectorModel(eta=1.01)


def test_table_shape_validation():
    with pytest.raises(ValueError):
        JointProbabilityTable(np.zeros((5, 6)), 0.0, 0.0, 1.0, 1.0)


def test_table_cell_rejects_classes_outside_1_to_6():
    table = joint_table(0.1, 0.2, 0.8)
    assert table.p(StationOutcome.DOUBLE_MINUS, np.int64(1)) == table.probs[5, 0]
    assert table.p(2.0, 3) == table.probs[1, 2]
    # no wrap to class 6, no truncation of 1.9 to class 1
    for i, j in ((0, 1), (7, 1), (1.9, 1), (-1, 1), (1, 0), (1, 7), (1, math.nan)):
        with pytest.raises(ValueError):
            table.p(i, j)


def test_ideal_table_matches_formulas_on_grid():
    for t1 in np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False):
        for t2 in np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False):
            table = joint_table(t1, t2)
            ref = closed_form_ideal_table(t1, t2)
            assert np.max(np.abs(table.probs - ref)) < 1e-12
            assert abs(table.total - 1.0) < 1e-12


#: sha256 of every ``joint_table(...).probs.tobytes()`` over ``_pinned_grid()``
TABLE_PIN = "a906dd42a625bc57856d25dc30625d3f01c0d027c4cc37e510611e2894c984e4"


def _pinned_grid():
    """600 seeded (theta1, theta2, eta): angles in [-10, 10] (|theta| > 2pi
    included), 40 rows at theta1 = pi/4, eta = 1 on about half the rows and
    uniform in [1e-3, 1) on the rest."""
    rng = np.random.default_rng(20261018)
    thetas = rng.uniform(-10.0, 10.0, (600, 2))
    thetas[:40, 0] = math.pi / 4.0
    etas = np.where(rng.random(600) < 0.5, 1.0, rng.uniform(1e-3, 1.0, 600))
    return [(float(t1), float(t2), float(e)) for (t1, t2), e in zip(thetas, etas)]


def _table_digest(grid):
    """sha256 over ``grid`` of ``joint_table(...).probs.tobytes()``."""
    digest = hashlib.sha256()
    for theta1, theta2, eta in grid:
        digest.update(joint_table(theta1, theta2, eta).probs.tobytes())
    return digest.hexdigest()


def _confusion_digests(grid):
    """sha256 over alpha in (1, 0.75, 0) and ``grid`` of the confused
    tables' ``probs.tobytes()``, and of ``repr`` of their correlations."""
    tables = hashlib.sha256()
    correlations = hashlib.sha256()
    for alpha in (1.0, 0.75, 0.0):
        for theta1, theta2, eta in grid:
            table = apply_alpha_confusion(joint_table(theta1, theta2, eta), alpha)
            tables.update(table.probs.tobytes())
            correlations.update(repr(correlation_from_table(table)).encode())
    return tables.hexdigest(), correlations.hexdigest()


def test_table_bytes_are_pinned():
    grid = _pinned_grid()
    assert {e == 1.0 for _, _, e in grid} == {True, False}
    assert max(abs(t) for t1, t2, _ in grid for t in (t1, t2)) > 2.0 * math.pi
    assert _table_digest(grid) == TABLE_PIN


#: sha256 over alpha in (1, 0.75, 0) and ``_pinned_grid()`` of the confused
#: tables' ``probs.tobytes()``, and of ``repr`` of their correlations
CONFUSION_PIN = "cf467353ac66489d610a00bf547e8125c19a9ccac95e59e16dbdd2f7e1d8775e"
CORRELATION_PIN = "56152d027fb1cf76fe6cbdbabe9b79bf0377ae9e2be2e673f65892e4d6035042"


def test_confused_table_and_correlation_bytes_are_pinned():
    assert _confusion_digests(_pinned_grid()) == (CONFUSION_PIN, CORRELATION_PIN)


#: the same three digests over the eta = 1 rows of ``_pinned_grid()`` alone:
#: the lossless tables, their confusions and their correlations
LOSSLESS_PINS = (
    "774b8657707955d13459b032f8bd1b1569407939dde82a473e722bb73b913203",
    "439d32fb0758d16894f508132ea50ffb4571330e1597ebc5506a3d60257023d9",
    "ad85233cddb8176059d766779d4a1c37a63704c58282549868611e7de17f69ae",
)


def test_lossless_table_confusion_and_correlation_bytes_are_pinned():
    grid = [row for row in _pinned_grid() if row[2] == 1.0]
    assert len(grid) > 250
    assert (_table_digest(grid), *_confusion_digests(grid)) == LOSSLESS_PINS


def test_network_matrix_is_the_product_of_the_lossless_sparse_stages():
    for theta1, theta2, eta in _pinned_grid():
        cfg = ExperimentConfig(theta1, theta2, eta)
        u = np.eye(2, dtype=complex)
        for stage in cfg.elements()[:2]:
            u = u @ stage.matrix
        assert network_matrix(cfg).tobytes() == u.tobytes()


@pytest.mark.parametrize("eta", (1e-3, 0.37, 0.9, 1.0))
def test_loss_channel_is_column_stochastic(eta):
    m = loss_channel(eta)
    assert m.shape == (6, 6) and np.all(m >= 0.0)
    assert np.max(np.abs(m.sum(axis=0) - 1.0)) <= 1e-15


def test_loss_channel_is_the_identity_at_unit_efficiency():
    assert loss_channel(1.0).tobytes() == np.eye(6).tobytes()


@pytest.mark.parametrize("eta", (1e-3, 0.37, 0.9, 1.0))
def test_loss_channel_pulls_back_the_default_values(eta):
    # the value a class's record reads as on average; E(eta) = eta^2 E(1)
    # + (1 - eta)^2 follows from it
    pulled = loss_channel(eta).T @ np.array(DEFAULT_ASSIGNMENT.a, dtype=float)
    ref = (1 - 2 * eta, 1, 1, eta**2 + (1 - eta) ** 2, 1, (1 - 2 * eta) ** 2)
    assert np.max(np.abs(pulled - ref)) < 1e-15


@pytest.mark.parametrize("theta1, theta2, eta", (
    (0.31, 1.17, 0.8), (math.pi / 4.0, -0.6, 1e-3), (9.5, -13.0, 0.999),
))
def test_lossy_table_is_the_channel_on_the_lossless_table(theta1, theta2, eta):
    m = loss_channel(eta)
    ref = m @ joint_table(theta1, theta2).probs @ m.T
    assert joint_table(theta1, theta2, eta).probs.tobytes() == ref.tobytes()


def test_norm_guard_runs_after_the_loss_channel(monkeypatch):
    # the dense route has no loss stage to check; a channel that makes
    # mass is caught by the norm of the table it returns
    real = detection.loss_channel

    def leaky(eta):
        m = real(eta)
        m[:, 0] *= 1.1
        return m

    monkeypatch.setattr(detection, "loss_channel", leaky)
    joint_table(0.3, 0.2)
    with pytest.raises(RuntimeError, match="norm"):
        joint_table(0.3, 0.2, 0.9)


def test_table_builds_no_mode_transform(monkeypatch):
    optics.beamsplitter_5050()
    built = []
    check = optics.ModeTransform.__post_init__

    def counted(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(optics.ModeTransform, "__post_init__", counted)
    joint_table(0.3, 0.2)
    joint_table(0.3, 0.2, 0.9)
    assert built == []
    # the sparse route still builds and checks its two per-call stages
    ExperimentConfig(0.3, 0.2, 0.9).elements()
    assert len(built) == 2


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
@pytest.mark.parametrize("name", ("theta1", "theta2"))
@pytest.mark.parametrize("route", ("dense", "sparse"))
def test_non_finite_angle_is_named(bad, name, route):
    angles = {"theta1": 0.3, "theta2": 0.2, name: bad}
    if route == "dense":
        build = joint_table
    else:
        build = lambda *args: build_experiment_state(ExperimentConfig(*args))
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        build(angles["theta1"], angles["theta2"], 0.9)


#: (theta1, theta2) for the dense-against-sparse table comparison
ORACLE_ANGLES = (
    (0.31, 1.17),
    (-0.8, -2.9),
    (9.5, -13.0),
    (math.pi / 4.0, 0.6),
    *np.random.default_rng(5).uniform(-4.0 * math.pi, 4.0 * math.pi, (6, 2)),
)

#: cells some pair of photons can reach; classify rules out the rest
REACHABLE_CELLS = {
    classify(OccupationVector.of(m, n)) for m in NETWORK_MODES for n in NETWORK_MODES
}


@pytest.mark.parametrize("eta", (1.0, 0.999, 0.5, 1e-3))
@pytest.mark.parametrize("theta1, theta2", ORACLE_ANGLES)
def test_table_matches_sparse_state_route(theta1, theta2, eta):
    table = joint_table(theta1, theta2, eta)
    state = build_experiment_state(ExperimentConfig(theta1, theta2, eta))
    # at theta1 = pi/4 the sparse route prunes ~1e-32 cells to 0, so the
    # routes agree to the tolerance, not bit for bit
    assert np.max(np.abs(table.probs - table_from_state(state))) < 1e-12
    for i in range(1, 7):
        for j in range(1, 7):
            if (i, j) not in REACHABLE_CELLS:
                assert table.p(i, j) == 0.0


def test_table_does_not_run_the_sparse_algebra(monkeypatch):
    def sparse(*args):
        raise AssertionError("joint_table ran the sparse Fock pipeline")

    monkeypatch.setattr(optics, "apply", sparse)
    monkeypatch.setattr(optics, "build_experiment_state", sparse)
    table = joint_table(0.31, 1.17, 0.8)
    ref = closed_form_lossy_table(0.31, 1.17, 0.8)
    assert np.max(np.abs(table.probs - ref)) < 1e-12


def test_table_keeps_its_guards(monkeypatch):
    for eta in (0.0, -0.5, 1.5, math.nan):
        with pytest.raises(ValueError):
            joint_table(0.3, 0.2, eta)
    with pytest.raises(ValueError):
        joint_table(math.nan, 0.2)
    monkeypatch.setattr(
        detection, "network_matrix", lambda cfg: 1.1 * optics.network_matrix(cfg)
    )
    with pytest.raises(RuntimeError, match="norm"):
        joint_table(0.3, 0.2, 0.9)


def test_lossy_table_one_sided_singles():
    # theta1 = theta2 = 0, eta = 0.9: every one-sided lone-click cell is
    # eta (1 - eta) / 2 = 0.045, summed by hand over the four kets that
    # leave exactly one detectable photon on that side
    table = joint_table(0.0, 0.0, 0.9)
    for cell in ((1, 3), (2, 3), (3, 1), (3, 2)):
        assert abs(table.p(*cell) - 0.045) < 1e-12
    assert abs(table.p(3, 3) - 0.01) < 1e-12


def test_lossy_table_matches_formulas():
    rng = np.random.default_rng(11)
    for _ in range(25):
        t1, t2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
        eta = rng.uniform(0.05, 1.0)
        table = joint_table(t1, t2, eta)
        ref = closed_form_lossy_table(t1, t2, eta)
        assert np.max(np.abs(table.probs - ref)) < 1e-12


def test_lossy_closed_form_at_unit_efficiency_is_the_ideal_one():
    # bit for bit, sign bits included, so `probs` needs one formula route
    rng = np.random.default_rng(17)
    for t1, t2 in rng.uniform(-50.0, 50.0, (2000, 2)):
        lossy = closed_form_lossy_table(t1, t2, 1.0)
        assert lossy.tobytes() == closed_form_ideal_table(t1, t2).tobytes()


def test_lossy_table_detected_sector_scales_with_eta_squared():
    t1, t2, eta = 0.31, 1.17, 0.7
    ideal = joint_table(t1, t2)
    lossy = joint_table(t1, t2, eta)
    detected_cells = [
        (1, 1), (1, 2), (2, 1), (2, 2),
        (4, 3), (5, 3), (6, 3), (3, 4), (3, 5), (3, 6),
    ]
    for cell in detected_cells:
        assert abs(lossy.p(*cell) - eta * eta * ideal.p(*cell)) < 1e-12


def test_ideal_table_symmetries():
    t1, t2 = 0.42, 1.9
    table = joint_table(t1, t2)
    assert abs(table.p(1, 1) - table.p(2, 2)) < 1e-12
    assert abs(table.p(1, 2) - table.p(2, 1)) < 1e-12
    assert abs(table.p(5, 3) - table.p(6, 3)) < 1e-12
    assert abs(table.p(3, 5) - table.p(3, 6)) < 1e-12


def test_alpha_confusion_moves_pair_mass():
    t1 = math.pi / 4.0
    base = joint_table(t1, 0.2)
    confused = apply_alpha_confusion(base, 0.0)
    # all class-6 mass lands in class 1, all class-5 in class 2
    assert confused.p(6, 3) == 0.0
    assert confused.p(5, 3) == 0.0
    assert abs(confused.p(1, 3) - base.p(6, 3)) < 1e-15
    assert abs(confused.p(2, 3) - base.p(5, 3)) < 1e-15
    half = apply_alpha_confusion(base, 0.5)
    assert abs(half.p(6, 3) - 0.5 * base.p(6, 3)) < 1e-15
    assert abs(half.p(1, 3) - 0.5 * base.p(6, 3)) < 1e-15


def test_alpha_confusion_identity_at_one():
    base = joint_table(0.3, 0.9)
    out = apply_alpha_confusion(base, 1.0)
    assert np.max(np.abs(out.probs - base.probs)) == 0.0


def test_alpha_confusion_validation():
    base = joint_table(0.3, 0.9)
    with pytest.raises(ValueError):
        apply_alpha_confusion(base, -0.01)
    with pytest.raises(ValueError):
        apply_alpha_confusion(base, 1.01)
    once = apply_alpha_confusion(base, 0.5)
    with pytest.raises(ValueError):
        apply_alpha_confusion(once, 0.5)


def test_records_layout():
    table = joint_table(0.1, 0.2, 0.8)
    records = table.records()
    assert len(records) == 36
    assert records[0] == {
        "i": 1, "j": 1,
        "theta1": 0.1, "theta2": 0.2, "eta": 0.8, "alpha": 1.0,
        "p": table.p(1, 1),
    }
    # row-major ordering
    assert [r["i"] for r in records[:7]] == [1, 1, 1, 1, 1, 1, 2]
    assert abs(sum(r["p"] for r in records) - 1.0) < 1e-12


@given(
    weights=st.lists(st.floats(0.0, 1.0), min_size=36, max_size=36),
    alpha=st.floats(0.0, 1.0),
)
@settings(max_examples=50)
def test_confusion_preserves_mass_on_any_table(weights, alpha):
    w = np.asarray(weights).reshape(6, 6)
    if w.sum() == 0.0:
        w[0, 0] = 1.0
    w = w / w.sum()
    table = JointProbabilityTable(w, 0.0, 0.0, 1.0, 1.0)
    out = apply_alpha_confusion(table, alpha)
    assert abs(out.total - table.total) < 1e-12
    assert np.all(out.probs >= -1e-15)
