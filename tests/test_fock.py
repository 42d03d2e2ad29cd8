import dataclasses
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import biphoton
from biphoton.fock import (
    A1X,
    C_PAR,
    C_PERP,
    D_PAR,
    D_PERP,
    FockState,
    ModeId,
    OccupationVector,
    PhotonCapacityError,
    create,
    norm,
    states_allclose,
    vacuum,
)


def test_vacuum_is_normalized():
    v = vacuum()
    assert abs(norm(v) - 1.0) < 1e-15


def test_single_creation():
    s = create(vacuum(), C_PAR)
    occ = OccupationVector.of(C_PAR)
    assert abs(s.amplitude(occ) - 1.0) < 1e-15
    assert abs(norm(s) - 1.0) < 1e-15


def test_double_creation_carries_bosonic_factor():
    s = create(create(vacuum(), C_PAR), C_PAR)
    occ = OccupationVector.of(C_PAR, C_PAR)
    assert abs(s.amplitude(occ) - math.sqrt(2.0)) < 1e-15


def test_capacity_cap_is_enforced():
    s = create(create(vacuum(), C_PAR), C_PERP)
    with pytest.raises(PhotonCapacityError):
        create(s, D_PAR)


def test_norm_of_zero_expansion():
    assert norm(FockState({})) == 0.0


def test_tiny_amplitudes_are_pruned():
    s = FockState({OccupationVector.of(C_PAR): 1e-16})
    assert s.terms == {}
    kept = FockState({OccupationVector.of(C_PAR): 1e-14})
    assert OccupationVector.of(C_PAR) in kept.terms


def test_occupation_is_order_insensitive():
    one = OccupationVector.of(C_PERP, C_PAR)
    two = OccupationVector.of(C_PAR, C_PERP)
    assert one == two
    assert hash(one) == hash(two)
    assert one.count(C_PAR) == 1
    assert one.total == 2


def test_occupation_rejects_negative_counts():
    with pytest.raises(ValueError):
        OccupationVector.from_counts({C_PAR: -1})


def test_ket_rendering_is_sorted_and_deterministic():
    s = FockState(
        {
            OccupationVector.of(C_PAR, D_PERP): 0.5,
            OccupationVector.of(C_PAR, C_PAR): 0.25j,
        }
    )
    text = str(s)
    assert text == "(0.5+0i)|c∥,d⊥⟩ + (0+0.25i)|2c∥⟩"
    assert str(FockState({})) == "0"
    assert str(vacuum()) == "(1+0i)|∅⟩"


def test_mode_labels():
    assert str(A1X) == "a1x"
    assert str(C_PERP) == "c⊥"
    from biphoton.fock import ModeId

    r = ModeId("c", "par", lost=True)
    assert str(r) == "r(c∥)"
    assert r.station == 1
    assert D_PAR.station == 2


amplitudes = st.complex_numbers(
    max_magnitude=3.0, allow_nan=False, allow_infinity=False
)


@given(a=amplitudes, b=amplitudes)
@settings(max_examples=50)
def test_create_is_linear(a, b):
    s1 = FockState({OccupationVector.of(C_PAR): 1.0})
    s2 = FockState({OccupationVector.of(D_PERP): 1.0})
    lhs = create(a * s1 + b * s2, C_PERP)
    rhs = a * create(s1, C_PERP) + b * create(s2, C_PERP)
    assert states_allclose(lhs, rhs, 1e-12)


@given(
    amps=st.lists(amplitudes.filter(lambda z: abs(z) > 1e-6), min_size=1, max_size=4)
)
@settings(max_examples=50)
def test_probabilities_of_normalized_state_sum_to_one(amps):
    modes = [C_PAR, C_PERP, D_PAR, D_PERP]
    terms = {OccupationVector.of(m): z for m, z in zip(modes, amps)}
    raw = FockState(terms)
    scale = 1.0 / norm(raw)
    state = scale * raw
    total = sum(abs(amp) ** 2 for amp in state.terms.values())
    assert abs(total - 1.0) < 1e-12


def test_equal_modes_and_occupations_hash_equal_however_built():
    lost = ModeId("d", "perp", lost=True)
    modes = [
        lost,
        ModeId("d", "perp", True),
        dataclasses.replace(D_PERP, lost=True),
        dataclasses.replace(ModeId("c", "x", lost=True), beam="d", channel="perp"),
        pickle.loads(pickle.dumps(lost)),
    ]
    for mode in modes:
        assert mode == lost and hash(mode) == hash(lost)
        assert mode.sort_key() == lost.sort_key()
    assert lost != D_PERP and lost.sort_key() != D_PERP.sort_key()

    occ = OccupationVector.of(C_PAR, lost, C_PAR)
    occupations = [
        OccupationVector.of(lost, C_PAR, C_PAR),
        OccupationVector.from_counts({lost: 1, C_PAR: 2, D_PAR: 0}),
        OccupationVector.of(C_PAR).with_added(modes[2]).with_added(C_PAR),
        dataclasses.replace(OccupationVector.of(D_PAR), pairs=occ.pairs),
        pickle.loads(pickle.dumps(occ)),
    ]
    for other in occupations:
        assert other == occ and hash(other) == hash(occ)
        assert {occ: "hit"}[other] == "hit"
    assert OccupationVector.of(C_PAR, lost) != occ


def test_pickled_modes_and_occupations_hash_right_under_another_seed():
    mode = ModeId("d", "perp", lost=True)
    occ = OccupationVector.of(C_PAR, mode, C_PAR)
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    src = str(Path(biphoton.__file__).resolve().parents[1])
    code = (
        f"import pickle, sys; sys.path.insert(0, {src!r})\n"
        "from biphoton.fock import C_PAR, ModeId, OccupationVector\n"
        "mode, occ = pickle.loads(sys.stdin.buffer.read())\n"
        "modes = {ModeId(b, c, lost): 0 for b in ('a1', 'a2', 'c', 'd')\n"
        "         for c in ('x', 'y', 'par', 'perp') for lost in (False, True)}\n"
        "lost = ModeId('d', 'perp', lost=True)\n"
        "occs = {OccupationVector.of(C_PAR, lost, C_PAR): 0, OccupationVector.of(lost): 0}\n"
        "print(mode in modes, occ in occs)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], input=pickle.dumps((mode, occ)),
        capture_output=True, timeout=60, env={**os.environ, "PYTHONHASHSEED": seed},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.decode().split() == ["True", "True"]
