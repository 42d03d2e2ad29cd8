import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

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
    norm,
)


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
    assert one.pairs == ((C_PAR, 1), (C_PERP, 1))


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


@given(
    amps=st.lists(amplitudes.filter(lambda z: abs(z) > 1e-6), min_size=1, max_size=4)
)
@settings(max_examples=50)
def test_probabilities_of_normalized_state_sum_to_one(amps):
    modes = [C_PAR, C_PERP, D_PAR, D_PERP]
    terms = {OccupationVector.of(m): z for m, z in zip(modes, amps)}
    scale = 1.0 / norm(FockState(terms))
    state = FockState({occ: scale * z for occ, z in terms.items()})
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
        OccupationVector.of(C_PAR, modes[2], C_PAR),
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
