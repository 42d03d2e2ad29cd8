"""Sparse Fock states for a two-photon interferometer.

A state is a sparse map from occupation vectors to complex amplitudes.
The experiment never holds more than two photons, so every state stays
small: 10 kets without loss, 36 with it.  Kets are normalized:
``optics.apply`` writes an output monomial with occupations n_m as
sqrt(prod n_m!) times its ket, which is where two photons in one mode
get their bosonic factor sqrt(2).
"""

import math
from dataclasses import dataclass, field


#: amplitudes at or below this magnitude are dropped when states are built
PRUNE_TOLERANCE = 1e-15

_BEAM_ORDER = {"a1": 0, "a2": 1, "c": 2, "d": 3}
_CHANNEL_ORDER = {"x": 0, "y": 1, "par": 2, "perp": 3}
_CHANNEL_LABEL = {"x": "x", "y": "y", "par": "∥", "perp": "⊥"}


@dataclass(frozen=True)
class ModeId:
    """One optical mode: a beam line plus a polarization channel.

    Beams "a1" and "a2" are the source beams entering the beamsplitter;
    "c" and "d" are the output beams watched by stations 1 and 2.
    Channels "x" and "y" are lab-frame polarizations, "par" and "perp"
    the analyzer frame behind a polarizer.  ``lost=True`` marks the
    reflected, undetected twin introduced by a loss channel; it refers
    to the detected mode with the same beam and channel.
    """

    beam: str
    channel: str
    lost: bool = False
    # the sort key, all bools and ints, and its hash: both are computed
    # once, and neither depends on the interpreter's string-hash seed, so
    # the hash a pickled mode carries stays valid in any process
    _key: tuple = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.beam not in _BEAM_ORDER:
            raise ValueError(f"unknown beam {self.beam!r}")
        if self.channel not in _CHANNEL_ORDER:
            raise ValueError(f"unknown channel {self.channel!r}")
        key = (self.lost, _BEAM_ORDER[self.beam], _CHANNEL_ORDER[self.channel])
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __hash__(self) -> int:
        return self._hash

    @property
    def station(self) -> int:
        """Station index, 1 or 2, that owns this beam."""
        return 1 if self.beam in ("a1", "c") else 2

    def sort_key(self):
        # detected modes sort before ancillas so kets render detector-first
        return self._key

    @property
    def label(self) -> str:
        name = f"{self.beam}{_CHANNEL_LABEL[self.channel]}"
        return f"r({name})" if self.lost else name

    def __str__(self) -> str:
        return self.label


A1X = ModeId("a1", "x")
A2Y = ModeId("a2", "y")
C_X = ModeId("c", "x")
C_Y = ModeId("c", "y")
D_X = ModeId("d", "x")
D_Y = ModeId("d", "y")
C_PAR = ModeId("c", "par")
C_PERP = ModeId("c", "perp")
D_PAR = ModeId("d", "par")
D_PERP = ModeId("d", "perp")

#: analyzer-frame modes feeding detectors, station 1 then station 2
DETECTED_MODES = (C_PAR, C_PERP, D_PAR, D_PERP)


@dataclass(frozen=True)
class OccupationVector:
    """Photon counts per mode, canonically ordered and hashable.

    ``pairs`` holds (mode, count) with count >= 1, sorted by the mode
    ordering, so equal occupations compare and hash equal and can key
    the sparse state dictionary.
    """

    pairs: tuple = ()
    # computed once from the modes' hashes, so it is as seed-free as theirs
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(self.pairs))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def from_counts(cls, counts) -> "OccupationVector":
        items = [(m, int(n)) for m, n in dict(counts).items() if n != 0]
        for _, n in items:
            if n < 0:
                raise ValueError("negative occupation")
        items.sort(key=lambda p: p[0]._key)
        return cls(tuple(items))

    @classmethod
    def of(cls, *modes: ModeId) -> "OccupationVector":
        counts: dict = {}
        for m in modes:
            counts[m] = counts.get(m, 0) + 1
        return cls.from_counts(counts)

    def modes_with_multiplicity(self):
        """Yield each occupied mode, repeated by its count."""
        for m, n in self.pairs:
            for _ in range(n):
                yield m

    def factorial_product(self) -> int:
        """Product of n! over all occupied modes (ket normalization factor)."""
        out = 1
        for _, n in self.pairs:
            out *= math.factorial(n)
        return out

    def __str__(self) -> str:
        if not self.pairs:
            return "∅"
        parts = []
        for m, n in self.pairs:
            parts.append(m.label if n == 1 else f"{n}{m.label}")
        return ",".join(parts)


def _fmt_amplitude(z: complex) -> str:
    re, im = z.real, z.imag
    return f"({re:.6g}{im:+.6g}i)"


@dataclass(frozen=True, eq=False)
class FockState:
    """Sparse superposition over occupation vectors.

    The constructor merges nothing (callers pass a dict) but drops any
    amplitude with magnitude <= PRUNE_TOLERANCE so near-zero debris from
    cancellations never accumulates.
    """

    terms: dict

    def __post_init__(self):
        pruned = {
            occ: complex(amp)
            for occ, amp in self.terms.items()
            if abs(amp) > PRUNE_TOLERANCE
        }
        object.__setattr__(self, "terms", pruned)

    def amplitude(self, occ: OccupationVector) -> complex:
        return self.terms.get(occ, 0j)

    def items(self):
        return self.terms.items()

    def __str__(self) -> str:
        """Deterministic sorted ket list, e.g. ``(0.5+0i)|c∥,d⊥>``."""
        if not self.terms:
            return "0"
        entries = sorted(
            self.terms.items(),
            key=lambda kv: tuple((m.sort_key(), n) for m, n in kv[0].pairs),
        )
        return " + ".join(
            f"{_fmt_amplitude(amp)}|{occ}⟩" for occ, amp in entries
        )


def norm(state: FockState) -> float:
    """Euclidean norm; 0 for the empty expansion."""
    return math.sqrt(sum(abs(a) ** 2 for a in state.terms.values()))

