"""Linear-optics transforms and the interferometer pipeline.

Every stage is a linear map on creation operators,

    a_i^dag  ->  sum_j u[i, j] b_j^dag,

applied term by term to a sparse Fock state whose occupied modes are all
inputs of the stage.  The rows of ``u`` are orthonormal (an isometry),
which keeps the state norm fixed; the loss stage becomes an isometry by
carrying an explicit ancilla mode for each undetected photon.

The sparse pipeline runs in three stages, each over every mode the stage
before it outputs.  First a symmetric beamsplitter merges the
parametric pair,

    a1x^dag -> (i cx^dag + dx^dag) / sqrt(2)
    a2y^dag -> (cy^dag + i dy^dag) / sqrt(2).

Then both polarization analyzers act as one block-diagonal stage, one
rotation per station,

    x^dag -> cos(theta) par^dag + sin(theta) perp^dag
    y^dag -> sin(theta) par^dag - cos(theta) perp^dag.

Last, when eta < 1, one loss channel per detected mode, again as one
block-diagonal stage,

    t^dag -> sqrt(1 - eta) r^dag + sqrt(eta) t^dag.

Each stage's matrix is stated once, and every one is held to
UNITARY_TOLERANCE, each where it is cheapest:

- the beamsplitter is constant, so its full Gram check runs once, when
  ``beamsplitter_5050`` first builds and caches it;
- an analyzer block [[c, s], [s, -c]] and a loss channel's pair
  (sqrt(eta), sqrt(1 - eta)) have rows orthogonal by construction, so
  ``_analyzer_matrix`` and ``_loss_matrix`` check only their one
  remaining defect, |c^2 + s^2 - 1| or |r^2 + q^2 - 1|, on every call;
- each stage's input mode list is the very tuple the stage before it
  outputs, so the stages chain by construction.

``network_matrix`` multiplies the first two into one lossless 2 x 4
matrix, the route ``detection.joint_table`` takes before it applies loss
as a channel on the click classes.  ``ExperimentConfig.elements`` wraps
all three in ``ModeTransform``s, each of which runs the full Gram check
again, and ``build_experiment_state`` runs them on the sparse Fock
state, the independent reference for the dense route and its channel.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .fock import (
    A1X,
    A2Y,
    C_X,
    C_Y,
    DETECTED_MODES,
    D_X,
    D_Y,
    FockState,
    ModeId,
    OccupationVector,
)

#: maximum row-orthonormality defect tolerated at construction
UNITARY_TOLERANCE = 1e-12

#: the modes of the pipeline, in order: the two source beams, the
#: beamsplitter's outputs, DETECTED_MODES behind the analyzers, and the
#: outputs of the sparse loss stage, the detected modes then their loss twins
_SOURCE_MODES = (A1X, A2Y)
_SPLIT_MODES = (C_X, D_X, C_Y, D_Y)
NETWORK_MODES = DETECTED_MODES + tuple(
    ModeId(m.beam, m.channel, lost=True) for m in DETECTED_MODES
)


def check_eta(eta: float) -> None:
    """Reject a detector efficiency outside (0, 1], NaN included."""
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"efficiency must lie in (0, 1], got {eta!r}")


@dataclass(frozen=True)
class ModeTransform:
    """Isometry on creation operators between named mode lists.

    ``matrix[i, j]`` is the amplitude sending input mode i to output
    mode j.  Construction fails unless the rows are orthonormal within
    UNITARY_TOLERANCE, so every transform preserves the state norm.
    """

    input_modes: tuple
    output_modes: tuple
    matrix: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.matrix, dtype=complex)
        if u.shape != (len(self.input_modes), len(self.output_modes)):
            raise ValueError("matrix shape does not match the mode lists")
        u = u.copy()
        u.flags.writeable = False
        # a view of a read-only array cannot be made writeable again, so a
        # shared transform such as the beamsplitter stays constant
        object.__setattr__(self, "matrix", u.view())
        defect = u @ u.conj().T - np.eye(len(self.input_modes))
        if not np.max(np.abs(defect)) <= UNITARY_TOLERANCE:
            raise ValueError("transform rows are not orthonormal")


def _check_unit_pair(a: float, b: float, what: str) -> None:
    """Require a^2 + b^2 = 1 within UNITARY_TOLERANCE for real a, b.

    Rows (a, b) and (b, -a) of an analyzer block, and the row (a I, b I)
    of the loss stage, are orthogonal exactly, so this one defect is
    the whole Gram check of such a block.
    """
    if not abs(a * a + b * b - 1.0) <= UNITARY_TOLERANCE:
        raise ValueError(f"{what} rows are not orthonormal")


@functools.cache
def beamsplitter_5050() -> ModeTransform:
    """Symmetric beamsplitter merging the two source beams.

    It is constant, so it is built and checked once: every call returns
    the same transform, whose matrix is read-only.
    """
    s = 1.0 / math.sqrt(2.0)
    u = np.array(
        [
            [1j * s, s, 0.0, 0.0],
            [0.0, 0.0, s, 1j * s],
        ],
        dtype=complex,
    )
    return ModeTransform(_SOURCE_MODES, _SPLIT_MODES, u)


def _analyzer_matrix(theta1: float, theta2: float) -> np.ndarray:
    """Both analyzers as one 4 x 4 matrix from ``_SPLIT_MODES`` onto
    DETECTED_MODES.

    Rows C_X, C_Y go onto C_PAR, C_PERP through theta1's block
    [[c, s], [s, -c]], rows D_X, D_Y onto D_PAR, D_PERP through theta2's.
    """
    c1, s1 = math.cos(theta1), math.sin(theta1)
    c2, s2 = math.cos(theta2), math.sin(theta2)
    _check_unit_pair(c1, s1, "analyzer")
    _check_unit_pair(c2, s2, "analyzer")
    return np.array(
        [
            [c1, s1, 0.0, 0.0],
            [0.0, 0.0, c2, s2],
            [s1, -c1, 0.0, 0.0],
            [0.0, 0.0, s2, -c2],
        ],
        dtype=complex,
    )


def _loss_matrix(eta: float) -> np.ndarray:
    """One loss channel per detected mode as one 4 x 8 matrix from
    DETECTED_MODES onto NETWORK_MODES: detected mode i goes onto column i
    with weight sqrt(eta) and onto its loss twin, column i + 4, with
    sqrt(1 - eta)."""
    r, q = math.sqrt(eta), math.sqrt(1.0 - eta)
    _check_unit_pair(r, q, "loss")
    return np.kron((r, q), np.eye(len(DETECTED_MODES)))


def apply(transform: ModeTransform, state: FockState) -> FockState:
    """Apply ``transform`` to every term of ``state``.

    Every occupied mode must be one of the transform's inputs, as it is
    when each stage of ``ExperimentConfig.elements`` takes the state the
    stage before it made; any other occupied mode raises ValueError.
    """
    # a monomial is the sorted tuple of its output modes' ranks, so the
    # expansion sorts and hashes plain ints
    ranked = sorted(transform.output_modes, key=ModeId.sort_key)
    rank = {mode: r for r, mode in enumerate(ranked)}
    column_rank = [rank[mode] for mode in transform.output_modes]
    images = {
        mode: [(column_rank[j], w) for j, w in enumerate(row) if w != 0]
        for mode, row in zip(transform.input_modes, transform.matrix.tolist())
    }

    result: dict = {}
    # each output monomial's ket and normalization, built once per call
    kets: dict = {}
    for occ, amp in state.terms.items():
        # operator-product coefficient for the normalized ket
        coeff = amp / math.sqrt(occ.factorial_product())
        expansion = {(): coeff}
        for mode in occ.modes_with_multiplicity():
            if mode not in images:
                raise ValueError(f"occupied mode {mode} is not an input of the transform")
            grown: dict = {}
            for monomial, c in expansion.items():
                for target, w in images[mode]:
                    key = tuple(sorted(monomial + (target,)))
                    grown[key] = grown.get(key, 0j) + c * w
            expansion = grown
        for monomial, c in expansion.items():
            if monomial not in kets:
                counts: dict = {}
                for r in monomial:
                    counts[r] = counts.get(r, 0) + 1
                # the ranks are sorted, so the pairs come out in canonical order
                occ2 = OccupationVector(tuple((ranked[r], n) for r, n in counts.items()))
                kets[monomial] = occ2, math.sqrt(occ2.factorial_product())
            occ2, scale = kets[monomial]
            result[occ2] = result.get(occ2, 0j) + c * scale
    return FockState(result)


@dataclass(frozen=True)
class ExperimentConfig:
    """Analyzer angles (radians) and detector efficiency."""

    theta1: float
    theta2: float
    eta: float = 1.0

    def __post_init__(self):
        for name, value in (("theta1", self.theta1), ("theta2", self.theta2)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        check_eta(self.eta)

    def elements(self) -> list:
        """The pipeline's stages in order, as checked ``ModeTransform``s for
        the sparse route: the beamsplitter, both analyzers and, when
        eta < 1, the loss channels."""
        stages = [
            beamsplitter_5050(),
            ModeTransform(_SPLIT_MODES, DETECTED_MODES,
                          _analyzer_matrix(self.theta1, self.theta2)),
        ]
        if self.eta < 1.0:
            stages.append(ModeTransform(DETECTED_MODES, NETWORK_MODES, _loss_matrix(self.eta)))
        return stages


def build_experiment_state(cfg: ExperimentConfig) -> FockState:
    """Run one photon pair through ``cfg.elements()`` on the sparse Fock state.

    The source term is a1x^dag a2y^dag |0>, the ket |a1x, a2y> with
    amplitude 1.  The overall phase is fixed by the pipeline itself: the
    two-station coincidence amplitudes come out real, e.g. the
    |c par, d par> amplitude is sin(theta1 - theta2) / 2.
    """
    state = FockState({OccupationVector.of(*_SOURCE_MODES): 1.0})
    for t in cfg.elements():
        state = apply(t, state)
    return state


def network_matrix(cfg: ExperimentConfig) -> np.ndarray:
    """The lossless optics of ``build_experiment_state`` as one 2 x 4 isometry.

    Row 0 is the image of a1x^dag and row 1 that of a2y^dag, over the
    columns DETECTED_MODES, at every eta.  It is the product of the first
    two matrices ``cfg.elements()`` wraps, without the wrapping: the
    beamsplitter's was checked when it was cached, the analyzers' are
    checked block by block as they are built.
    """
    return beamsplitter_5050().matrix @ _analyzer_matrix(cfg.theta1, cfg.theta2)
