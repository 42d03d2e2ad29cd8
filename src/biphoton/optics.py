"""Linear-optics transforms and the interferometer pipeline.

Every stage is a linear map on creation operators,

    a_i^dag  ->  sum_j u[i, j] b_j^dag,

applied term by term to a sparse Fock state whose occupied modes are all
inputs of the stage.  The rows of ``u`` are orthonormal (an isometry),
which keeps the state norm fixed; the loss stage becomes an isometry by
carrying an explicit ancilla mode for each undetected photon.

The pipeline runs in three stages, each one checked ``ModeTransform``
over every mode the stage before it outputs.  First a symmetric
beamsplitter merges the parametric pair,

    a1x^dag -> (i cx^dag + dx^dag) / sqrt(2)
    a2y^dag -> (cy^dag + i dy^dag) / sqrt(2).

Then both polarization analyzers act as one block-diagonal stage, one
rotation per station,

    x^dag -> cos(theta) par^dag + sin(theta) perp^dag
    y^dag -> sin(theta) par^dag - cos(theta) perp^dag.

Last, when eta < 1, one loss channel per detected mode, again as one
block-diagonal stage,

    t^dag -> sqrt(1 - eta) r^dag + sqrt(eta) t^dag.

A block-diagonal stage's Gram matrix is the block-diagonal of its
blocks' Gram matrices, so its one isometry check holds every analyzer
and every loss channel to UNITARY_TOLERANCE.

``ExperimentConfig.elements`` lists the stages once, and is the only
way to build them.  ``build_experiment_state`` runs them on the sparse
Fock state; ``network_matrix`` multiplies them into one 2 x 8 matrix
taking the two source modes to the detected modes and their loss twins.
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
    create,
    vacuum,
)

#: maximum row-orthonormality defect tolerated at construction
UNITARY_TOLERANCE = 1e-12

#: columns of ``network_matrix``: the detected modes, then their loss twins
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
        if not self.is_unitary(UNITARY_TOLERANCE):
            raise ValueError("transform rows are not orthonormal")

    def is_unitary(self, tol: float = UNITARY_TOLERANCE) -> bool:
        gram = self.matrix @ self.matrix.conj().T
        return bool(
            np.max(np.abs(gram - np.eye(len(self.input_modes)))) <= tol
        )


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
    return ModeTransform((A1X, A2Y), (C_X, D_X, C_Y, D_Y), u)


def _rotation(theta: float) -> np.ndarray:
    """Analyzer block: rows x, y onto columns par, perp."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [s, -c]], dtype=complex)


def _analyzer_stage(theta1: float, theta2: float) -> ModeTransform:
    """Both analyzers as one stage, in the beamsplitter's output order."""
    u = np.zeros((4, 4), dtype=complex)
    u[0::2, :2] = _rotation(theta1)  # rows C_X, C_Y onto C_PAR, C_PERP
    u[1::2, 2:] = _rotation(theta2)  # rows D_X, D_Y onto D_PAR, D_PERP
    return ModeTransform((C_X, D_X, C_Y, D_Y), DETECTED_MODES, u)


def _loss_stage(eta: float) -> ModeTransform:
    """One loss channel per detected mode as one stage onto NETWORK_MODES."""
    eye = np.eye(len(DETECTED_MODES))
    return ModeTransform(DETECTED_MODES, NETWORK_MODES,
                         np.hstack([math.sqrt(eta) * eye, math.sqrt(1.0 - eta) * eye]))


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
        check_eta(self.eta)

    def elements(self) -> list:
        """The pipeline's stages in order, walked by both routes: the
        beamsplitter, both analyzers and, when eta < 1, the loss channels."""
        stages = [beamsplitter_5050(), _analyzer_stage(self.theta1, self.theta2)]
        if self.eta < 1.0:
            stages.append(_loss_stage(self.eta))
        return stages


def build_experiment_state(cfg: ExperimentConfig) -> FockState:
    """Run one photon pair through ``cfg.elements()`` on the sparse Fock state.

    The source term is a1x^dag a2y^dag |0>.  The overall phase is fixed
    by the pipeline itself: the two-station coincidence amplitudes come
    out real, e.g. the |c par, d par> amplitude is sin(theta1 - theta2) / 2.
    """
    state = create(create(vacuum(), A1X), A2Y)
    for t in cfg.elements():
        state = apply(t, state)
    return state


def network_matrix(cfg: ExperimentConfig) -> np.ndarray:
    """The pipeline of ``build_experiment_state`` as one 2 x 8 isometry.

    Row 0 is the image of a1x^dag and row 1 that of a2y^dag, over the
    columns NETWORK_MODES.  It is the product of the matrices of
    ``cfg.elements()``, each of which has passed its isometry check.  A
    stage must take exactly the modes, in order, that the one before it
    outputs, or ValueError is raised.  At eta = 1 the pipeline ends on
    the detected modes and the loss-twin columns are zero.
    """
    modes, u = (A1X, A2Y), np.eye(2, dtype=complex)
    for t in cfg.elements():
        if t.input_modes != modes:
            raise ValueError(f"stage inputs {t.input_modes} do not chain "
                             f"onto the modes {modes}")
        modes, u = t.output_modes, u @ t.matrix
    if modes != NETWORK_MODES[:len(modes)]:
        raise ValueError(f"pipeline ends on {modes}, not on the network modes")
    out = np.zeros((2, len(NETWORK_MODES)), dtype=complex)
    out[:, :len(modes)] = u
    return out
