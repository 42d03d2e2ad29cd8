"""Linear-optics transforms and the interferometer pipeline.

Every element is a linear map on creation operators,

    a_i^dag  ->  sum_j u[i, j] b_j^dag,

applied term by term to a sparse Fock state.  The rows of ``u`` are
orthonormal (an isometry), which keeps the state norm fixed; a lossy
element becomes an isometry by carrying an explicit ancilla mode for the
undetected photon.

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
and every loss channel to UNITARY_TOLERANCE.  ``polarizer_rotation`` and
``loss_channel`` build the single elements from the same blocks.

``ExperimentConfig.elements`` lists the stages once.
``build_experiment_state`` runs them on the sparse Fock state;
``network_matrix`` multiplies them into one 2 x 8 matrix taking the two
source modes to the detected modes and their loss twins.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .fock import (
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
    vacuum,
)

#: maximum row-orthonormality defect tolerated at construction
UNITARY_TOLERANCE = 1e-12

#: columns of ``network_matrix``: the detected modes, then their loss twins
NETWORK_MODES = DETECTED_MODES + tuple(
    ModeId(m.beam, m.channel, lost=True) for m in DETECTED_MODES
)


class UnknownModeError(ValueError):
    """Raised when a pass-through mode collides with a transform output."""


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


def _loss_row(eta: float) -> np.ndarray:
    """Loss block [sqrt(1 - eta), sqrt(eta)]: onto the lost twin, then kept."""
    return np.array([math.sqrt(1.0 - eta), math.sqrt(eta)], dtype=complex)


def polarizer_rotation(station: int, theta: float) -> ModeTransform:
    """Two-channel analyzer at ``station`` rotated by ``theta`` radians."""
    if station == 1:
        inputs, outputs = (C_X, C_Y), (C_PAR, C_PERP)
    elif station == 2:
        inputs, outputs = (D_X, D_Y), (D_PAR, D_PERP)
    else:
        raise ValueError(f"station must be 1 or 2, got {station!r}")
    return ModeTransform(inputs, outputs, _rotation(theta))


def loss_channel(mode: ModeId, eta: float) -> ModeTransform:
    """Detector loss on ``mode`` with transmission probability ``eta``.

    The reflected photon lands in the lost twin of ``mode``, so the map
    stays an isometry and the state stays pure.
    """
    check_eta(eta)
    lost = ModeId(mode.beam, mode.channel, lost=True)
    return ModeTransform((mode,), (lost, mode), _loss_row(eta)[np.newaxis])


def _analyzer_stage(theta1: float, theta2: float) -> ModeTransform:
    """Both analyzers as one stage, in the beamsplitter's output order."""
    u = np.zeros((4, 4), dtype=complex)
    u[0::2, :2] = _rotation(theta1)  # rows C_X, C_Y onto C_PAR, C_PERP
    u[1::2, 2:] = _rotation(theta2)  # rows D_X, D_Y onto D_PAR, D_PERP
    return ModeTransform((C_X, D_X, C_Y, D_Y), DETECTED_MODES, u)


def _loss_stage(eta: float) -> ModeTransform:
    """One loss channel per detected mode as one stage onto NETWORK_MODES."""
    lost, kept = _loss_row(eta)
    eye = np.eye(len(DETECTED_MODES))
    return ModeTransform(DETECTED_MODES, NETWORK_MODES,
                         np.hstack([kept * eye, lost * eye]))


def apply(transform: ModeTransform, state: FockState) -> FockState:
    """Apply ``transform`` to every term of ``state``.

    Modes that are not inputs of the transform pass through unchanged.
    A pass-through mode that is also one of the transform's outputs
    would silently alias freshly created photons, so that case raises
    UnknownModeError.
    """
    index = {m: i for i, m in enumerate(transform.input_modes)}
    outputs = transform.output_modes
    u = transform.matrix
    out_set = set(outputs)

    result: dict = {}
    for occ, amp in state.terms.items():
        # operator-product coefficient for the normalized ket
        coeff = amp / math.sqrt(occ.factorial_product())
        expansion = {(): coeff}
        for mode in occ.modes_with_multiplicity():
            if mode in index:
                row = u[index[mode]]
                images = [
                    (outputs[j], row[j]) for j in range(len(outputs)) if row[j] != 0
                ]
            else:
                if mode in out_set:
                    raise UnknownModeError(
                        f"occupied mode {mode} is an output of the transform "
                        "but not one of its inputs"
                    )
                images = [(mode, 1.0 + 0j)]
            grown: dict = {}
            for monomial, c in expansion.items():
                for target, w in images:
                    key = tuple(
                        sorted(monomial + (target,), key=ModeId.sort_key)
                    )
                    grown[key] = grown.get(key, 0j) + c * w
            expansion = grown
        for monomial, c in expansion.items():
            occ2 = OccupationVector.of(*monomial)
            amp2 = c * math.sqrt(occ2.factorial_product())
            result[occ2] = result.get(occ2, 0j) + amp2
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
