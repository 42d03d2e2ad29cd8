"""Two-photon interferometer simulator and CHSH analyzer."""

from .bell import (
    SETTING_LABELS,
    ChshSettings,
    HomPortProbabilities,
    PsiAngles,
    chsh,
    chsh_combination,
    correlation_closed_form,
    correlation_from_table,
    correlation_via_table,
    hom_port_probabilities,
    table_for,
)
from .detection import (
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
)
from .fock import (
    DETECTED_MODES,
    FockState,
    ModeId,
    OccupationVector,
    norm,
)
from .montecarlo import (
    EmptyEventsError,
    EventBatch,
    EventRecord,
    MissingSettingError,
    MixedSettingsError,
    SamplerConfig,
    estimate_chsh,
    estimate_correlation,
    sample_events,
)
from .optics import (
    ExperimentConfig,
    ModeTransform,
    apply,
    beamsplitter_5050,
    build_experiment_state,
    network_matrix,
)
from .optimize import (
    OptimizationResult,
    ThresholdResult,
    critical_efficiency,
    maximize_chsh,
)

__version__ = "0.1.0"
