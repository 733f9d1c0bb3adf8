"""formstab: internal stability of leader-follower formations of linear
systems over acyclic digraphs — criterion, controller synthesis, and
closed-loop trajectory verification."""

from .controllers import (
    ControllerSet,
    FollowerController,
    assemble_controller,
    control_input,
    controller_from_dict,
    controller_to_dict,
    load_controller,
    save_controller,
)
from .criterion import (
    CriterionReport,
    check,
    classify,
    verify_controller,
)
from .errors import (
    CertificateError,
    ConvergenceFailure,
    FormationValidationError,
    FormstabError,
    MissingStateError,
    NonFiniteStateError,
    NotSiblingParentsError,
    NotStabilizableError,
    NotStableError,
    RateTooAggressive,
    StepTooLargeError,
    SynthesisFailure,
    TraceWriteError,
)
from .linalg import (
    DEFAULT_TOLERANCES,
    ExpEnvelope,
    HurwitzReport,
    LinearSolveReport,
    Tolerances,
    controllability_matrix,
    eigenvalues,
    exp_envelope,
    is_hurwitz,
    is_stabilizable,
    matrix_rank,
    solve_matrix_equation,
    spectral_abscissa,
    stabilize,
)
from .model import (
    AgentDynamics,
    Edge,
    FormationSpec,
    LevelDecomposition,
    decompose,
    find_multi_leader_witness,
    formation_from_dict,
    formation_to_dict,
    load_formation,
    save_formation,
    split_components,
    validate,
    weak_components,
)
from .pairwise import PairwiseReport, analyze_pairs, cross_compare
from .simulation import (
    ConstantSignal,
    EnvelopeFit,
    LeaderSignal,
    PiecewiseConstantSignal,
    SimulationTrace,
    SinusoidSignal,
    ZeroSignal,
    chain_residual,
    error_dynamics_check,
    fit_envelope,
    ideal_initial_states,
    simulate,
    write_trace_csv,
)
from .synthesis import (
    PARENT_ONLY,
    UNIFORM,
    SplitStrategy,
    state_only_controller,
    enumerate_family,
    synthesize,
)

__version__ = "0.1.0"
