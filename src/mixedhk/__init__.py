"""Mixed stubborn-averaging (Hegselmann-Krause) opinion dynamics toolkit."""

from .dynamics import (
    ModelConfig,
    OpinionState,
    StubbornnessSchedule,
    averaging_matrix,
    neighbor_matrix,
    schedule_alpha,
    step,
)
from .errors import (
    ConfigError,
    IntegrityError,
    MixedHKError,
    NumericalFailure,
    ScheduleExhaustedError,
    SizeLimitError,
)
from .matching import MatchedForm, match_decomposition, verify_decomposition
from .monitors import (
    Checker,
    check_trajectory,
    consensus_envelope_check,
    contraction_coefficient,
    interaction_equivalence,
    settling_bounds,
)
from .profile import (
    EquilibriumVerdict,
    Profile,
    build_profile,
    check_delta_equilibrium,
    detect_merge_events,
    diameter,
    hull_distance,
)
from .simulate import simulate
from .spectral import (
    UpdateFactorization,
    check_cheeger,
    cheeger_constant,
    eigh,
    eigvalsh,
    is_generalized_laplacian,
    lambda2_chain_check,
    laplacian,
    update_factorization,
)
from .trajectory import Trajectory
from .batch import batch_run
from .config import config_to_text, parse_config, parse_config_text, read_initial_csv
from .scenarios import SCENARIOS, run_scenario
from .trajio import read_trajectory, write_trajectory

__version__ = "0.1.0"
