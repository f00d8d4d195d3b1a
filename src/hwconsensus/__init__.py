"""Deterministic simulation and verification toolkit for output consensus of
networked single-input single-output block-oriented nonlinear systems under a
distributed root-seeking controller with expanding truncations.

Quick start::

    from hwconsensus import builtin_case, run, full_verification
    result = run(builtin_case(1), master_seed=7)
    print(result.summary)
"""

from .analysis import (
    AuxiliarySequences,
    ConsensusPoint,
    RecursionCheck,
    RunMetrics,
    TrajectoryLog,
    TruncationTimes,
    build_auxiliary,
    check_window_bound,
    consensus_metrics,
    consensus_point,
    full_verification,
    gain_roots,
    lyapunov_v,
    m_of,
    noise_decomposition,
    regression_g,
    truncation_times,
    verify_centralized_recursion,
)
from .controller import Schedule, advance
from .errors import (
    BracketFailure,
    IdentityViolation,
    IncompleteLog,
    NonFiniteValue,
    RootSolverFailure,
    StepNotLogged,
    ValidationError,
)
from .graph import Ranks, Topology, build_topology, diameter, is_connected, laplacian
from .harness import (
    AgentSpec,
    ControllerSpec,
    RunResult,
    Scenario,
    batch,
    builtin_case,
    directed_pairs,
    load_run,
    load_scenario,
    run,
    save_run,
    scenario_from_dict,
    scenario_hash,
    scenario_to_dict,
    summarize,
    validate_scenario,
)
from .noise import NoiseSpec, make_noise_spec
from .plant import (
    AgentPlant,
    Nonlinearity,
    Polynomial,
    StabilityReport,
    StateSpaceRealization,
    StaticGain,
    build_state_space,
    check_stability,
    eval_at_one,
    make_nonlinearity,
    make_plant,
    poly,
    static_gain,
    steady_state_check,
    step,
    step_state_space,
    steps,
    warm_plant,
)

__version__ = "0.1.0"
