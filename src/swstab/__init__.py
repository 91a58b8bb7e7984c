"""Simulation and numerical stability certification for switched NLTV systems."""

from .core import (
    BlowUpError,
    ChatteringError,
    Covering,
    CoveringError,
    DomainError,
    DynamicsError,
    ParameterError,
    PolicyError,
    RelaxedControl,
    SwitchedSystem,
    SwitchingSignal,
    SwstabError,
    Trajectory,
    active_index_set,
    signal_to_control,
    trivial_covering,
)
from .integrate import IntegratorConfig, simulate, simulate_relaxed, simulate_with_covering
from .signals import (
    MeasureConstraint,
    PatternConstraint,
    gen_arbitrary,
    gen_measure_constrained,
    gen_pattern,
    validate_covering_invariance,
    validate_measure,
    validate_pattern,
)
from .lyapunov import (
    CheckReport,
    IntegralBoundParams,
    LyapunovCertificate,
    check_decrease_along,
    check_integral_bound,
    check_sandwich,
)
from .limiting import (
    FalsifierVerdict,
    ReducedLimitingSystem,
    ZeroingCandidate,
    build_reduced,
    check_control_constraint,
    output_residual,
    simulate_reduced,
    wzsd_falsify,
)
from .stability import StabilityEnvelope, classify, estimate_envelope
from .systems import REGISTRY, RegistryEntry, get_entry, make_driver

__version__ = "0.1.0"
