"""Simulation toolkit contrasting distinguishability-based and
measurement-based witnesses of quantum memory effects."""

from .qcore import (
    InvariantViolation,
    NumericalDriftError,
    PAULI_OPS,
    kron,
    lindblad_superoperator,
    matrix_exp,
    partial_trace,
    trace_distance,
)
from .models import (
    BipartiteModel,
    ClassicalMixtureModel,
    Collision,
    DepolarizingModel,
    EnvJump,
    QuantumBystanderModel,
    StochasticEnvModel,
    UnitaryModel,
    assemble_generator,
    born_markov_model,
    check_bystander,
    commuting_interaction_preset,
    exchange_preset,
    interaction_commutes,
    load_model,
    random_unitary_decomposition,
    save_model,
    sine_modulation,
)
from .evolve import (
    ChannelCoefficients,
    PropagatorCache,
    TimeGrid,
    adiabatic_weight,
    coherent_weight_series,
    depolarizing_weight,
    propagate,
    solve_channel_coefficients,
    stationary_populations,
    trace_distance_factor,
)
from .witness import (
    CpfResult,
    MeasurementSpec,
    RandomSchemePolicy,
    TdTrace,
    cpf_correlation,
    cpf_equal_times,
    cpf_grid,
    cpf_joint_deterministic,
    cpf_joint_random,
    markov_factorization_gap,
    reference_measurements,
    trace_distance_bound,
    trace_distance_series,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
