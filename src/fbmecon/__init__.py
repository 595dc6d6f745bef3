"""Equilibrium asset pricing with investor protection and path memory.

The package simulates an economy whose output is driven by an approximate
fractional Brownian motion, recovers the memory processes pathwise from
historical log-output data, and computes the full general-equilibrium price
dynamics (holdings, diversion, returns, volatilities, rates) with region
selection, a full-protection benchmark, and comparative-statics sweeps.
"""

from .equilibrium import (
    EquilibriumError,
    EquilibriumResult,
    MarketState,
    PartialPolicies,
    Prices,
    SweepRow,
    benchmark_differences,
    benchmark_equilibrium,
    boundary_equilibrium,
    equilibrium,
    equilibrium_batch,
    partial_policies,
    sweep,
    x_star,
)
from .estimator import (
    ConvergenceReport,
    EulerReference,
    MemoryEstimate,
    classify_memory,
    convergence_study,
    estimate_memory,
    euler_reference,
)
from .params import (
    BASE_PARAMS,
    DerivedParams,
    ModelParams,
    derive_constants,
    load_config,
    params_from_config,
    validate,
)
from .paths import (
    PathBundle,
    TimeGrid,
    kernel_sums,
    memory_exact,
    simulate_brownian,
    simulate_bundle,
    simulate_output,
)

__version__ = "0.1.0"

__all__ = [
    "BASE_PARAMS",
    "ConvergenceReport",
    "DerivedParams",
    "EquilibriumError",
    "EquilibriumResult",
    "EulerReference",
    "MarketState",
    "MemoryEstimate",
    "ModelParams",
    "PartialPolicies",
    "PathBundle",
    "Prices",
    "SweepRow",
    "TimeGrid",
    "benchmark_differences",
    "benchmark_equilibrium",
    "boundary_equilibrium",
    "classify_memory",
    "convergence_study",
    "derive_constants",
    "equilibrium",
    "equilibrium_batch",
    "estimate_memory",
    "euler_reference",
    "kernel_sums",
    "load_config",
    "memory_exact",
    "params_from_config",
    "partial_policies",
    "simulate_brownian",
    "simulate_bundle",
    "simulate_output",
    "sweep",
    "validate",
    "x_star",
]
