"""The public names of the package: the documented services and their types."""

import fbmecon

PUBLIC = [
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


def test_public_surface_is_pinned():
    # a name added to or dropped from __all__ must be added or dropped here too
    assert len(PUBLIC) == 35
    assert sorted(fbmecon.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(fbmecon, name) is not None
