"""The public names of the package: the documented services and their types."""

import sys

import fbmecon

#: The submodules whose __all__ the package re-exports; each public name is declared in one of them.
SUBMODULES = ["fbmecon.equilibrium", "fbmecon.estimator", "fbmecon.params", "fbmecon.paths"]

PUBLIC = [
    "BASE_PARAMS",
    "ConvergenceReport",
    "DerivedParams",
    "EquilibriumError",
    "EquilibriumResult",
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
    assert len(PUBLIC) == 34
    assert sorted(fbmecon.__all__) == PUBLIC
    # one owner per name: a name listed by two submodules would shadow one of them
    modules = [sys.modules[name] for name in SUBMODULES]  # fbmecon.equilibrium is the function
    listed = [name for module in modules for name in module.__all__]
    assert len(listed) == len(set(listed))
    assert sorted(listed) == PUBLIC
    for module in modules:
        for name in module.__all__:
            assert getattr(fbmecon, name) is getattr(module, name), (module.__name__, name)
