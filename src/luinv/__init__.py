"""Local unitary invariants of multipartite quantum states.

Exact dimension counts and Hilbert series for the graded algebra of
LU-invariant polynomials, brute-force orbit and subgroup-census oracles,
and numerical evaluation of the explicit degree-4 and higher invariants
on pure and mixed states.

`import luinv` loads no layer.  Each public name, or submodule, imports
its module on first access and is then bound on the package.  The numpy
tier, `luinv.invariants` and `luinv.states` with the exact layers of the
rank oracle, `luinv.dimensions` and `luinv.free_group_census`, loads as
one: the first access to any of its names imports all four together.
"""

import importlib as _importlib

__version__ = "0.1.0"

# Public names, by defining module.
_EXPORTS = {
    "combinatorics": ("Partition", "centralizer_order", "partitions_of"),
    "characters": ("ClassFunction", "inner_product", "irreducible_character", "trivial_character"),
    "dimensions": (
        "mixed_dimension", "restricted_dimension", "stable_dimension",
        "stable_dimension_via_characters",
    ),
    "errors": ("ConsistencyError", "EnumerationBoundError", "IntegralityError"),
    "free_group_census": ("conjugation_orbit_count", "count_subgroup_classes"),
    "series": (
        "GeneratorCounts", "PowerSeries", "euler_exponents", "expand_euler_product",
        "free_generator_count", "hilbert_series",
    ),
    "subsets": ("SubsetMask", "all_subsets"),
    "invariants": (
        "InvariantVector", "eta", "higher_invariant", "i_from_j", "invariant_I",
        "invariant_I_vector", "invariant_J", "invariant_J_vector", "j_from_i", "meyer_wallach",
    ),
    "states": (
        "DensityMatrix", "PureState", "ghz_state", "invariant_space_rank", "partial_trace",
        "projector", "random_pure_state", "read_state_file", "write_state_file",
    ),
}
# Loaded and bound as one: `invariants` imports `states`, and the rank
# oracle in `states` imports `dimensions` and `free_group_census` when it
# runs.  The benchmark's library set-up touches only `luinv.states`, so the
# tier must bring every layer it calls in with it, for two reasons: its
# tracer wraps only the modules loaded by then, so a layer loaded later is
# never counted, and its timed round must import nothing, or the import's
# time lands in whichever call first needs the layer.
_NUMPY_TIER = ("invariants", "states", "dimensions", "free_group_census")
_HOME = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for module in _NUMPY_TIER if home in _NUMPY_TIER else (home,):
        # Importing a submodule binds it on this package as a side effect;
        # a relative import statement would re-enter this hook.
        source = _importlib.import_module(f".{module}", __name__)
        globals().update((attr, getattr(source, attr)) for attr in _EXPORTS[module])
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | set(_HOME))
