"""Local unitary invariants of multipartite quantum states.

Exact dimension counts and Hilbert series for the graded algebra of
LU-invariant polynomials, brute-force orbit and subgroup-census oracles,
and numerical evaluation of the explicit degree-4 and higher invariants
on pure and mixed states.

The exact layers (combinatorics, characters, dimensions, series, the
census and subsets) are pure Python and load with the package.  The
numpy tier, `luinv.invariants` and `luinv.states`, loads on first use:
the first access to one of its names, or to either submodule, imports
both modules together, so `import luinv` alone never imports numpy.
"""

import importlib as _importlib
import types as _types

from .combinatorics import (
    Partition,
    centralizer_order,
    partitions_of,
)
from .characters import (
    ClassFunction,
    inner_product,
    irreducible_character,
    trivial_character,
)
from .dimensions import (
    mixed_dimension,
    restricted_dimension,
    stable_dimension,
    stable_dimension_via_characters,
)
from .errors import ConsistencyError, EnumerationBoundError, IntegralityError
from .free_group_census import conjugation_orbit_count, count_subgroup_classes
from .series import (
    GeneratorCounts,
    PowerSeries,
    euler_exponents,
    expand_euler_product,
    free_generator_count,
    hilbert_series,
)
from .subsets import SubsetMask, all_subsets

__version__ = "0.1.0"

# Public names of the numpy tier, by defining module.
_NUMPY_TIER = {
    "invariants": (
        "InvariantVector",
        "eta",
        "higher_invariant",
        "i_from_j",
        "invariant_I",
        "invariant_I_vector",
        "invariant_J",
        "invariant_J_vector",
        "j_from_i",
        "meyer_wallach",
    ),
    "states": (
        "DensityMatrix",
        "PureState",
        "ghz_state",
        "invariant_space_rank",
        "partial_trace",
        "projector",
        "random_pure_state",
        "read_state_file",
        "write_state_file",
    ),
}
_LAZY = {name for names in _NUMPY_TIER.values() for name in names} | set(_NUMPY_TIER)

__all__ = sorted(
    [
        name
        for name, value in globals().items()
        if not name.startswith("_") and not isinstance(value, _types.ModuleType)
    ]
    + [name for names in _NUMPY_TIER.values() for name in names]
)


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # `invariants` imports `states`, so one import loads the whole tier;
    # importing the submodules binds them on this package as a side effect.
    # `from . import invariants` would re-enter this hook.
    _importlib.import_module(".invariants", __name__)
    for module, names in _NUMPY_TIER.items():
        source = globals()[module]
        for attr in names:
            globals()[attr] = getattr(source, attr)
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | _LAZY)
