"""Local unitary invariants of multipartite quantum states.

Exact dimension counts and Hilbert series for the graded algebra of
LU-invariant polynomials, brute-force orbit and subgroup-census oracles,
and numerical evaluation of the explicit degree-4 and higher invariants
on pure and mixed states.
"""

from .combinatorics import (
    Partition,
    centralizer_order,
    partitions_of,
)
from .characters import (
    ClassFunction,
    conjugation_character,
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
from .invariants import (
    InvariantVector,
    eta,
    higher_basis_vector,
    higher_invariant,
    i_from_j,
    invariant_I,
    invariant_I_vector,
    invariant_J,
    invariant_J_vector,
    j_from_i,
    meyer_wallach,
)
from .series import (
    GeneratorCounts,
    PowerSeries,
    euler_exponents,
    expand_euler_product,
    free_generator_count,
    hilbert_series,
)
from .states import (
    DensityMatrix,
    PureState,
    apply_local_unitaries,
    bell_state,
    ghz_state,
    invariant_space_rank,
    partial_trace,
    permutation_contraction,
    product_state,
    projector,
    purify,
    random_density_matrix,
    random_pure_state,
    random_unitary,
    read_state_file,
    write_state_file,
)
from .subsets import SubsetMask, all_subsets

__version__ = "0.1.0"
