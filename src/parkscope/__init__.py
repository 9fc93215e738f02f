"""Exact combinatorial invariants of generic real meromorphic functions.

The package models a degree-``d`` covering through permutations of a
two-colored ``2d``-element ground set, validates such representations,
extracts their complete topological invariant (the *park*: two-colored
gardens, entrance/exit nodes, alleys and a global involution), counts
coverings exactly with rational Hurwitz numbers, and compares or
exhaustively enumerates representations and parks.

Submodules
----------
``permgroup``
    Tuple-based permutations, orbits and two-color helpers.
``monodromy``
    The representation record, defining relations, genericity, counts.
``park``
    The park data model, axiom validation, invariants, serialization,
    and the park-morphism search.
``extraction``
    Building parks out of representations; ``find_park_involution``,
    the park-morphism search from a park to itself with colors swapped.
``hurwitz``
    Single and composite Hurwitz numbers, brute-force cross-checks.
``equivalence``
    Park isomorphism (the park-morphism search between two parks),
    representation equivalence, enumeration.
``cli``
    The ``parkscope`` command-line front end.
"""

from . import cli, equivalence, extraction, hurwitz, monodromy, park, permgroup
from .equivalence import (
    ClassificationTable,
    EnumerationResult,
    EquivalenceWitness,
    MonodromyClass,
    ParkIsomorphism,
    canonical_form,
    classify,
    enumerate_monodromies,
    monodromy_equivalent,
    park_isomorphic,
)
from .errors import InconsistencyError, NonRealizableError, ResourceLimitError
from .extraction import (
    extract_alleys,
    extract_faces,
    extract_gardens,
    extract_nodes,
    find_park_involution,
    monodromy_to_park,
)
from .hurwitz import (
    branch_count,
    interleaving_factor,
    one_part_oracle,
    park_hurwitz,
    single_hurwitz,
    single_hurwitz_brute,
)
from .monodromy import (
    MonodromyRep,
    build,
    conjugate_rep,
    genus_from_counts,
    validate_genericity,
    validate_relations,
)
from .park import (
    Alley,
    EntranceSignature,
    Face,
    Garden,
    GardenEdge,
    GardenVertex,
    Involution,
    Park,
    ParkNode,
    TopSummary,
    euler_characteristic,
    genus,
    total_degree,
    type_summary,
    validate_park,
)

__version__ = "0.1.0"

__all__ = [
    "Alley",
    "ClassificationTable",
    "EntranceSignature",
    "EnumerationResult",
    "EquivalenceWitness",
    "Face",
    "Garden",
    "GardenEdge",
    "GardenVertex",
    "InconsistencyError",
    "Involution",
    "MonodromyClass",
    "MonodromyRep",
    "NonRealizableError",
    "Park",
    "ParkIsomorphism",
    "ParkNode",
    "ResourceLimitError",
    "TopSummary",
    "branch_count",
    "build",
    "canonical_form",
    "classify",
    "cli",
    "conjugate_rep",
    "enumerate_monodromies",
    "equivalence",
    "euler_characteristic",
    "extract_alleys",
    "extract_faces",
    "extract_gardens",
    "extract_nodes",
    "extraction",
    "find_park_involution",
    "genus",
    "genus_from_counts",
    "hurwitz",
    "interleaving_factor",
    "monodromy",
    "monodromy_equivalent",
    "monodromy_to_park",
    "one_part_oracle",
    "park",
    "park_hurwitz",
    "park_isomorphic",
    "permgroup",
    "single_hurwitz",
    "single_hurwitz_brute",
    "total_degree",
    "type_summary",
    "validate_genericity",
    "validate_park",
    "validate_relations",
]
