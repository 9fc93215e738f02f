"""Exact combinatorial invariants of generic real meromorphic functions.

The package models a degree-``d`` covering through permutations of a
two-colored ``2d``-element ground set, validates such representations,
extracts their complete topological invariant (the *park*: two-colored
gardens, entrance/exit nodes, alleys and a global involution), counts
coverings exactly with rational Hurwitz numbers, and compares or
exhaustively enumerates representations and parks.

Submodules
----------
``import parkscope`` runs none of them: each loads on first attribute access.

``permgroup``
    Tuple-based permutations, orbits and two-color helpers.
``monodromy``
    The representation record, defining relations, genericity, counts.
``park``
    The park data model, axiom validation, invariants, serialization.
``extraction``
    Building parks out of representations.
``hurwitz``
    Single and composite Hurwitz numbers, brute-force cross-checks.
``equivalence``
    The park-morphism search behind park isomorphism and
    ``find_park_involution``, representation equivalence, enumeration.
``cli``
    The ``parkscope`` command-line front end.
"""

import importlib.util
import sys

from .errors import InconsistencyError, NonRealizableError, ResourceLimitError


def _lazy(name: str):
    """Register submodule ``name`` in ``sys.modules``; its body runs on the
    first attribute access, so a command compiles only what it uses."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


cli, equivalence, extraction, hurwitz, monodromy, park, permgroup = map(
    _lazy, ("cli", "equivalence", "extraction", "hurwitz", "monodromy", "park", "permgroup")
)

#: Home submodule of every re-exported name.
_HOME = {
    name: home
    for home, names in {
        "equivalence": "ClassificationTable EnumerationResult EquivalenceWitness MonodromyClass"
        " ParkIsomorphism canonical_form classify enumerate_monodromies"
        " find_park_involution monodromy_equivalent park_isomorphic",
        "extraction": "extract_alleys extract_faces extract_gardens extract_nodes"
        " monodromy_to_park",
        "hurwitz": "branch_count interleaving_factor one_part_oracle park_hurwitz"
        " single_hurwitz single_hurwitz_brute",
        "monodromy": "MonodromyRep build conjugate_rep genus_from_counts validate_genericity"
        " validate_relations",
        "park": "Alley EntranceSignature Face Garden GardenEdge GardenVertex Involution Park"
        " ParkNode TopSummary euler_characteristic genus total_degree type_summary"
        " validate_park",
    }.items()
    for name in names.split()
}


def __getattr__(name: str):
    # Resolved on every access, not cached here: a name rebound in its
    # home module (as a tracer does) is seen through the package too.
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME))


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
