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
    Single and composite Hurwitz numbers.
``equivalence``
    The park-morphism search behind park isomorphism and
    ``find_park_involution``, representation equivalence, enumeration.
``cli``
    The ``parkscope`` command-line front end.
"""

import importlib.util
import sys

from .errors import NonRealizableError, ResourceLimitError


def _lazy(name: str):
    """Register submodule ``name`` in ``sys.modules``; its body runs on the
    first attribute access, so a command compiles only what it uses."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


_LAYERS = ("cli", "equivalence", "extraction", "hurwitz", "monodromy", "park", "permgroup")
cli, equivalence, extraction, hurwitz, monodromy, park, permgroup = map(_lazy, _LAYERS)

#: Home submodule of every re-exported name.
_HOME = {
    name: home
    for home, names in {
        "equivalence": "EnumerationResult EquivalenceWitness MonodromyClass ParkIsomorphism"
        " canonical_form enumerate_monodromies find_park_involution monodromy_equivalent"
        " park_isomorphic",
        "extraction": "monodromy_to_park",
        "hurwitz": "park_hurwitz single_hurwitz",
        "monodromy": "MonodromyRep build conjugate_rep genus_from_counts validate_genericity"
        " validate_relations",
        "park": "Alley EntranceSignature Face Garden GardenEdge GardenVertex Involution Park"
        " ParkNode TopSummary euler_characteristic genus type_summary validate_park",
    }.items()
    for name in names.split()
}


def __getattr__(name: str):
    # Runs once per name: the first read loads the home module and binds
    # the name here, so later reads are plain global lookups.  A tool that
    # rebinds a function in its home module must rebind it here too, and a
    # name first read while rebound keeps that binding.  perfbench's tracer
    # rebinds and restores the globals of every parkscope module, this one
    # included, after an untraced pass has read each name it wraps.
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[_HOME[name]], name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME))


__version__ = "0.1.0"

__all__ = sorted({*_HOME, *_LAYERS, "NonRealizableError", "ResourceLimitError"})
