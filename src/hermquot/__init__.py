"""Galois subcovers of the Hermitian curve with group of order p^2.

Constructs three families of quotient curves over F_{q^2}, q = p^h, and
mechanically verifies their point counts, genera, Weierstrass semigroups,
automorphism groups and isomorphism classes at small parameters.
"""

from .autgrp import (
    AffineAlgMap,
    AutGroupTable,
    family_I_group,
    family_II_group,
    family_III_group,
    group_closure,
    map_preserves,
    pgu_stabilizer,
    stabilizer_map,
    subgroup_types,
)
from .gfield import (
    CheckError,
    FieldCtx,
    LinearizedSolver,
    ParameterError,
    find_omega,
    make_field,
)
from .isocls import (
    IsoWitness,
    class_inventory,
    family_I_classify,
    family_I_iso,
    family_II_iso,
    oracle_iso,
)
from .models import (
    CurveModel,
    admissible_b,
    family_I_model,
    family_II_model,
    family_III_model,
    fpp_char2,
    genus_formula,
    hermitian_model,
    subcover_center,
    subcover_noncenter,
    verify_lemma_a,
    verify_lemma_b,
)
from .numsg import NumSemigroup, from_generators, semigroup_at_infinity
from .placecount import (
    PlaceTally,
    affine_points,
    family_III_place_count,
    maximality_check,
    quotient_places_order2,
    rational_places,
)
from .polyring import BiPoly

__version__ = "0.1.0"

__all__ = [
    "AffineAlgMap",
    "AutGroupTable",
    "BiPoly",
    "CheckError",
    "CurveModel",
    "FieldCtx",
    "IsoWitness",
    "LinearizedSolver",
    "NumSemigroup",
    "ParameterError",
    "PlaceTally",
    "admissible_b",
    "affine_points",
    "class_inventory",
    "family_III_place_count",
    "family_I_classify",
    "family_I_group",
    "family_I_iso",
    "family_I_model",
    "family_II_group",
    "family_II_iso",
    "family_II_model",
    "family_III_group",
    "family_III_model",
    "find_omega",
    "fpp_char2",
    "from_generators",
    "genus_formula",
    "group_closure",
    "hermitian_model",
    "make_field",
    "map_preserves",
    "maximality_check",
    "oracle_iso",
    "pgu_stabilizer",
    "quotient_places_order2",
    "rational_places",
    "semigroup_at_infinity",
    "stabilizer_map",
    "subcover_center",
    "subcover_noncenter",
    "subgroup_types",
    "verify_lemma_a",
    "verify_lemma_b",
    "__version__",
]
