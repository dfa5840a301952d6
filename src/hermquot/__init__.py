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
