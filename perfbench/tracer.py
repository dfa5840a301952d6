"""Outside-in tracer: wraps hermquot's public functions from outside the package.

Nothing under ``src/`` changes.  ``install()`` replaces each traced function
or method with a wrapper that counts calls and accumulates total and self
time in memory (about ten million calls per acceptance run, so no individual
spans are kept).  Self time is a call's duration minus the time of traced
calls nested inside it, kept with a stack of child-time accumulators.  A
name's total time is only added by its outermost active call, so recursive
calls (``BiPoly.__pow__``) are not counted twice.

A module-level function is patched in every module that holds it under a
by-name import binding (``placecount`` imports ``map_preserves``, ``verify``
imports ``oracle_iso``, ...), so no call escapes through an alias.
"""

from __future__ import annotations

import sys
import time

# (owner module, owner class or None, attribute, metric name)
TARGETS = [
    ("gfield", "FieldCtx", "mul", "gfield.mul"),
    ("gfield", "FieldCtx", "add", "gfield.add"),
    ("gfield", "FieldCtx", "sub", "gfield.add"),
    ("gfield", "FieldCtx", "neg", "gfield.add"),
    ("gfield", "FieldCtx", "scale", "gfield.add"),
    ("gfield", "FieldCtx", "pow", "gfield.pow"),
    ("gfield", "FieldCtx", "frob", "gfield.frob"),
    ("gfield", "LinearizedSolver", "__init__", "gfield.solver_build"),
    ("gfield", "LinearizedSolver", "solve", "gfield.solve"),
    ("polyring", "BiPoly", "substitute", "polyring.substitute"),
    ("polyring", "BiPoly", "pseudo_rem", "polyring.pseudo_rem"),
    ("polyring", "BiPoly", "__mul__", "polyring.mul"),
    ("polyring", "BiPoly", "__add__", "polyring.add"),
    ("polyring", "BiPoly", "__pow__", "polyring.pow"),
    ("polyring", "BiPoly", "evaluate", "polyring.evaluate"),
    ("autgrp", None, "map_preserves", "autgrp.map_preserves"),
    ("autgrp", "AffineAlgMap", "compose", "autgrp.compose"),
    ("autgrp", "AffineAlgMap", "apply", "autgrp.apply"),
    ("autgrp", "AffineAlgMap", "order", "autgrp.order"),
    ("autgrp", None, "group_closure", "autgrp.group_closure"),
    ("autgrp", None, "family_I_group", "autgrp.family_I_group"),
    ("autgrp", None, "family_II_group", "autgrp.family_II_group"),
    ("placecount", None, "maximality_check", "placecount.maximality_check"),
    ("placecount", None, "family_III_place_count", "placecount.family_III_place_count"),
    ("placecount", None, "rational_places", "placecount.rational_places"),
    ("placecount", None, "affine_points", "placecount.affine_points_fn"),
    ("placecount", None, "quotient_places_order2", "placecount.quotient_places_order2"),
    ("isocls", None, "oracle_iso", "isocls.oracle_iso"),
    ("isocls", None, "family_I_iso", "isocls.family_I_iso"),
    ("isocls", None, "class_inventory", "isocls.class_inventory"),
    ("models", None, "hermitian_model", "models.build"),
    ("models", None, "subcover_center", "models.build"),
    ("models", None, "subcover_noncenter", "models.build"),
    ("models", None, "fpp_char2", "models.build"),
    ("models", None, "family_I_model", "models.build"),
    ("models", None, "family_II_model", "models.build"),
    ("models", None, "family_III_model", "models.build"),
    ("models", None, "admissible_b", "models.admissible_b"),
    ("numsg", None, "summary", "numsg.summary"),
]


def _accepted(result, counts):
    if result:
        counts["autgrp.map_preserves.accepted"] += 1


def _closure_size(result, counts):
    counts["autgrp.group_closure.elements"] += len(result)


def _fallbacks(result, counts):
    counts["autgrp.family_I_group.fallback_used"] += result.details["fallback_used"]


def _tally(result, counts):
    counts["placecount.affine_points"] += result.affine_points


def _cover_points(result, counts):
    counts["placecount.affine_points"] += result["affine_cover"]


# outcomes read from return values, keyed by metric name
OUTCOMES = {
    "autgrp.map_preserves": _accepted,
    "autgrp.group_closure": _closure_size,
    "autgrp.family_I_group": _fallbacks,
    "placecount.rational_places": _tally,
    "placecount.affine_points_fn": _tally,
    "placecount.quotient_places_order2": _cover_points,
}

OUTCOME_COUNTS = (
    "autgrp.map_preserves.accepted",
    "autgrp.group_closure.elements",
    "autgrp.family_I_group.fallback_used",
    "placecount.affine_points",
)


class Tracer:
    """Per-name [calls, total_s, self_s] plus outcome counts, all in memory."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.counts = {name: 0 for name in OUTCOME_COUNTS}
        self._stack: list[float] = []
        self._depth: dict[str, int] = {}
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        depth = self._depth
        depth.setdefault(name, 0)
        counts = self.counts
        outcome = OUTCOMES.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            depth[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                depth[name] -= 1
                stats[0] += 1
                stats[2] += dt - child
                if not depth[name]:
                    stats[1] += dt
                if stack:
                    stack[-1] += dt
            if outcome is not None:
                outcome(result, counts)
            return result

        return traced

    def install(self) -> "Tracer":
        import hermquot  # noqa: F401  (loads every submodule)

        modules = [m for key, m in sys.modules.items()
                   if key == "hermquot" or key.startswith("hermquot.")]
        for mod_name, cls_name, attr, metric in TARGETS:
            mod = sys.modules["hermquot." + mod_name]
            if cls_name is None:
                original = getattr(mod, attr)
                wrapped = self.wrap(original, metric)
                for m in modules:
                    self._rebind(m, original, wrapped)
            else:
                cls = getattr(mod, cls_name)
                original = cls.__dict__[attr]
                wrapped = self.wrap(original, metric)
                self._rebind(cls, original, wrapped)
        return self

    def _rebind(self, owner, original, wrapped):
        # every name in the namespace bound to the original, aliases included
        space = vars(owner)
        for key, value in list(space.items()):
            if value is original:
                self._undo.append((owner, key, original))
                setattr(owner, key, wrapped)

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def snapshot(self) -> dict:
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "counts": dict(self.counts),
        }


def merge(snapshots) -> dict:
    """Sum several snapshots, e.g. one per traced CLI process."""
    stats: dict[str, list] = {}
    counts = {name: 0 for name in OUTCOME_COUNTS}
    for snap in snapshots:
        for k, (c, tot, own) in snap["stats"].items():
            s = stats.setdefault(k, [0, 0.0, 0.0])
            s[0] += c
            s[1] += tot
            s[2] += own
        for k, v in snap["counts"].items():
            counts[k] += v
    return {"stats": stats, "counts": counts}

