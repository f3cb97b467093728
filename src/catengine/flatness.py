"""Flatness of functors out of a finite category, by several routes.

The definitional test compares the colimit weighted by each virtual limit
against the actual limit of the composite.  The structural tests (left
covering, finitely multicontinuous, finitely fc-continuous, merging
multi-finite limits) express the same property through weak limits,
multilimits, fc-limits and multi-finite limits of the domain.

All functor targets are concrete over a presheaf category, where limits,
weighted colimits and comparison maps are computed pointwise.  So every
route decides fiber by fiber, on finite sets: a comparison is an
isomorphism when it is bijective on every fiber of the target base, and a
regular epimorphism when it is surjective on every fiber.  A ``SetFunctor``
is one fiber; a ``ConcreteFunctor`` has one per object of its target base
(``_fibers``).  Comparison maps are always computed element by element,
never inferred from cardinalities, and no presheaf is built for them.

Every ``ConcreteFunctor`` is checked in full on construction.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import (
    NoMultiFiniteLimit,
    NoMultilimit,
    NoWeakLimit,
    ValidationError,
)
from .fincat import POINT_SHAPE, Cone, Diagram, FiniteCategory, elements_category, is_cofiltered
from . import presheaf as ps
from . import virtlim as vl


@dataclass(frozen=True)
class FailingWeight:
    diagram: str
    detail: str

    def to_json(self) -> dict:
        return {"diagram": self.diagram, "detail": self.detail}


@dataclass(frozen=True)
class FlatVerdict:
    flat: bool
    failing_weight: Optional[FailingWeight]
    method: str

    def __bool__(self) -> bool:
        return self.flat

    def to_json(self) -> dict:
        return {
            "flat": self.flat,
            "method": self.method,
            "failing_weight": self.failing_weight.to_json() if self.failing_weight else None,
        }


@dataclass(frozen=True, eq=False)
class ConcreteFunctor:
    """A functor into a full subcategory of presheaves over ``target_base``;
    the functor laws are checked on construction."""

    source: FiniteCategory
    target_base: FiniteCategory
    objects: tuple[ps.Presheaf, ...]
    morphisms: tuple[ps.NatTransformation, ...]
    name: str = field(default="F", compare=False)

    def __post_init__(self):
        ps.check_functor_laws(self.source, self.objects, self.morphisms, "functor")
        base = self.objects[0].base if self.objects else self.target_base
        if base != self.target_base:
            raise ValidationError(f"functor values live over {base.name}, not {self.target_base.name}")

    @classmethod
    def from_set_functor(cls, F: ps.SetFunctor) -> "ConcreteFunctor":
        """The same functor into presheaves on the point."""
        objs = tuple(
            ps.Presheaf(POINT_SHAPE, (F.values[a],), ({x: x for x in F.values[a]},),
                        name=f"{F.name}({F.base.objects[a]})", check=False)
            for a in range(F.base.n_objects)
        )
        mors = tuple(
            ps.NatTransformation(objs[F.base.src[m]], objs[F.base.tgt[m]], (dict(F.actions[m]),), check=False)
            for m in range(F.base.n_morphisms)
        )
        return cls(F.base, POINT_SHAPE, objs, mors, name=F.name)


def _fibers(F) -> tuple[FiniteCategory, list[tuple[Sequence, Sequence[dict]]]]:
    """The source of ``F`` and, for each object of its target base, the
    value sets of ``F`` there, one per source object, and the maps between
    them, one per source morphism; a ``SetFunctor`` has a single fiber."""
    if isinstance(F, ConcreteFunctor):
        return F.source, [
            (tuple(M.values[b] for M in F.objects), tuple(t.components[b] for t in F.morphisms))
            for b in range(F.target_base.n_objects)
        ]
    if isinstance(F, ps.SetFunctor):
        return F.base, [(F.values, F.actions)]
    raise ValidationError(f"cannot interpret {type(F).__name__} as a concrete functor")


def _composite_limit(diagram: Diagram, values: Sequence, maps: Sequence[dict]) -> list[tuple]:
    """The limit of a diagram composed with one fiber of a functor."""
    S = diagram.shape
    return ps.limit_of_sets(
        S,
        [values[diagram.vertex(d)] for d in range(S.n_objects)],
        [maps[diagram.body.morphism_map[s]] for s in range(S.n_morphisms)],
    )


def _sweep(cat: FiniteCategory, diagrams, bound: int = 0):
    if diagrams is not None:
        return list(diagrams)
    if bound > 0:
        return vl.swept_diagrams(cat, bound)
    return vl.generating_diagrams(cat)


# -- the definitional tests ---------------------------------------------------


def is_flat(F, diagrams=None, bound: int = 0) -> FlatVerdict:
    """Definitional flatness of a set-valued or concrete functor.

    For each swept diagram the weighted colimit of ``F`` by the diagram's
    cone presheaf must map isomorphically onto the pointwise limit of the
    composite: on every fiber, the coend classes ``(c, w, u)`` must biject
    with the limit through ``u -> (F(leg)(u) for leg in w)``.
    """
    C, fibers = _fibers(F)
    for diagram in _sweep(C, diagrams, bound):
        weight = vl.virtual_limit(C, diagram).weight
        bijective = True
        for values, maps in fibers:
            reps, _ = ps.coend(weight, values, maps)
            lim = set(_composite_limit(diagram, values, maps))
            images = {tuple(maps[leg][u] for leg in w) for (_, w, u) in reps}
            if not images <= lim:
                raise ValidationError("internal: comparison map leaves the limit")
            bijective = bijective and len(reps) == len(images) == len(lim)
        if not bijective:
            return FlatVerdict(
                False,
                FailingWeight(diagram.describe(), "weighted colimit does not match the limit"),
                "definitional",
            )
    return FlatVerdict(True, None, "definitional")


def is_flat_set_valued(F: ps.SetFunctor, diagrams=None, bound: int = 0) -> FlatVerdict:
    """Definitional flatness of a finite-set-valued functor: ``is_flat``."""
    return is_flat(F, diagrams, bound)


def is_flat_via_elements(F: ps.SetFunctor) -> FlatVerdict:
    """Flatness via cofilteredness of the category of elements.

    The verdict must agree with the definitional test, and that agreement
    is asserted on every call.
    """
    verdict = is_cofiltered(elements_category(F))
    definitional = is_flat(F)
    if bool(verdict) != definitional.flat:
        raise ValidationError(
            "internal: elements-category flatness disagrees with the definitional test"
        )
    return FlatVerdict(bool(verdict), definitional.failing_weight, "elements")


# -- structural characterizations ---------------------------------------------


def _structural(method: str, F, diagrams, bound: int) -> FlatVerdict:
    """Sweep the domain's diagrams; at each, map the values of the detected
    virtual-limit family into the actual limit of the composite through the
    cone legs, fiber by fiber, and test the map onto (and one-to-one)."""
    detector, missing, bijective, detail = _STRUCTURAL[method]
    C, fibers = _fibers(F)
    for diagram in _sweep(C, diagrams, bound):
        # looked up per call, so a rebinding of the detector is seen here
        found = getattr(vl, detector)(vl.virtual_limit(C, diagram))
        if found is None:
            raise missing(diagram.describe())
        family = [found] if detector == "weak_limit" else found  # a weak limit is one cone
        for values, maps in fibers:
            images = [tuple(maps[leg][u] for leg in cone.legs) for (c, cone) in family for u in values[c]]
            hit = set(images)
            if hit != set(_composite_limit(diagram, values, maps)) or (bijective and len(hit) != len(images)):
                return FlatVerdict(False, FailingWeight(diagram.describe(), detail), method)
    return FlatVerdict(True, None, method)


# method -> (virtlim detector, by name; raised when it finds nothing; whether
#            the comparison must be bijective rather than surjective; failure
#            detail)
_STRUCTURAL = {
    "covering": ("weak_limit", NoWeakLimit, False, "weak-limit comparison is not a regular epi"),
    "multi": ("multilimit", NoMultilimit, True, "multilimit comparison is not an isomorphism"),
    "fc": ("fc_limit", None, False, "fc-family comparison is not a regular epi"),
    "merge": ("multi_finite_limit", NoMultiFiniteLimit, True, "multi-finite comparison is not an isomorphism"),
}


def left_covering(F, diagrams=None, bound: int = 0) -> FlatVerdict:
    """Each weak limit's comparison into the actual limit must be regular epi."""
    return _structural("covering", F, diagrams, bound)


def finitely_multicontinuous(F, diagrams=None, bound: int = 0) -> FlatVerdict:
    """The multilimit family's canonical map must be an isomorphism."""
    return _structural("multi", F, diagrams, bound)


def fc_continuous(F, diagrams=None, bound: int = 0) -> FlatVerdict:
    """The minimal fc-family's canonical map must be a regular epi."""
    return _structural("fc", F, diagrams, bound)


def merges_multi_finite(F, diagrams=None, bound: int = 0) -> FlatVerdict:
    """The multi-finite limit family's canonical map must be an isomorphism."""
    return _structural("merge", F, diagrams, bound)


# -- lexness of set-valued functors (for lex domains) --------------------------


def preserves_limit(F: ps.SetFunctor, cone: Cone) -> bool:
    """Does ``F`` send the given limiting cone to a limit in finite sets?

    The limit of the image diagram is computed from scratch and the
    canonical map from ``F(apex)`` checked bijective, as ``preserves_colimit``
    does for colimits.
    """
    lim = _composite_limit(cone.diagram, F.values, F.actions)
    images = [tuple(F.actions[leg][u] for leg in cone.legs) for u in F.values[cone.apex]]
    return len(set(images)) == len(images) and set(images) == set(lim)


def preserves_colimit(F: ps.SetFunctor, cocone) -> bool:
    """Does ``F`` send the given colimiting cocone to a colimit in finite sets?

    The colimit of the image diagram is recomputed from scratch and the
    canonical map onto ``F(apex)`` checked bijective.
    """
    D = cocone.diagram
    S = D.shape
    _, class_of = ps.colimit_of_sets(
        S,
        [F.values[D.vertex(d)] for d in range(S.n_objects)],
        [F.actions[D.body.morphism_map[s]] for s in range(S.n_morphisms)],
    )
    image_of: dict = {}
    for (d, x), rep in class_of.items():
        y = F.actions[cocone.legs[d]][x]
        if image_of.setdefault(rep, y) != y:
            return False
    images = list(image_of.values())
    return len(set(images)) == len(images) and set(images) == set(F.values[cocone.apex])


def is_lex_set_valued(F: ps.SetFunctor, diagrams=None, bound: int = 0) -> FlatVerdict:
    """Preservation of the (assumed existing) generating limits of the domain.

    Raises if some swept diagram has no limit in the domain; intended for
    categories that are already lex.
    """
    from .fincat import limit_in_category

    C = F.base
    for diagram in _sweep(C, diagrams, bound):
        cone = limit_in_category(diagram)
        if cone is None:
            raise NoWeakLimit(diagram.describe())
        if not preserves_limit(F, cone):
            return FlatVerdict(
                False, FailingWeight(diagram.describe(), "limit not preserved"), "lex"
            )
    return FlatVerdict(True, None, "lex")
