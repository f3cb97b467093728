"""Flatness of functors out of a finite category, by several routes.

The definitional test compares the colimit weighted by each virtual limit
against the actual limit of the composite.  The structural tests (left
covering, finitely multicontinuous, finitely fc-continuous, merging
multi-finite limits) express the same property through weak limits,
multilimits, fc-limits and multi-finite limits of the domain.

All functor targets are concrete over a presheaf category: limits are
computed pointwise and regular epimorphisms are pointwise surjections.
Comparison maps are always constructed element by element, never inferred
from cardinalities.

Functors are validated where they enter: a ``ConcreteFunctor`` given by a
caller is checked in full.  Only images of validated functors skip the
check: the conversion of a (validated) ``SetFunctor``, made once per
functor, and the composite of a functor with a diagram in
``composite_limit``.  The comparison maps are natural by construction and
are built unchecked too, as is the weighted colimit of ``is_flat``.

Every route compares against the same limit of ``F∘D``, so each
``ConcreteFunctor`` keeps a memo of what is shared between routes: the
limit cone of ``composite_limit`` keyed by the ``Diagram``, and the
coproduct of a family's images in ``canonical_from_family`` keyed by the
family's object indices.  The memo is set on first use and dies with the
functor; the comparison maps built from it are rebuilt and tested on every
call.

Preservation of a named (co)limit by a set-valued functor
(``preserves_limit``, ``preserves_colimit``, and with them the lex route)
is decided on the finite sets themselves: no conversion, no memo.
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
from .fincat import Cone, Diagram, FiniteCategory, elements_category, is_cofiltered
from . import presheaf as ps
from . import virtlim as vl

POINT_BASE = FiniteCategory.build(("*",), ("1",), (0,), (0,), (0,), ((0,),), name="pt")


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
    """A functor into a full subcategory of presheaves over ``target_base``.

    The functor laws are checked on construction.  ``check=False`` is for
    images of validated functors only (see ``from_set_functor``).
    """

    source: FiniteCategory
    target_base: FiniteCategory
    objects: tuple[ps.Presheaf, ...]
    morphisms: tuple[ps.NatTransformation, ...]
    name: str = field(default="F", compare=False)
    check: bool = field(default=True, compare=False)
    # the shared limits and coproducts, set once by _memo; a class default
    # rather than a field, so that functors never compared carry nothing
    _shared = None

    def __post_init__(self):
        if not self.check:
            return
        ps.check_functor_laws(self.source, self.objects, self.morphisms, "functor")
        base = self.objects[0].base if self.objects else self.target_base
        if base != self.target_base:
            raise ValidationError(f"functor values live over {base.name}, not {self.target_base.name}")

    @classmethod
    def from_set_functor(cls, F: ps.SetFunctor) -> "ConcreteFunctor":
        """The same functor into presheaves on the point, not re-validated:
        a ``SetFunctor`` has already proved the identity and composition
        laws that ``__post_init__`` would check again."""
        objs = tuple(
            ps.Presheaf(POINT_BASE, (F.values[a],), ({x: x for x in F.values[a]},),
                        name=f"{F.name}({F.base.objects[a]})", check=False)
            for a in range(F.base.n_objects)
        )
        mors = tuple(
            ps.NatTransformation(objs[F.base.src[m]], objs[F.base.tgt[m]], (dict(F.actions[m]),), check=False)
            for m in range(F.base.n_morphisms)
        )
        return cls(F.base, POINT_BASE, objs, mors, name=F.name, check=False)


def _as_concrete(F) -> ConcreteFunctor:
    """``F`` as a ``ConcreteFunctor``; a ``SetFunctor`` is converted once and
    the conversion kept on it."""
    if isinstance(F, ConcreteFunctor):
        return F
    if isinstance(F, ps.SetFunctor):
        if F._concrete is None:
            object.__setattr__(F, "_concrete", ConcreteFunctor.from_set_functor(F))
        return F._concrete
    raise ValidationError(f"cannot interpret {type(F).__name__} as a concrete functor")


def _memo(F: ConcreteFunctor) -> dict:
    if F._shared is None:
        object.__setattr__(F, "_shared", {})
    return F._shared


def composite_limit(F: ConcreteFunctor, diagram: Diagram) -> ps.PresheafCone:
    """The pointwise limit of ``F`` composed with a diagram in its source.

    Built once per functor and (equal) diagram and kept in ``F``'s memo, so
    every flatness route on ``F`` reads the same cone.  The composite is not
    re-validated: ``F`` and the diagram's body are both validated (or, for
    ``from_set_functor``, images of a validated functor), and a composite of
    functors is a functor.
    """
    memo = _memo(F)
    lim = memo.get(diagram)
    if lim is None:
        S = diagram.shape
        vertices = tuple(F.objects[diagram.vertex(d)] for d in range(S.n_objects))
        edges = tuple(F.morphisms[diagram.body.morphism_map[s]] for s in range(S.n_morphisms))
        composite = ps.PresheafDiagram(S, vertices, edges, check=False)
        lim = memo[diagram] = ps.limit(composite, base=F.target_base, name=f"lim F{diagram.describe()}")
    return lim


def comparison_from_cone(F: ConcreteFunctor, cone: Cone, lim: ps.PresheafCone) -> ps.NatTransformation:
    """The comparison ``F(apex) -> lim F∘H`` induced by a cone over ``H``."""
    B = F.target_base
    src = F.objects[cone.apex]
    comps = tuple(
        {
            u: tuple(F.morphisms[leg].components[b][u] for leg in cone.legs)
            for u in src.values[b]
        }
        for b in range(B.n_objects)
    )
    return ps.NatTransformation(src, lim.apex, comps, check=False)


def comparison_from_weak_limit(F: ConcreteFunctor, wl: tuple[int, Cone], lim: ps.PresheafCone) -> ps.NatTransformation:
    """The comparison induced by the cone of a weak limit ``(apex, cone)``."""
    return comparison_from_cone(F, wl[1], lim)


def canonical_from_family(
    F: ConcreteFunctor, family: Sequence[tuple[int, Cone]], lim: ps.PresheafCone
) -> ps.NatTransformation:
    """The canonical map from the coproduct of the family's images to the
    limit; the coproduct is kept in ``F``'s memo, keyed by the family's
    object indices."""
    B = F.target_base
    memo = _memo(F)
    key = tuple(c for (c, _) in family)
    cp = memo.get(key)
    if cp is None:
        cp = memo[key] = ps.coproduct(B, [F.objects[c] for c in key])
    comps = []
    for b in range(B.n_objects):
        comp = {}
        for (i, u) in cp.apex.values[b]:
            _, cone = family[i]
            comp[(i, u)] = tuple(F.morphisms[leg].components[b][u] for leg in cone.legs)
        comps.append(comp)
    return ps.NatTransformation(cp.apex, lim.apex, tuple(comps), check=False)


def _sweep(cat: FiniteCategory, diagrams, bound: int = 0):
    if diagrams is not None:
        return list(diagrams)
    if bound > 0:
        return vl.swept_diagrams(cat, bound)
    return vl.generating_diagrams(cat)


# -- the definitional tests ---------------------------------------------------


def is_flat_set_valued(F: ps.SetFunctor, diagrams=None, bound: int = 0) -> FlatVerdict:
    """Definitional flatness for finite-set-valued functors.

    For each swept diagram the colimit weighted by the cone presheaf must
    biject with the actual limit of the composite, through the canonical
    comparison.
    """
    C = F.base
    for diagram in _sweep(C, diagrams, bound):
        v = vl.virtual_limit(C, diagram)
        coend = ps.weighted_colimit(v.weight, F)
        S = diagram.shape
        lim_elems = ps.limit_of_sets(
            S,
            [F.values[diagram.vertex(d)] for d in range(S.n_objects)],
            [F.actions[diagram.body.morphism_map[s]] for s in range(S.n_morphisms)],
        )
        images = {}
        for rep in coend.elements:
            c, w, x = rep
            img = tuple(F.actions[leg][x] for leg in w)
            if img not in lim_elems:
                raise ValidationError("internal: comparison map leaves the limit")
            images[rep] = img
        injective = len(set(images.values())) == len(coend.elements)
        surjective = set(images.values()) == set(lim_elems)
        if not (injective and surjective):
            return FlatVerdict(
                False,
                FailingWeight(
                    diagram.describe(),
                    f"comparison {len(coend.elements)} -> {len(lim_elems)} is not a bijection",
                ),
                "definitional",
            )
    return FlatVerdict(True, None, "definitional")


def is_flat_via_elements(F: ps.SetFunctor) -> FlatVerdict:
    """Flatness via cofilteredness of the category of elements.

    The verdict must agree with the definitional test, and that agreement
    is asserted on every call.
    """
    verdict = is_cofiltered(elements_category(F))
    definitional = is_flat_set_valued(F)
    if bool(verdict) != definitional.flat:
        raise ValidationError(
            "internal: elements-category flatness disagrees with the definitional test"
        )
    failing = None
    if not verdict:
        failing = definitional.failing_weight or FailingWeight("elements", f"{verdict.reason} at {verdict.witness}")
    return FlatVerdict(bool(verdict), failing, "elements")


def weighted_colimit_concrete(W: ps.Presheaf, F: ConcreteFunctor) -> tuple[ps.Presheaf, dict]:
    """Colimit of a concrete functor weighted by a presheaf on its source.

    Computed pointwise over the target base: triples ``(c, w, u)`` with
    ``u`` an element of ``F(c)`` are identified along the usual coend
    relations.  Returns the presheaf together with the class map.
    """
    C, B = F.source, F.target_base
    if W.base != C:
        raise ValidationError("weight must live on the functor's source")
    values, class_of = [], []
    for b in range(B.n_objects):
        reps, cls = ps.coend(W, [M.values[b] for M in F.objects], [t.components[b] for t in F.morphisms])
        values.append(reps)
        class_of.append(cls)
    actions = []
    for f in range(B.n_morphisms):
        a, b = B.src[f], B.tgt[f]
        act = {}
        for (c, w, u) in values[b]:
            act[(c, w, u)] = class_of[a][(c, w, F.objects[c].actions[f][u])]
        actions.append(act)
    out = ps.Presheaf(B, tuple(values), tuple(actions), name=f"({W.name})*({F.name})", check=False)
    return out, {b: class_of[b] for b in range(B.n_objects)}


def is_flat(F, diagrams=None, bound: int = 0) -> FlatVerdict:
    """Definitional flatness for a functor into a concrete target.

    For each swept diagram the weighted colimit of ``F`` by the diagram's
    cone presheaf must map isomorphically onto the pointwise limit of the
    composite.
    """
    F = _as_concrete(F)
    C, B = F.source, F.target_base
    for diagram in _sweep(C, diagrams, bound):
        v = vl.virtual_limit(C, diagram)
        co, class_of = weighted_colimit_concrete(v.weight, F)
        lim = composite_limit(F, diagram)
        comps = []
        for b in range(B.n_objects):
            comp, fiber = {}, set(lim.apex.values[b])
            for (c, w, u) in co.values[b]:
                comp[(c, w, u)] = tuple(F.morphisms[leg].components[b][u] for leg in w)
                if comp[(c, w, u)] not in fiber:
                    raise ValidationError("internal: comparison map leaves the limit")
            comps.append(comp)
        cmp_nat = ps.NatTransformation(co, lim.apex, tuple(comps), check=False)
        if not cmp_nat.is_pointwise_bijective():
            return FlatVerdict(
                False,
                FailingWeight(diagram.describe(), "weighted colimit does not match the limit"),
                "definitional",
            )
    return FlatVerdict(True, None, "definitional")


# -- structural characterizations ---------------------------------------------


def _structural(method: str, F, diagrams, bound: int) -> FlatVerdict:
    """Sweep the domain's diagrams; at each, compare the image of the
    detected virtual-limit family with the actual limit of the composite."""
    detector, missing, comparison, bijective, detail = _STRUCTURAL[method]
    F = _as_concrete(F)
    C = F.source
    for diagram in _sweep(C, diagrams, bound):
        # looked up per call, so a rebinding of the detector or comparison is seen here
        found = getattr(vl, detector)(vl.virtual_limit(C, diagram))
        if found is None:
            raise missing(diagram.describe())
        comp = globals()[comparison](F, found, composite_limit(F, diagram))
        if not (comp.is_pointwise_bijective() if bijective else comp.is_pointwise_surjective()):
            return FlatVerdict(False, FailingWeight(diagram.describe(), detail), method)
    return FlatVerdict(True, None, method)


# method -> (virtlim detector, raised when it finds nothing, comparison map in
#            this module, whether it must be bijective rather than surjective,
#            failure detail); both functions by name
_STRUCTURAL = {
    "covering": ("weak_limit", NoWeakLimit, "comparison_from_weak_limit",
                 False, "weak-limit comparison is not a regular epi"),
    "multi": ("multilimit", NoMultilimit, "canonical_from_family",
              True, "multilimit comparison is not an isomorphism"),
    "fc": ("fc_limit", None, "canonical_from_family",
           False, "fc-family comparison is not a regular epi"),
    "merge": ("multi_finite_limit", NoMultiFiniteLimit, "canonical_from_family",
              True, "multi-finite comparison is not an isomorphism"),
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
    D = cone.diagram
    S = D.shape
    lim = ps.limit_of_sets(
        S,
        [F.values[D.vertex(d)] for d in range(S.n_objects)],
        [F.actions[D.body.morphism_map[s]] for s in range(S.n_morphisms)],
    )
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
