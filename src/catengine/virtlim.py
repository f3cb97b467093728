"""Virtual limits of finite diagrams and their classification.

The virtual limit of a diagram ``H`` is the presheaf of cones over ``H``;
its structure decides whether the diagram has a weak limit, a multilimit,
a finite-family cover (fc-limit), a multi-finite limit, or a polylimit.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Optional

from .errors import ValidationError
from .fincat import (
    Cone,
    Diagram,
    FiniteCategory,
    category_from_arrows,
    empty_diagram,
    pair_diagram,
    parallel_pair_diagram,
)
from . import presheaf as ps


@dataclass(frozen=True, eq=False)
class VirtualLimit:
    diagram: Diagram
    weight: ps.Presheaf
    cone_index: dict  # (object, weight element) -> Cone
    detected: dict = field(default_factory=dict, repr=False)  # detector name -> result

    def __post_init__(self):
        C = self.diagram.target
        n_cones = 0
        for c in range(C.n_objects):
            for w in self.weight.values[c]:
                cone = self.cone_index[(c, w)]
                if cone.apex != c or tuple(cone.legs) != tuple(w):
                    raise ValidationError("cone index out of step with the weight")
                n_cones += 1
        if n_cones != len(self.cone_index):
            raise ValidationError("cone index not a bijection")

    def elements(self) -> list[tuple[int, tuple]]:
        return [
            (c, w)
            for c in range(self.diagram.target.n_objects)
            for w in self.weight.values[c]
        ]

    def arrows(self, e1: tuple[int, tuple], e2: tuple[int, tuple]) -> list[int]:
        """Morphisms ``e1 -> e2`` in the category of elements of the weight."""
        (c1, w1), (c2, w2) = e1, e2
        C = self.diagram.target
        return [f for f in C.hom(c1, c2) if self.weight.actions[f][w2] == w1]

    def components(self) -> list[list[tuple[int, tuple]]]:
        elems = self.elements()
        linked = [
            (e1, e2)
            for i, e1 in enumerate(elems)
            for e2 in elems[i + 1:]
            if self.arrows(e1, e2) or self.arrows(e2, e1)
        ]
        reps, class_of = ps._classes(elems, linked)
        comps: dict = {rep: [] for rep in reps}
        for e in elems:
            comps[class_of[e]].append(e)
        return list(comps.values())


_VL_CACHE: dict[Diagram, VirtualLimit] = {}


def virtual_limit(cat: FiniteCategory, diagram: Diagram) -> VirtualLimit:
    """Compute the cone presheaf of ``diagram``: the limit of the
    representables ``Y(D d)``, read off the composition table.

    Its value at ``c`` is the limit of the hom-sets ``C(c, D d)`` along
    postcomposition (``presheaf.limit_of_sets``: the tuples of legs that
    commute with every non-identity edge, in ``itertools.product`` order),
    and a morphism acts by precomposition -- the values, actions and order
    of ``presheaf.limit`` over the diagram of representables.  Each
    representable is still built through ``presheaf.yoneda``, so a hom-set
    over the fiber cap raises there.

    Results are memoized: the weight does not depend on any functor under
    test, and sweeps revisit the same diagrams constantly.
    """
    if diagram.target != cat:
        raise ValidationError("diagram does not land in the given category")
    out = _VL_CACHE.get(diagram)
    if out is not None:
        return out
    S, table = diagram.shape, cat.table
    vertices = [ps.yoneda(cat, diagram.vertex(d)).values for d in range(S.n_objects)]
    # postcomposition with D(s) is its row of the table
    edges = [table[m] for m in diagram.body.morphism_map]
    values = tuple(
        tuple(ps.limit_of_sets(S, [v[c] for v in vertices], edges)) for c in range(cat.n_objects)
    )
    actions = tuple(
        {tup: tuple(table[leg][f] for leg in tup) for tup in values[cat.tgt[f]]}
        for f in range(cat.n_morphisms)
    )
    weight = ps.Presheaf(cat, values, actions, name=f"lim Y{diagram.describe()}", check=False)
    index = {
        (c, w): Cone(diagram, c, tuple(w))
        for c in range(cat.n_objects)
        for w in weight.values[c]
    }
    out = VirtualLimit(diagram, weight, index)
    _VL_CACHE[diagram] = out
    return out


def weight_elements_category(v: VirtualLimit) -> FiniteCategory:
    """The weight's category of elements, materialized and re-validated.

    Arrows point the factorization way: ``(c,w) -> (c',w')`` is a base
    morphism carrying the cone ``w'`` back onto ``w``.
    """
    from .fincat import elements_category, opposite
    from .presheaf import presheaf_as_covariant

    return opposite(elements_category(presheaf_as_covariant(v.weight)))


def _per_limit(detector):
    """Compute ``detector(v)`` once per virtual limit and store it on ``v``.

    A detector's answer depends on the weight alone, and ``virtual_limit``
    hands back the same object for the same diagram.  Callers get the
    stored result itself and must not mutate it.
    """

    name = detector.__name__

    @functools.wraps(detector)
    def memoised(v: VirtualLimit):
        if name not in v.detected:
            v.detected[name] = detector(v)
        return v.detected[name]

    return memoised


@_per_limit
def weak_limit(v: VirtualLimit) -> Optional[tuple[int, Cone]]:
    """An object whose representable covers the weight, with its cone."""
    C = v.diagram.target
    for c in range(C.n_objects):
        for w in v.weight.values[c]:
            t = ps.classifying_nat(v.weight, c, w)
            if t.is_pointwise_surjective():
                return c, v.cone_index[(c, w)]
    return None


@_per_limit
def multilimit(v: VirtualLimit) -> Optional[list[tuple[int, Cone]]]:
    """The finite family through which every cone factors uniquely, if any.

    Present exactly when every connected component of the weight's category
    of elements has a terminal element; the result is verified against the
    coproduct of the corresponding representables.
    """
    C = v.diagram.target
    family = []
    for comp in v.components():
        terminal = None
        for t in comp:
            if all(len(v.arrows(e, t)) == 1 for e in comp):
                terminal = t
                break
        if terminal is None:
            return None
        family.append(terminal)
    cover = ps.coproduct(C, [ps.yoneda(C, c) for (c, _) in family]).apex
    if ps.find_iso(v.weight, cover) is None:
        raise ValidationError("internal: multilimit family does not cover the weight")
    return [(c, v.cone_index[(c, w)]) for (c, w) in family]


@_per_limit
def fc_limit(v: VirtualLimit) -> list[tuple[int, Cone]]:
    """A minimum-size family of cones jointly covering every cone; of those,
    the first in element order, as ascending index tuples compare.

    Write ``j <= i`` when the cone ``j`` factors through the cone ``i``
    (``below[i]`` holds every such ``j``).  Arrows compose, so this is a
    preorder, and a family covers exactly when every element lies below a
    member.  ``i`` is maximal when everything above it is also below it.
    In a finite preorder every element lies below a maximal one, and an
    element above a maximal one is in its class, so a family covers exactly
    when it meets every maximal class: a minimum family takes one element
    of each.  The least element of each class gives the first such family,
    since any other choice is, once sorted, componentwise larger.
    """
    C, W = v.diagram.target, v.weight
    elems = v.elements()
    index = {e: i for i, e in enumerate(elems)}
    below = [
        {index[(b, W.actions[f][w])] for b in range(C.n_objects) for f in C.hom(b, c)}
        for (c, w) in elems
    ]
    above = [[] for _ in elems]
    for i, b in enumerate(below):
        for j in b:
            above[j].append(i)
    chosen, hit = [], set()
    for i in range(len(elems)):
        if i not in hit and all(j in below[i] for j in above[i]):
            chosen.append(i)
            hit |= below[i]
    if len(hit) != len(elems):
        raise ValidationError("internal: the full family of cones must cover itself")
    return [(elems[i][0], v.cone_index[elems[i]]) for i in chosen]


def multi_finite_limit(v: VirtualLimit) -> Optional[list[tuple[int, Cone]]]:
    """The multilimit when it exists as a finite family.

    On a finite base every multilimit family is finite; that coincidence is
    re-checked here rather than assumed.
    """
    family = multilimit(v)
    if family is None:
        return None
    if len(family) > v.weight.total_size():
        raise ValidationError("internal: multilimit family cannot exceed the cone count")
    return family


@dataclass(frozen=True)
class PolyMember:
    obj: int
    cone: Cone
    automorphisms: tuple[int, ...]


@_per_limit
def polylimit(v: VirtualLimit) -> Optional[list[PolyMember]]:
    """A family with factorizations unique up to unique automorphism.

    Each component of the weight's category of elements must contain an
    element ``t`` reached by every element, whose automorphism group acts
    freely and transitively on the arrows into ``t``.
    """
    C = v.diagram.target
    isos = C.isos()
    out = []
    for comp in v.components():
        chosen = None
        for t in comp:
            auts = [f for f in v.arrows(t, t) if f in isos]
            ok = True
            for e in comp:
                homs = v.arrows(e, t)
                if not homs:
                    ok = False
                    break
                for h in homs:
                    orbit = [C.table[g][h] for g in auts]
                    if len(set(orbit)) != len(orbit) or set(orbit) != set(homs):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                chosen = (t, tuple(auts))
                break
        if chosen is None:
            return None
        (c, w), auts = chosen
        out.append(PolyMember(c, v.cone_index[(c, w)], auts))
    return out


# -- diagram sweeps ----------------------------------------------------------


def generating_diagrams(cat: FiniteCategory) -> list[Diagram]:
    """Empty, distinct-parallel-pair and binary-pair diagrams.

    Parallel pairs come before products so that a category failing both
    reports the sharper equalizer-style witness first.  The sweep is built
    once per category and kept in ``cat._cache``; each call returns a fresh
    list.
    """
    if "generating_diagrams" not in cat._cache:
        out = [empty_diagram(cat)]
        for (u, u2) in cat.parallel_pairs():
            out.append(parallel_pair_diagram(cat, u, u2))
        for a in range(cat.n_objects):
            for b in range(a, cat.n_objects):
                out.append(pair_diagram(cat, a, b))
        cat._cache["generating_diagrams"] = tuple(out)
    return list(cat._cache["generating_diagrams"])


def _free_dag_category(n: int, edges: tuple[tuple[int, int], ...]) -> FiniteCategory:
    # a morphism is a path (start, end, edge indices), shortest paths first
    paths = [(i, i, ()) for i in range(n)]
    frontier = paths
    while frontier:
        frontier = [
            (start, j, es + (k,)) for (start, end, es) in frontier for k, (i, j) in enumerate(edges) if i == end
        ]
        paths = paths + frontier
    cat, _ = category_from_arrows(
        [f"n{i}" for i in range(n)], paths, [()] * n,
        lambda g, f: f[2] + g[2],
        ["1_n%d" % i if not es else "e" + "".join(map(str, es)) + f"@n{i}" for (i, _, es) in paths],
        f"dag{n}:{edges}",
    )
    return cat


_DAG_SHAPES: dict[int, list[FiniteCategory]] = {}


def dag_shapes(bound: int) -> list[FiniteCategory]:
    """Free categories on acyclic multigraphs with at most ``bound`` nodes/edges."""
    if bound in _DAG_SHAPES:
        return _DAG_SHAPES[bound]
    shapes = []
    for n in range(1, bound + 1):
        slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for mults in itertools.product(range(3), repeat=len(slots)):
            if sum(mults) > bound:
                continue
            edges = tuple(
                slot for slot, m in zip(slots, mults) for _ in range(m)
            )
            shapes.append(_free_dag_category(n, edges))
    _DAG_SHAPES[bound] = shapes
    return shapes


def diagrams_of_shape(shape: FiniteCategory, cat: FiniteCategory) -> list[Diagram]:
    from .fincat import enumerate_functors

    return [Diagram(shape, fd) for fd in enumerate_functors(shape, cat)]


def swept_diagrams(cat: FiniteCategory, bound: int) -> list[Diagram]:
    """The generating diagrams plus every diagram on a small free shape.

    Kept per bound in ``cat._cache``, like ``generating_diagrams``.
    """
    key = ("swept_diagrams", bound)
    if key not in cat._cache:
        out = generating_diagrams(cat)
        for shape in dag_shapes(bound):
            out.extend(diagrams_of_shape(shape, cat))
        cat._cache[key] = tuple(out)
    return list(cat._cache[key])


# -- completeness classification ---------------------------------------------

MODES = ("weak", "multi", "multifinite", "fc", "poly")


def _detect(mode: str, v: VirtualLimit) -> tuple[bool, object]:
    if mode == "weak":
        r = weak_limit(v)
        return r is not None, r
    if mode == "multi":
        r = multilimit(v)
        return r is not None, r
    if mode == "multifinite":
        r = multi_finite_limit(v)
        return r is not None, r
    if mode == "fc":
        return True, fc_limit(v)
    if mode == "poly":
        r = polylimit(v)
        return r is not None, r
    raise ValidationError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class CompletenessReport:
    category: str
    mode: str
    bound: int
    passed: bool
    witness: Optional[str]
    records: tuple = field(default=(), compare=False)

    def to_json(self) -> dict:
        return {
            "category": self.category,
            "mode": self.mode,
            "bound": self.bound,
            "passed": self.passed,
            "witness": self.witness,
            "records": [
                {"diagram": d, "ok": ok, "family_size": size} for (d, ok, size) in self.records
            ],
        }


def classify_completeness(cat: FiniteCategory, mode: str, bound: int = 0) -> CompletenessReport:
    """Run one virtual-limit detector over the generating diagrams.

    The headline verdict comes from the empty, pair and parallel-pair
    diagrams, which generate all finite limits; with ``bound > 0`` every
    diagram on a free shape of that size is swept as well.
    """
    diagrams = swept_diagrams(cat, bound) if bound > 0 else generating_diagrams(cat)
    records = []
    passed, witness = True, None
    for diagram in diagrams:
        v = virtual_limit(cat, diagram)
        ok, data = _detect(mode, v)
        size = len(data) if isinstance(data, list) else (1 if data else 0)
        records.append((diagram.describe(), ok, size))
        if not ok and passed:
            passed, witness = False, diagram.describe()
    return CompletenessReport(cat.name, mode, bound, passed, witness, tuple(records))
