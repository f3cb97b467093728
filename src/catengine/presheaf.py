"""Finite-set-valued presheaves and covariant functors on a finite category.

This is the computational model of the presheaf category: pointwise
(co)limits, coends, image factorizations, natural-transformation search and
isomorphism testing.  Value sets are plain tuples of hashable labels;
actions are dictionaries.  Every quotient picks the least element in
insertion order as representative so all outputs are reproducible.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Iterator, Optional, Sequence

from .errors import FiberCapExceeded, ValidationError
from .fincat import FiniteCategory, FunctorData, opposite

FIBER_CAP = 64


def _check_fibers(values, cap, where):
    for fiber in values:
        if len(fiber) > cap:
            raise FiberCapExceeded(len(fiber), cap, where)
        if len(set(fiber)) != len(fiber):
            raise ValidationError(f"duplicate elements in a value set {where}")


@dataclass(frozen=True, eq=False)
class Presheaf:
    """Contravariant finite-set-valued functor on ``base``.

    ``actions[f]`` for ``f: a -> b`` maps the value set at ``b`` to the one
    at ``a``.
    """

    base: FiniteCategory
    values: tuple[tuple[Hashable, ...], ...]
    actions: tuple[dict, ...]
    name: str = field(default="M", compare=False)
    cap: int = field(default=FIBER_CAP, compare=False)

    def __post_init__(self):
        C = self.base
        if len(self.values) != C.n_objects or len(self.actions) != C.n_morphisms:
            raise ValidationError("presheaf tables sized wrong")
        _check_fibers(self.values, self.cap, f"in presheaf {self.name}")
        for f in range(C.n_morphisms):
            act, dom, cod = self.actions[f], self.values[C.tgt[f]], set(self.values[C.src[f]])
            if set(act.keys()) != set(dom) or any(y not in cod for y in act.values()):
                raise ValidationError(f"action of {C.morphisms[f]} is not a map of the right fibers")
        for a in range(C.n_objects):
            e = C.identity[a]
            if any(self.actions[e][x] != x for x in self.values[a]):
                raise ValidationError(f"identity action at {C.objects[a]} is not the identity")
        for g in range(C.n_morphisms):
            for f in range(C.n_morphisms):
                c = C.table[g][f]
                if c >= 0:
                    for x in self.values[C.tgt[g]]:
                        if self.actions[c][x] != self.actions[f][self.actions[g][x]]:
                            raise ValidationError(
                                f"contravariant functoriality fails at ({C.morphisms[g]}, {C.morphisms[f]})"
                            )

    def at(self, a: int) -> tuple:
        return self.values[a]

    def apply(self, f: int, x):
        return self.actions[f][x]

    def total_size(self) -> int:
        return sum(len(v) for v in self.values)

    def fiber_sizes(self) -> tuple[int, ...]:
        return tuple(len(v) for v in self.values)


@dataclass(frozen=True, eq=False)
class SetFunctor:
    """Covariant finite-set-valued functor on ``base``.

    ``actions[f]`` for ``f: a -> b`` maps the value set at ``a`` to the one
    at ``b``.
    """

    base: FiniteCategory
    values: tuple[tuple[Hashable, ...], ...]
    actions: tuple[dict, ...]
    name: str = field(default="F", compare=False)
    cap: int = field(default=FIBER_CAP, compare=False)

    def __post_init__(self):
        C = self.base
        if len(self.values) != C.n_objects or len(self.actions) != C.n_morphisms:
            raise ValidationError("functor tables sized wrong")
        _check_fibers(self.values, self.cap, f"in functor {self.name}")
        for f in range(C.n_morphisms):
            act, dom, cod = self.actions[f], self.values[C.src[f]], set(self.values[C.tgt[f]])
            if set(act.keys()) != set(dom) or any(y not in cod for y in act.values()):
                raise ValidationError(f"action of {C.morphisms[f]} is not a map of the right fibers")
        for a in range(C.n_objects):
            e = C.identity[a]
            if any(self.actions[e][x] != x for x in self.values[a]):
                raise ValidationError(f"identity action at {C.objects[a]} is not the identity")
        for g in range(C.n_morphisms):
            for f in range(C.n_morphisms):
                c = C.table[g][f]
                if c >= 0:
                    for x in self.values[C.src[f]]:
                        if self.actions[c][x] != self.actions[g][self.actions[f][x]]:
                            raise ValidationError(
                                f"covariant functoriality fails at ({C.morphisms[g]}, {C.morphisms[f]})"
                            )

    def at(self, a: int) -> tuple:
        return self.values[a]

    def apply(self, f: int, x):
        return self.actions[f][x]

    def total_size(self) -> int:
        return sum(len(v) for v in self.values)

    def as_presheaf(self) -> Presheaf:
        """The same data viewed contravariantly on the opposite base."""
        return Presheaf(opposite(self.base), self.values, self.actions, name=self.name)


def presheaf_as_covariant(M: Presheaf) -> SetFunctor:
    return SetFunctor(opposite(M.base), M.values, M.actions, name=M.name)


def constant_set_functor(base: FiniteCategory, elements: Sequence = ("*",), name=None) -> SetFunctor:
    elements = tuple(elements)
    return SetFunctor(
        base,
        tuple(elements for _ in range(base.n_objects)),
        tuple({x: x for x in elements} for _ in range(base.n_morphisms)),
        name=name or f"const{len(elements)}",
    )


def constant_presheaf(base: FiniteCategory, elements: Sequence = ("*",), name=None) -> Presheaf:
    elements = tuple(elements)
    return Presheaf(
        base,
        tuple(elements for _ in range(base.n_objects)),
        tuple({x: x for x in elements} for _ in range(base.n_morphisms)),
        name=name or f"const{len(elements)}",
    )


def set_functor_from_functor_data(fd: FunctorData, decode) -> SetFunctor:
    """Reify a functor into the bounded finite-set skeleton as a SetFunctor."""
    C = fd.source
    sizes = [decode[fd.target.identity[fd.object_map[a]]][0] for a in range(C.n_objects)]
    values = tuple(tuple(range(k)) for k in sizes)
    actions = []
    for m in range(C.n_morphisms):
        _, _, t = decode[fd.morphism_map[m]]
        actions.append({i: t[i] for i in range(len(t))})
    return SetFunctor(C, values, tuple(actions))


@dataclass(frozen=True, eq=False)
class NatTransformation:
    source: Presheaf
    target: Presheaf
    components: tuple[dict, ...]
    check: bool = field(default=True, compare=False)

    def __post_init__(self):
        if not self.check:
            return
        M, N, C = self.source, self.target, self.source.base
        if N.base != C:
            raise ValidationError("natural transformation between presheaves on different bases")
        if len(self.components) != C.n_objects:
            raise ValidationError("one component per object required")
        for a in range(C.n_objects):
            comp, cod = self.components[a], set(N.values[a])
            if set(comp.keys()) != set(M.values[a]) or any(y not in cod for y in comp.values()):
                raise ValidationError(f"component at {C.objects[a]} is not a map of the right fibers")
        for f in range(C.n_morphisms):
            a, b = C.src[f], C.tgt[f]
            for x in M.values[b]:
                if self.components[a][M.actions[f][x]] != N.actions[f][self.components[b][x]]:
                    raise ValidationError(f"naturality fails at {C.morphisms[f]}")

    def apply(self, a: int, x):
        return self.components[a][x]

    def key(self) -> tuple:
        """Canonical hashable form, used to identify equal transformations."""
        return tuple(
            tuple(sorted(comp.items(), key=repr)) for comp in self.components
        )

    def is_pointwise_injective(self) -> bool:
        return all(len(set(c.values())) == len(c) for c in self.components)

    def is_pointwise_surjective(self) -> bool:
        return all(
            set(c.values()) == set(self.target.values[a])
            for a, c in enumerate(self.components)
        )

    def is_pointwise_bijective(self) -> bool:
        return self.is_pointwise_injective() and self.is_pointwise_surjective()

    def inverse(self) -> "NatTransformation":
        if not self.is_pointwise_bijective():
            raise ValidationError("only pointwise bijections invert")
        return NatTransformation(
            self.target, self.source,
            tuple({y: x for x, y in c.items()} for c in self.components),
        )


def identity_nat(M: Presheaf) -> NatTransformation:
    return NatTransformation(M, M, tuple({x: x for x in M.values[a]} for a in range(M.base.n_objects)), check=False)


def compose_nats(t2: NatTransformation, t1: NatTransformation) -> NatTransformation:
    if t2.source is not t1.target and t2.source.values != t1.target.values:
        raise ValidationError("natural transformations not composable")
    return NatTransformation(
        t1.source, t2.target,
        tuple({x: t2.components[a][y] for x, y in t1.components[a].items()}
              for a in range(len(t1.components))),
        check=False,
    )


# -- Yoneda ------------------------------------------------------------------


def yoneda(cat: FiniteCategory, a: int) -> Presheaf:
    """The representable presheaf of maps into ``a``; elements are morphism ids."""
    values = tuple(cat.hom(b, a) for b in range(cat.n_objects))
    actions = []
    for f in range(cat.n_morphisms):
        actions.append({m: cat.table[m][f] for m in values[cat.tgt[f]]})
    return Presheaf(cat, values, tuple(actions), name=f"Y{cat.objects[a]}")


def yoneda_map(cat: FiniteCategory, f: int, Ya: Optional[Presheaf] = None, Yb: Optional[Presheaf] = None) -> NatTransformation:
    """Postcomposition ``Y(src f) -> Y(tgt f)``."""
    Ya = Ya if Ya is not None else yoneda(cat, cat.src[f])
    Yb = Yb if Yb is not None else yoneda(cat, cat.tgt[f])
    comps = tuple({m: cat.table[f][m] for m in Ya.values[x]} for x in range(cat.n_objects))
    return NatTransformation(Ya, Yb, comps)


def classifying_nat(M: Presheaf, a: int, x, Ya: Optional[Presheaf] = None) -> NatTransformation:
    """The transformation ``Y(a) -> M`` picking out ``x`` in ``M(a)``."""
    C = M.base
    Ya = Ya if Ya is not None else yoneda(C, a)
    comps = tuple({m: M.actions[m][x] for m in Ya.values[b]} for b in range(C.n_objects))
    return NatTransformation(Ya, M, comps)


# -- diagrams of presheaves and pointwise (co)limits -------------------------

_DISCRETE_CACHE: dict[int, FiniteCategory] = {}


def discrete_category(n: int) -> FiniteCategory:
    if n not in _DISCRETE_CACHE:
        table = [[j if i == j else -1 for j in range(n)] for i in range(n)]
        _DISCRETE_CACHE[n] = FiniteCategory.build(
            tuple(f"d{i}" for i in range(n)),
            tuple(f"1_d{i}" for i in range(n)),
            tuple(range(n)), tuple(range(n)), tuple(range(n)),
            table, name=f"disc{n}",
        )
    return _DISCRETE_CACHE[n]


@dataclass(frozen=True, eq=False)
class PresheafDiagram:
    shape: FiniteCategory
    vertices: tuple[Presheaf, ...]
    edges: tuple[NatTransformation, ...]
    check: bool = field(default=True, compare=False)

    def __post_init__(self):
        if not self.check:
            return
        S = self.shape
        if len(self.vertices) != S.n_objects or len(self.edges) != S.n_morphisms:
            raise ValidationError("diagram tables sized wrong")
        base = None
        for v in self.vertices:
            if base is None:
                base = v.base
            elif v.base != base:
                raise ValidationError("diagram vertices live over different bases")
        for s in range(S.n_morphisms):
            e = self.edges[s]
            if e.source is not self.vertices[S.src[s]] or e.target is not self.vertices[S.tgt[s]]:
                raise ValidationError("diagram edge endpoints disagree with the shape")
        for s in range(S.n_morphisms):
            if S.is_identity(s):
                if self.edges[s].key() != identity_nat(self.vertices[S.src[s]]).key():
                    raise ValidationError("diagram sends an identity to a non-identity")
        for g in range(S.n_morphisms):
            for f in range(S.n_morphisms):
                c = S.table[g][f]
                if c >= 0:
                    if self.edges[c].key() != compose_nats(self.edges[g], self.edges[f]).key():
                        raise ValidationError("diagram breaks composition")

    @property
    def base(self) -> FiniteCategory:
        return self.vertices[0].base if self.vertices else None


def discrete_diagram(base: FiniteCategory, Ms: Sequence[Presheaf]) -> PresheafDiagram:
    S = discrete_category(len(Ms))
    return PresheafDiagram(S, tuple(Ms), tuple(identity_nat(M) for M in Ms))


@dataclass(frozen=True, eq=False)
class PresheafCone:
    diagram: PresheafDiagram
    apex: Presheaf
    legs: tuple[NatTransformation, ...]


@dataclass(frozen=True, eq=False)
class PresheafCocone:
    diagram: PresheafDiagram
    apex: Presheaf
    legs: tuple[NatTransformation, ...]


def limit(diagram: PresheafDiagram, base: Optional[FiniteCategory] = None, name="lim") -> PresheafCone:
    """Pointwise limit: compatible families, with projection legs."""
    C = diagram.base or base
    if C is None:
        raise ValidationError("empty diagram needs an explicit base")
    S = diagram.shape
    values = []
    for a in range(C.n_objects):
        fams = []
        for tup in itertools.product(*[v.values[a] for v in diagram.vertices]):
            if all(
                diagram.edges[s].components[a][tup[S.src[s]]] == tup[S.tgt[s]]
                for s in range(S.n_morphisms)
            ):
                fams.append(tup)
        values.append(tuple(fams))
    actions = []
    for f in range(C.n_morphisms):
        act = {}
        for tup in values[C.tgt[f]]:
            act[tup] = tuple(v.actions[f][x] for v, x in zip(diagram.vertices, tup))
        actions.append(act)
    L = Presheaf(C, tuple(values), tuple(actions), name=name)
    legs = tuple(
        NatTransformation(
            L, diagram.vertices[d],
            tuple({tup: tup[d] for tup in values[a]} for a in range(C.n_objects)),
            check=False,
        )
        for d in range(S.n_objects)
    )
    return PresheafCone(diagram, L, legs)


class _UnionFind:
    """Union-find whose class representative is the least insertion index."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:
            self.parent[i], i = root, self.parent[i]
        return root

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            lo, hi = min(ri, rj), max(ri, rj)
            self.parent[hi] = lo


def colimit(diagram: PresheafDiagram, base: Optional[FiniteCategory] = None, name="colim") -> PresheafCocone:
    """Pointwise colimit by disjoint union and quotient; injection legs."""
    C = diagram.base or base
    if C is None:
        raise ValidationError("empty diagram needs an explicit base")
    S = diagram.shape
    reps: list[tuple] = []
    class_of: list[dict] = []
    for a in range(C.n_objects):
        items = [(d, x) for d in range(S.n_objects) for x in diagram.vertices[d].values[a]]
        idx = {it: i for i, it in enumerate(items)}
        uf = _UnionFind(len(items))
        for s in range(S.n_morphisms):
            e = diagram.edges[s]
            for x in diagram.vertices[S.src[s]].values[a]:
                uf.union(idx[(S.src[s], x)], idx[(S.tgt[s], e.components[a][x])])
        cls = {it: items[uf.find(i)] for it, i in idx.items()}
        class_of.append(cls)
        reps.append(tuple(it for i, it in enumerate(items) if uf.find(i) == i))
    values = tuple(reps)
    actions = []
    for f in range(C.n_morphisms):
        a, b = C.src[f], C.tgt[f]
        act = {}
        for (d, x) in values[b]:
            act[(d, x)] = class_of[a][(d, diagram.vertices[d].actions[f][x])]
        actions.append(act)
    Q = Presheaf(C, values, tuple(actions), name=name)
    legs = tuple(
        NatTransformation(
            diagram.vertices[d], Q,
            tuple(
                {x: class_of[a][(d, x)] for x in diagram.vertices[d].values[a]}
                for a in range(C.n_objects)
            ),
            check=False,
        )
        for d in range(S.n_objects)
    )
    return PresheafCocone(diagram, Q, legs)


def product(base: FiniteCategory, Ms: Sequence[Presheaf], name=None) -> PresheafCone:
    return limit(discrete_diagram(base, Ms), base=base, name=name or "x".join(M.name for M in Ms) or "1")


def coproduct(base: FiniteCategory, Ms: Sequence[Presheaf], name=None) -> PresheafCocone:
    return colimit(discrete_diagram(base, Ms), base=base, name=name or "+".join(M.name for M in Ms) or "0")


def terminal_presheaf(base: FiniteCategory) -> Presheaf:
    return limit(discrete_diagram(base, ()), base=base, name="1").apex


def initial_presheaf(base: FiniteCategory) -> Presheaf:
    return colimit(discrete_diagram(base, ()), base=base, name="0").apex


def parallel_pair_presheaf_diagram(t: NatTransformation, u: NatTransformation) -> PresheafDiagram:
    from .fincat import PARALLEL_SHAPE

    if t.source is not u.source or t.target is not u.target:
        raise ValidationError("parallel transformations must share endpoints")
    M, N = t.source, t.target
    return PresheafDiagram(PARALLEL_SHAPE, (M, N), (identity_nat(M), identity_nat(N), t, u))


def equalizer(t: NatTransformation, u: NatTransformation) -> PresheafCone:
    return limit(parallel_pair_presheaf_diagram(t, u), name="eq")


def coequalizer(t: NatTransformation, u: NatTransformation) -> PresheafCocone:
    return colimit(parallel_pair_presheaf_diagram(t, u), name="coeq")


def pullback(t: NatTransformation, u: NatTransformation) -> PresheafCone:
    from .fincat import COSPAN_SHAPE

    if t.target is not u.target:
        raise ValidationError("pullback needs a cospan")
    M, P, N = t.source, t.target, u.source
    diag = PresheafDiagram(COSPAN_SHAPE, (M, P, N), (identity_nat(M), identity_nat(P), identity_nat(N), t, u))
    return limit(diag, name="pb")


# -- coends ------------------------------------------------------------------


@dataclass(frozen=True)
class QuotientSet:
    """A finite quotient with its quotient map retained for tracing."""

    elements: tuple
    class_of: dict

    def __len__(self) -> int:
        return len(self.elements)


def weighted_colimit(W: Presheaf, F: SetFunctor) -> QuotientSet:
    """The colimit of ``F`` weighted by ``W``: the coend of ``W x F``.

    Triples ``(c, w, x)`` with ``w`` in ``W(c)`` and ``x`` in ``F(c)`` are
    identified along ``(W(f)(w), x) ~ (w, F(f)(x))`` for ``f: a -> b``.
    """
    C = W.base
    if F.base != C:
        raise ValidationError("weight and functor must share a base")
    items = [
        (c, w, x)
        for c in range(C.n_objects)
        for w in W.values[c]
        for x in F.values[c]
    ]
    idx = {it: i for i, it in enumerate(items)}
    uf = _UnionFind(len(items))
    for f in range(C.n_morphisms):
        a, b = C.src[f], C.tgt[f]
        for w in W.values[b]:
            wa = W.actions[f][w]
            for x in F.values[a]:
                uf.union(idx[(a, wa, x)], idx[(b, w, F.actions[f][x])])
    class_of = {it: items[uf.find(i)] for it, i in idx.items()}
    elements = tuple(it for i, it in enumerate(items) if uf.find(i) == i)
    return QuotientSet(elements, class_of)


# -- factorization, quotients, subobjects ------------------------------------


def epi_mono_factorize(t: NatTransformation) -> tuple[NatTransformation, NatTransformation]:
    """Split ``t`` as a pointwise surjection followed by a pointwise injection."""
    M, N, C = t.source, t.target, t.source.base
    hit = [set(t.components[a].values()) for a in range(C.n_objects)]
    values = tuple(
        tuple(y for y in N.values[a] if y in hit[a]) for a in range(C.n_objects)
    )
    actions = tuple(
        {y: N.actions[f][y] for y in values[C.tgt[f]]} for f in range(C.n_morphisms)
    )
    image = Presheaf(C, values, actions, name=f"im({t.source.name})")
    q = NatTransformation(M, image, t.components)
    m = NatTransformation(
        image, N, tuple({y: y for y in values[a]} for a in range(C.n_objects)), check=False
    )
    return q, m


def quotient_presheaf(M: Presheaf, pairs: Iterable[tuple[int, Hashable, Hashable]], name=None):
    """Quotient by the congruence generated by ``(object, x, y)`` pairs.

    The generating relation is saturated under all actions before the
    pointwise quotient is taken, so the result is again a presheaf.
    """
    C = M.base
    idx = [{x: i for i, x in enumerate(M.values[a])} for a in range(C.n_objects)]
    ufs = [_UnionFind(len(M.values[a])) for a in range(C.n_objects)]
    for (a, x, y) in pairs:
        ufs[a].union(idx[a][x], idx[a][y])
    changed = True
    while changed:
        changed = False
        for f in range(C.n_morphisms):
            a, b = C.src[f], C.tgt[f]
            for i, x in enumerate(M.values[b]):
                j = ufs[b].find(i)
                if i != j:
                    y = M.values[b][j]
                    ii = idx[a][M.actions[f][x]]
                    jj = idx[a][M.actions[f][y]]
                    if ufs[a].find(ii) != ufs[a].find(jj):
                        ufs[a].union(ii, jj)
                        changed = True
    values = tuple(
        tuple(x for i, x in enumerate(M.values[a]) if ufs[a].find(i) == i)
        for a in range(C.n_objects)
    )
    rep = [
        {x: M.values[a][ufs[a].find(i)] for i, x in enumerate(M.values[a])}
        for a in range(C.n_objects)
    ]
    actions = tuple(
        {x: rep[C.src[f]][M.actions[f][x]] for x in values[C.tgt[f]]}
        for f in range(C.n_morphisms)
    )
    Q = Presheaf(C, values, actions, name=name or f"{M.name}/~")
    q = NatTransformation(M, Q, tuple(rep[a] for a in range(C.n_objects)))
    return Q, q


def subpresheaf(M: Presheaf, keep: Sequence[Iterable], name=None):
    """The subpresheaf on the given elements; they must be action-closed."""
    C = M.base
    keep = [tuple(k) for k in keep]
    ksets = [set(k) for k in keep]
    for f in range(C.n_morphisms):
        a, b = C.src[f], C.tgt[f]
        for x in keep[b]:
            if M.actions[f][x] not in ksets[a]:
                raise ValidationError(
                    f"elements are not closed under the action of {C.morphisms[f]}"
                )
    values = tuple(tuple(x for x in M.values[a] if x in ksets[a]) for a in range(C.n_objects))
    actions = tuple(
        {x: M.actions[f][x] for x in values[C.tgt[f]]} for f in range(C.n_morphisms)
    )
    S = Presheaf(C, values, actions, name=name or f"{M.name}|sub")
    mono = NatTransformation(S, M, tuple({x: x for x in values[a]} for a in range(C.n_objects)), check=False)
    return S, mono


def relabel(M: Presheaf, name=None) -> tuple[Presheaf, tuple[dict, ...]]:
    """Rename elements to small integers (per object, preserving order)."""
    C = M.base
    enc = tuple({x: i for i, x in enumerate(M.values[a])} for a in range(C.n_objects))
    values = tuple(tuple(range(len(M.values[a]))) for a in range(C.n_objects))
    actions = tuple(
        {enc[C.tgt[f]][x]: enc[C.src[f]][M.actions[f][x]] for x in M.values[C.tgt[f]]}
        for f in range(C.n_morphisms)
    )
    return Presheaf(C, values, actions, name=name or M.name), enc


# -- natural transformation search -------------------------------------------


def _element_colors(M: Presheaf) -> dict[tuple[int, Hashable], int]:
    """Stable colors from iterated action-profile refinement."""
    C = M.base
    color = {(a, x): a for a in range(C.n_objects) for x in M.values[a]}
    incoming = [[] for _ in range(C.n_objects)]  # f: a -> b indexed at b
    outgoing = [[] for _ in range(C.n_objects)]
    for f in range(C.n_morphisms):
        incoming[C.tgt[f]].append(f)
        outgoing[C.src[f]].append(f)
    while True:
        sigs = {}
        for (a, x), c in color.items():
            fwd = tuple(color[(C.src[f], M.actions[f][x])] for f in incoming[a])
            back = tuple(
                tuple(sorted(color[(C.tgt[f], z)] for z in M.values[C.tgt[f]] if M.actions[f][z] == x))
                for f in outgoing[a]
            )
            sigs[(a, x)] = (c, fwd, back)
        palette = {s: i for i, s in enumerate(sorted(set(sigs.values()), key=repr))}
        new = {k: palette[s] for k, s in sigs.items()}
        if len(set(new.values())) == len(set(color.values())):
            return new
        color = new


def _nat_search(M: Presheaf, N: Presheaf, bijective: bool, max_results: Optional[int]) -> list[NatTransformation]:
    C = M.base
    if N.base != C:
        raise ValidationError("search needs presheaves on a shared base")
    if bijective:
        if M.fiber_sizes() != N.fiber_sizes():
            return []
        cm, cn = _element_colors(M), _element_colors(N)
        for a in range(C.n_objects):
            if sorted(cm[(a, x)] for x in M.values[a]) != sorted(cn[(a, y)] for y in N.values[a]):
                return []
    else:
        cm = cn = None
    order = [(a, x) for a in range(C.n_objects) for x in M.values[a]]
    results: list[NatTransformation] = []
    assign: dict[tuple[int, Hashable], Hashable] = {}
    used: list[set] = [set() for _ in range(C.n_objects)]

    def propagate(queue, trail) -> bool:
        while queue:
            a, x, y = queue.pop()
            key = (a, x)
            if key in assign:
                if assign[key] != y:
                    return False
                continue
            if bijective and (y in used[a] or cm[key] != cn[(a, y)]):
                return False
            assign[key] = y
            used[a].add(y)
            trail.append(key)
            for f in range(C.n_morphisms):
                if C.tgt[f] == a:
                    queue.append((C.src[f], M.actions[f][x], N.actions[f][y]))
        return True

    def undo(trail):
        for key in trail:
            y = assign.pop(key)
            used[key[0]].discard(y)

    def rec(i: int) -> bool:
        if max_results is not None and len(results) >= max_results:
            return True
        if i == len(order):
            comps = tuple(
                {x: assign[(a, x)] for x in M.values[a]} for a in range(C.n_objects)
            )
            results.append(NatTransformation(M, N, comps))
            return max_results is not None and len(results) >= max_results
        a, x = order[i]
        if (a, x) in assign:
            return rec(i + 1)
        for y in N.values[a]:
            trail: list = []
            if propagate([(a, x, y)], trail):
                if rec(i + 1):
                    undo(trail)
                    return True
            undo(trail)
        return False

    rec(0)
    return results


def hom_set(M: Presheaf, N: Presheaf, max_results: Optional[int] = None) -> list[NatTransformation]:
    """Every natural transformation ``M -> N``, in a deterministic order.

    ``max_results`` stops the search early, for callers that only need to
    know whether a hom-set is small.
    """
    return _nat_search(M, N, bijective=False, max_results=max_results)


def find_iso(M: Presheaf, N: Presheaf) -> Optional[NatTransformation]:
    """A natural isomorphism ``M -> N`` if one exists.

    Candidates are pruned by fiber sizes and action-orbit color profiles,
    then found by backtracking; the result is verified natural and
    pointwise bijective before being returned.
    """
    found = _nat_search(M, N, bijective=True, max_results=1)
    if not found:
        return None
    t = found[0]
    if not t.is_pointwise_bijective():
        raise ValidationError("internal: candidate isomorphism is not bijective")
    return t


def find_set_functor_iso(F: SetFunctor, G: SetFunctor):
    """Natural isomorphism between covariant functors, if any."""
    t = find_iso(F.as_presheaf(), G.as_presheaf())
    return t


def enumerate_set_functors(C: FiniteCategory, n: int, rng=None) -> Iterator[SetFunctor]:
    """All functors ``C -> FinSet`` with value sets of size at most ``n``."""
    from .fincat import enumerate_functors, finset_category

    FS, decode = finset_category(n)
    for fd in enumerate_functors(C, FS, rng=rng):
        yield set_functor_from_functor_data(fd, decode)
