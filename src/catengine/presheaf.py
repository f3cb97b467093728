"""Finite-set-valued presheaves and covariant functors on a finite category.

This is the computational model of the presheaf category: pointwise
(co)limits, coends, image factorizations, natural-transformation search and
isomorphism testing.  Value sets are plain tuples of hashable labels;
actions are dictionaries.

Limits and quotients of finite sets are written once (``limit_of_sets``,
``colimit_of_sets``, ``coend``, all over ``_classes``), and the presheaf
(co)limits are them taken pointwise.  Every quotient picks the least
element in insertion order as representative so all outputs are
reproducible.  ``Presheaf`` and ``SetFunctor`` share one validator, and
functors into presheaves (diagrams, concrete functors) one law check.

Input from outside the engine (functor and completion files, objects built
by callers) is validated in full.  What this module builds from validated
objects ((co)limits, quotients, subpresheaves, relabellings, the results of
the transformation search) is a presheaf or a natural transformation by
construction and is built with ``check=False``; the fiber cap still runs on
every presheaf.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Iterator, Optional, Sequence

from .errors import FiberCapExceeded, ValidationError
from .fincat import FiniteCategory, FunctorData, backtrack, opposite

FIBER_CAP = 64


def _check_tables(F, covariant: bool, kind: str) -> None:
    """Check that ``F``'s tables are a functor on ``F.base`` of the given
    variance; ``kind`` names ``F`` in the messages.  With ``F.check`` false
    only the fiber cap is enforced.

    A morphism ``f`` acts from the fiber over ``dom[f]`` to the one over
    ``cod[f]``, and ``g∘f`` acts as ``then∘first``.
    """
    C, values, actions, n = F.base, F.values, F.actions, F.base.n_morphisms
    check = F.check
    if check and (len(values) != C.n_objects or len(actions) != n):
        raise ValidationError(f"{kind} tables sized wrong")
    for fiber in values:
        if len(fiber) > FIBER_CAP:
            raise FiberCapExceeded(len(fiber), FIBER_CAP, f"in {kind} {F.name}")
        if check and len(set(fiber)) != len(fiber):
            raise ValidationError(f"duplicate elements in a value set in {kind} {F.name}")
    if not check:
        return
    dom, cod = (C.src, C.tgt) if covariant else (C.tgt, C.src)
    for f in range(n):
        act = actions[f]
        if act.keys() != set(values[dom[f]]) or not set(values[cod[f]]).issuperset(act.values()):
            raise ValidationError(f"action of {C.morphisms[f]} is not a map of the right fibers")
    for a, e in enumerate(C.identity):
        act = actions[e]
        if any(act[x] != x for x in values[a]):
            raise ValidationError(f"identity action at {C.objects[a]} is not the identity")
    for g, row in enumerate(C.table):
        for f in range(n):
            c = row[f]
            if c >= 0:
                first, then = (f, g) if covariant else (g, f)
                act_c, act_first, act_then = actions[c], actions[first], actions[then]
                for x in values[dom[first]]:
                    if act_c[x] != act_then[act_first[x]]:
                        raise ValidationError(
                            f"{'covariant' if covariant else 'contravariant'} functoriality fails"
                            f" at ({C.morphisms[g]}, {C.morphisms[f]})"
                        )


@dataclass(frozen=True, eq=False)
class _SetTables:
    """The value sets and actions of a finite-set-valued functor on ``base``."""

    base: FiniteCategory
    values: tuple[tuple[Hashable, ...], ...]
    actions: tuple[dict, ...]

    def at(self, a: int) -> tuple:
        return self.values[a]

    def apply(self, f: int, x):
        return self.actions[f][x]

    def total_size(self) -> int:
        return sum(len(v) for v in self.values)

    def fiber_sizes(self) -> tuple[int, ...]:
        return tuple(len(v) for v in self.values)


@dataclass(frozen=True, eq=False)
class Presheaf(_SetTables):
    """Contravariant finite-set-valued functor on ``base``.

    ``actions[f]`` for ``f: a -> b`` maps the value set at ``b`` to the one
    at ``a``.  ``check=False`` is for presheaves built by this module from
    validated ones; it keeps only the fiber cap.
    """

    name: str = field(default="M", compare=False)
    check: bool = field(default=True, compare=False)

    def __post_init__(self):
        _check_tables(self, False, "presheaf")


@dataclass(frozen=True, eq=False)
class SetFunctor(_SetTables):
    """Covariant finite-set-valued functor on ``base``.

    ``actions[f]`` for ``f: a -> b`` maps the value set at ``a`` to the one
    at ``b``.  ``check`` is as for ``Presheaf``.
    """

    name: str = field(default="F", compare=False)
    check: bool = field(default=True, compare=False)

    def __post_init__(self):
        _check_tables(self, True, "functor")

    def as_presheaf(self) -> Presheaf:
        """The same data viewed contravariantly on the opposite base."""
        return Presheaf(opposite(self.base), self.values, self.actions, name=self.name, check=False)


def presheaf_as_covariant(M: Presheaf) -> SetFunctor:
    return SetFunctor(opposite(M.base), M.values, M.actions, name=M.name, check=False)


def _constant(cls, base: FiniteCategory, elements: Sequence, name):
    # identity actions on one value set: the same tables for both variances
    elements = tuple(elements)
    return cls(
        base,
        tuple(elements for _ in range(base.n_objects)),
        tuple({x: x for x in elements} for _ in range(base.n_morphisms)),
        name=name or f"const{len(elements)}",
    )


def constant_set_functor(base: FiniteCategory, elements: Sequence = ("*",), name=None) -> SetFunctor:
    return _constant(SetFunctor, base, elements, name)


def constant_presheaf(base: FiniteCategory, elements: Sequence = ("*",), name=None) -> Presheaf:
    return _constant(Presheaf, base, elements, name)


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

    def key(self) -> tuple:
        """Hashable form for keying transformations with a common source in
        dicts and sets: each component's images in the source's fiber order.
        Equality tests compare ``components`` directly."""
        return tuple([
            tuple([comp[x] for x in xs]) for comp, xs in zip(self.components, self.source.values)
        ])

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
    M, N = t2.source, t1.target
    if M is not N and (M.base != N.base or M.values != N.values or M.actions != N.actions):
        raise ValidationError("natural transformations not composable")
    return NatTransformation(
        t1.source, t2.target,
        tuple({x: t2.components[a][y] for x, y in t1.components[a].items()}
              for a in range(len(t1.components))),
        check=False,
    )


# -- Yoneda ------------------------------------------------------------------


def yoneda(cat: FiniteCategory, a: int) -> Presheaf:
    """The representable presheaf of maps into ``a``; elements are morphism ids.

    Built and validated in full once per category and kept in ``cat._cache``;
    later calls return the same object, which callers must not mutate.
    """
    key = ("yoneda", a)
    Y = cat._cache.get(key)
    if Y is None:
        values = tuple(cat.hom(b, a) for b in range(cat.n_objects))
        actions = tuple({m: cat.table[m][f] for m in values[cat.tgt[f]]} for f in range(cat.n_morphisms))
        Y = cat._cache[key] = Presheaf(cat, values, actions, name=f"Y{cat.objects[a]}")
    return Y


def yoneda_map(cat: FiniteCategory, f: int) -> NatTransformation:
    """Postcomposition ``Y(src f) -> Y(tgt f)``."""
    Ya, Yb = yoneda(cat, cat.src[f]), yoneda(cat, cat.tgt[f])
    comps = tuple({m: cat.table[f][m] for m in Ya.values[x]} for x in range(cat.n_objects))
    return NatTransformation(Ya, Yb, comps)


def classifying_nat(M: Presheaf, a: int, x) -> NatTransformation:
    """The transformation ``Y(a) -> M`` picking out ``x`` in ``M(a)``."""
    C = M.base
    Ya = yoneda(C, a)
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


def check_functor_laws(
    C: FiniteCategory, objects: Sequence[Presheaf], morphisms: Sequence[NatTransformation], kind: str
) -> None:
    """Check that ``objects`` and ``morphisms`` are a functor from ``C`` into
    the presheaves on one base; ``kind`` names it in the messages."""
    if len(objects) != C.n_objects or len(morphisms) != C.n_morphisms:
        raise ValidationError(f"{kind} tables sized wrong")
    if any(M.base != objects[0].base for M in objects[1:]):
        raise ValidationError(f"{kind} values live over different bases")
    for m in range(C.n_morphisms):
        t = morphisms[m]
        if t.source is not objects[C.src[m]] or t.target is not objects[C.tgt[m]]:
            raise ValidationError(f"image of {C.morphisms[m]} has bad endpoints")
    for a in range(C.n_objects):
        if morphisms[C.identity[a]].components != identity_nat(objects[a]).components:
            raise ValidationError(f"image of the identity at {C.objects[a]} is not the identity")
    for g in range(C.n_morphisms):
        for f in range(C.n_morphisms):
            c = C.table[g][f]
            if c >= 0 and morphisms[c].components != compose_nats(morphisms[g], morphisms[f]).components:
                raise ValidationError(f"{kind} breaks composition at ({C.morphisms[g]}, {C.morphisms[f]})")


@dataclass(frozen=True, eq=False)
class PresheafDiagram:
    shape: FiniteCategory
    vertices: tuple[Presheaf, ...]
    edges: tuple[NatTransformation, ...]
    check: bool = field(default=True, compare=False)

    def __post_init__(self):
        if self.check:
            check_functor_laws(self.shape, self.vertices, self.edges, "diagram")

    @property
    def base(self) -> FiniteCategory:
        return self.vertices[0].base if self.vertices else None


def discrete_diagram(base: FiniteCategory, Ms: Sequence[Presheaf]) -> PresheafDiagram:
    # identity edges satisfy every functor law; only the bases need a check
    if any(M.base != Ms[0].base for M in Ms[1:]):
        raise ValidationError("diagram values live over different bases")
    S = discrete_category(len(Ms))
    return PresheafDiagram(S, tuple(Ms), tuple(identity_nat(M) for M in Ms), check=False)


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
    S, V, E = diagram.shape, diagram.vertices, diagram.edges
    values = tuple([
        tuple(limit_of_sets(S, [v.values[a] for v in V], [e.components[a] for e in E]))
        for a in range(C.n_objects)
    ])
    actions = []
    for f in range(C.n_morphisms):
        act = {}
        for tup in values[C.tgt[f]]:
            act[tup] = tuple(v.actions[f][x] for v, x in zip(V, tup))
        actions.append(act)
    L = Presheaf(C, values, tuple(actions), name=name, check=False)
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
    """Union-find whose class representative is the least insertion index.

    ``parent`` gives each index a parent no larger than it, a class's least
    index being its own: ``range(n)`` for ``n`` singletons.
    """

    def __init__(self, parent: Iterable[int]):
        self.parent = list(parent)

    def find(self, i: int) -> int:
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:
            self.parent[i], i = root, self.parent[i]
        return root

    def union(self, i: int, j: int) -> bool:
        """Merge the classes of ``i`` and ``j``; were they two?"""
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            lo, hi = min(ri, rj), max(ri, rj)
            self.parent[hi] = lo
        return ri != rj


def _classes(items: list, pairs: list) -> tuple[tuple, dict]:
    """The quotient of ``items`` by the equivalence that ``pairs`` generate:
    the class representatives in list order, and each item's representative,
    the least member of its class in list order."""
    index = {it: i for i, it in enumerate(items)}
    uf = _UnionFind(range(len(items)))
    for x, y in pairs:
        uf.union(index[x], index[y])
    # Each parent index is at most its child's, so one pass in index order
    # resolves every root.
    roots = uf.parent
    for i, p in enumerate(roots):
        roots[i] = roots[p]
    reps = tuple([it for i, it in enumerate(items) if roots[i] == i])
    return reps, dict(zip(items, [items[r] for r in roots]))


def limit_of_sets(S: FiniteCategory, fibers: Sequence[Sequence], maps: Sequence[dict]) -> list[tuple]:
    """The limit of finite sets ``fibers[d]`` and maps ``maps[s]`` over the
    shape ``S``: the tuples that every map but the identities respects, in
    ``itertools.product`` order."""
    edges = [(S.src[s], S.tgt[s], maps[s]) for s in range(S.n_morphisms) if S.identity[S.src[s]] != s]
    return [tup for tup in itertools.product(*fibers) if all(m[tup[i]] == tup[j] for i, j, m in edges)]


def colimit_of_sets(S: FiniteCategory, fibers: Sequence[Sequence], maps: Sequence[dict]) -> tuple[tuple, dict]:
    """The colimit of finite sets ``fibers[d]`` and maps ``maps[s]`` over the
    shape ``S``: the pairs ``(d, x)`` with ``x`` in ``fibers[d]``, identified
    along every map but the identities, as ``_classes`` returns them."""
    items = [(d, x) for d in range(S.n_objects) for x in fibers[d]]
    pairs = [
        ((S.src[s], x), (S.tgt[s], y))
        for s in range(S.n_morphisms) if S.identity[S.src[s]] != s
        for x, y in maps[s].items()
    ]
    return _classes(items, pairs)


def coend(W: Presheaf, fibers: Sequence[Sequence], maps: Sequence[dict]) -> tuple[tuple, dict]:
    """The coend of the weight ``W`` with a covariant finite-set functor on
    ``W.base``, given by its ``fibers`` and ``maps``, as ``_classes``.

    Triples ``(c, w, x)`` with ``w`` in ``W(c)`` and ``x`` in ``fibers[c]``
    are identified along ``(W(f)(w), x) ~ (w, maps[f](x))`` for
    ``f: a -> b``; identities identify nothing and are skipped.
    """
    C = W.base
    items = [(c, w, x) for c in range(C.n_objects) for w in W.values[c] for x in fibers[c]]
    pairs = []
    for f in range(C.n_morphisms):
        a, b, act = C.src[f], C.tgt[f], W.actions[f]
        if C.identity[a] != f:
            pairs += [((a, act[w], x), (b, w, y)) for w in W.values[b] for x, y in maps[f].items()]
    return _classes(items, pairs)


def colimit(diagram: PresheafDiagram, base: Optional[FiniteCategory] = None, name="colim") -> PresheafCocone:
    """Pointwise colimit by disjoint union and quotient; injection legs."""
    C = diagram.base or base
    if C is None:
        raise ValidationError("empty diagram needs an explicit base")
    S, V, E = diagram.shape, diagram.vertices, diagram.edges
    values, class_of = [], []
    for a in range(C.n_objects):
        reps, cls = colimit_of_sets(S, [v.values[a] for v in V], [e.components[a] for e in E])
        values.append(reps)
        class_of.append(cls)
    actions = []
    for f in range(C.n_morphisms):
        a, b = C.src[f], C.tgt[f]
        act = {}
        for (d, x) in values[b]:
            act[(d, x)] = class_of[a][(d, V[d].actions[f][x])]
        actions.append(act)
    Q = Presheaf(C, tuple(values), tuple(actions), name=name, check=False)
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
    """The colimit of ``F`` weighted by ``W``: the coend of ``W x F``."""
    if F.base != W.base:
        raise ValidationError("weight and functor must share a base")
    return QuotientSet(*coend(W, F.values, F.actions))


# -- factorization, quotients, subobjects ------------------------------------


def epi_mono_factorize(t: NatTransformation) -> tuple[NatTransformation, NatTransformation]:
    """Split ``t`` as a pointwise surjection onto its image subpresheaf
    followed by the inclusion."""
    image, m = subpresheaf(t.target, [set(c.values()) for c in t.components], name=f"im({t.source.name})")
    return NatTransformation(t.source, image, t.components, check=False), m


def congruence_join(M: Presheaf):
    """The join of a congruence of ``M`` with pairs of its elements.

    A congruence is an equivalence relation on each fiber under which
    related elements act to related elements.  It is written per fiber as
    each element's class, the least index in the fiber of a member.  The
    result ``join(classes, pairs)`` is the least congruence that holds the
    congruence ``classes`` and each pair ``(a, k, l)`` of indices into
    ``M.values[a]``.  It merges a worklist of pairs in one union-find per
    fiber, and a pair that merges two classes adds to the worklist its
    images under the action of each non-identity morphism into ``a``.
    """
    C = M.base
    idx = [{x: k for k, x in enumerate(fiber)} for fiber in M.values]
    pulls = [[] for _ in range(C.n_objects)]  # at b: the action of each f: a -> b, as indices
    for f in range(C.n_morphisms):
        a, b = C.src[f], C.tgt[f]
        if C.identity[b] != f:
            pulls[b].append((a, [idx[a][M.actions[f][x]] for x in M.values[b]]))

    def join(classes: Sequence[Sequence[int]], pairs: Iterable[tuple[int, int, int]]) -> tuple[tuple[int, ...], ...]:
        ufs = [_UnionFind(row) for row in classes]
        work = list(pairs)
        while work:
            a, k, l = work.pop()
            if ufs[a].union(k, l):
                work.extend((c, act[k], act[l]) for c, act in pulls[a])
        return tuple(tuple(uf.find(k) for k in range(len(uf.parent))) for uf in ufs)

    return join


def quotient_presheaf(M: Presheaf, pairs: Iterable[tuple[int, Hashable, Hashable]], name=None):
    """Quotient by the congruence generated by ``(object, x, y)`` pairs
    (:func:`congruence_join`), so the result is again a presheaf.  Each
    class is named by its least element in fiber order."""
    C = M.base
    idx = [{x: k for k, x in enumerate(fiber)} for fiber in M.values]
    theta = congruence_join(M)(
        [range(len(fiber)) for fiber in M.values], [(a, idx[a][x], idx[a][y]) for a, x, y in pairs]
    )
    rep = [{x: fiber[c] for x, c in zip(fiber, classes)} for fiber, classes in zip(M.values, theta)]
    values = tuple(tuple(fiber[k] for k, c in enumerate(classes) if c == k) for fiber, classes in zip(M.values, theta))
    actions = tuple(
        {x: rep[C.src[f]][M.actions[f][x]] for x in values[C.tgt[f]]}
        for f in range(C.n_morphisms)
    )
    Q = Presheaf(C, values, actions, name=name or f"{M.name}/~", check=False)
    q = NatTransformation(M, Q, tuple(rep), check=False)
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
    S = Presheaf(C, values, actions, name=name or f"{M.name}|sub", check=False)
    mono = NatTransformation(S, M, tuple({x: x for x in values[a]} for a in range(C.n_objects)), check=False)
    return S, mono


def components(M: Presheaf) -> list[list[list]]:
    """The connected components of ``M``'s category of elements, in order of
    their first element, each as its elements per object in fiber order.

    Each is action-closed, so the ``keep`` of a subpresheaf, and ``M`` is
    the coproduct of those subpresheaves.
    """
    C = M.base
    items = [(a, x) for a in range(C.n_objects) for x in M.values[a]]
    pairs = [((C.tgt[f], x), (C.src[f], y)) for f in range(C.n_morphisms) for x, y in M.actions[f].items()]
    reps, class_of = _classes(items, pairs)
    at = {rep: k for k, rep in enumerate(reps)}
    out = [[[] for _ in range(C.n_objects)] for _ in reps]
    for a, x in items:
        out[at[class_of[a, x]]][a].append(x)
    return out


def relabel(M: Presheaf, name=None) -> tuple[Presheaf, tuple[dict, ...]]:
    """Rename elements to small integers (per object, preserving order)."""
    C = M.base
    enc = tuple({x: i for i, x in enumerate(M.values[a])} for a in range(C.n_objects))
    values = tuple(tuple(range(len(M.values[a]))) for a in range(C.n_objects))
    actions = tuple(
        {enc[C.tgt[f]][x]: enc[C.src[f]][M.actions[f][x]] for x in M.values[C.tgt[f]]}
        for f in range(C.n_morphisms)
    )
    return Presheaf(C, values, actions, name=name or M.name, check=False), enc


# -- natural transformation search -------------------------------------------


def _element_colors(M: Presheaf) -> dict[tuple[int, Hashable], int]:
    """Stable colors from iterated action-profile refinement.

    An element starts with its object, and where the object has
    non-identity endomorphisms, with whether each fixes the element:
    refinement alone cannot tell a fixed point from a member of a cycle,
    such as a point of a free Z2-set from one of a trivial one.
    """
    C = M.base
    color = {(a, x): a for a in range(C.n_objects) for x in M.values[a]}
    incoming = [[] for _ in range(C.n_objects)]  # f: a -> b indexed at b
    outgoing = [[] for _ in range(C.n_objects)]
    endos = [[] for _ in range(C.n_objects)]  # the actions of non-identity f: a -> a
    for f in range(C.n_morphisms):
        incoming[C.tgt[f]].append(f)
        outgoing[C.src[f]].append(f)
        if C.src[f] == C.tgt[f] and C.identity[C.src[f]] != f:
            endos[C.src[f]].append(M.actions[f])
    for a, acts in enumerate(endos):
        if acts:
            color.update({(a, x): (a, *[act[x] == x for act in acts]) for x in M.values[a]})
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


def _nat_search(M: Presheaf, N: Presheaf, bijective: bool) -> Iterator[NatTransformation]:
    """The natural transformations ``M -> N``, or its isomorphisms when
    ``bijective``, in the order of :func:`fincat.backtrack`.

    The variables are the elements ``(a, x)`` of ``M``, each over
    ``N.values[a]``; deciding ``x ↦ y`` forces ``M(f)(x) ↦ N(f)(y)`` for
    every ``f`` into ``a``.  An isomorphism's inverse is a map too, so there
    ``x ↦ y`` also forces the inverse variable ``("inv", a, y)`` to ``x``,
    where two elements sent to one ``y`` clash, and colours must agree.
    """
    C = M.base
    if N.base != C:
        raise ValidationError("search needs presheaves on a shared base")
    if bijective:
        if M.fiber_sizes() != N.fiber_sizes():
            return
        cm, cn = _element_colors(M), _element_colors(N)
        for a in range(C.n_objects):
            if sorted(cm[(a, x)] for x in M.values[a]) != sorted(cn[(a, y)] for y in N.values[a]):
                return
    into: list[list[int]] = [[] for _ in range(C.n_objects)]  # f with tgt[f] == a, ascending
    for f in range(C.n_morphisms):
        into[C.tgt[f]].append(f)

    def forced(key, y, _assigned):
        if len(key) == 3:  # an inverse variable
            return ()
        a, x = key
        pairs = [((C.src[f], M.actions[f][x]), N.actions[f][y]) for f in into[a]]
        if bijective:
            if cm[key] != cn[(a, y)]:
                return None
            pairs.append((("inv", a, y), x))
        return pairs

    order = [(a, x) for a in range(C.n_objects) for x in M.values[a]]
    for assigned in backtrack(order, lambda key: N.values[key[0]], forced):
        comps = tuple({x: assigned[(a, x)] for x in M.values[a]} for a in range(C.n_objects))
        # a complete assignment is closed under propagation, so natural
        yield NatTransformation(M, N, comps, check=False)


def hom_set(M: Presheaf, N: Presheaf, max_results: Optional[int] = None) -> list[NatTransformation]:
    """Every natural transformation ``M -> N``, in a deterministic order.

    ``max_results`` stops the search early, for callers that only need to
    know whether a hom-set is small.
    """
    return list(itertools.islice(_nat_search(M, N, bijective=False), max_results))


def find_iso(M: Presheaf, N: Presheaf) -> Optional[NatTransformation]:
    """A natural isomorphism ``M -> N`` if one exists.

    Candidates are pruned by fiber sizes and action-orbit color profiles,
    then found by backtracking; the result is natural by construction and
    verified pointwise bijective before being returned.
    """
    t = next(_nat_search(M, N, bijective=True), None)
    if t is None:
        return None
    if not t.is_pointwise_bijective():
        raise ValidationError("internal: candidate isomorphism is not bijective")
    return t


def find_set_functor_iso(F: SetFunctor, G: SetFunctor):
    """Natural isomorphism between covariant functors, if any."""
    return find_iso(F.as_presheaf(), G.as_presheaf())


def enumerate_set_functors(C: FiniteCategory, n: int, rng=None) -> Iterator[SetFunctor]:
    """All functors ``C -> FinSet`` with value sets of size at most ``n``."""
    from .fincat import enumerate_functors, finset_category

    FS, decode = finset_category(n)
    for fd in enumerate_functors(C, FS, rng=rng):
        yield set_functor_from_functor_data(fd, decode)
