"""Universal ultraproducts over (necessarily principal) finite ultrafilters.

Three independent routes to the same object: the colimit of the triple
category's projection, a direct search for the cocone of hom-set products
that is universal among cocones with representable codomain, and the
filtered-colimit-of-products formula available when the host has products
and filtered colimits.  On a finite ground set every ultrafilter is
principal, which the validator proves; the mathematical content exercised
here is the universal-property machinery itself.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import BoundExceeded, DensityUnverified, ValidationError
from .fincat import (
    Cocone,
    Diagram,
    FiniteCategory,
    FunctorData,
    backtrack,
    category_from_arrows,
    colimit_in_category,
    full_subcategory,
    is_colimit,
    is_universal,
    opposite,
)
from . import presheaf as ps


def _sorted_members(members) -> tuple[frozenset, ...]:
    return tuple(sorted((frozenset(S) for S in members), key=lambda S: (len(S), sorted(map(repr, S)))))


@dataclass(frozen=True)
class Ultrafilter:
    """A finite ultrafilter.  ``members`` are kept sorted by size, then by
    their elements' reprs, however they are given, so no member contains a
    later one."""
    ground: tuple
    members: tuple[frozenset, ...]
    principal_point: object

    def __post_init__(self):
        object.__setattr__(self, "members", _sorted_members(self.members))


def validate_ultrafilter(ground: Sequence, members: Sequence) -> Ultrafilter:
    """Check the ultrafilter axioms exhaustively over the finite powerset.

    Upward closure, closure under intersection, properness, and the
    dichotomy (exactly one of each subset and its complement) are verified;
    on a finite ground set these force a principal point, which is computed
    and stored.
    """
    X = tuple(sorted(set(ground), key=repr))
    if len(X) > 10:
        raise BoundExceeded("ultrafilter_ground", f"|X| = {len(X)}")
    mem = {frozenset(S) for S in members}
    for S in mem:
        if not S <= set(X):
            raise ValidationError(f"member {sorted(map(repr, S))} is not a subset of the ground set")
    if frozenset() in mem:
        raise ValidationError("the empty set cannot belong to an ultrafilter")
    for S in mem:
        for T in mem:
            if S & T not in mem:
                raise ValidationError(
                    f"not closed under intersection: {sorted(map(repr, S))} and {sorted(map(repr, T))}"
                )
    universe = [frozenset(c) for r in range(len(X) + 1) for c in itertools.combinations(X, r)]
    mset = set(mem)
    for S in universe:
        for T in universe:
            if S in mset and S <= T and T not in mset:
                raise ValidationError(f"not upward closed at {sorted(map(repr, T))}")
    for S in universe:
        comp = frozenset(X) - S
        if (S in mset) == (comp in mset):
            raise ValidationError(
                f"dichotomy fails: exactly one of {sorted(map(repr, S))} and its complement must belong"
            )
    core = frozenset(X)
    for S in mem:
        core &= S
    if len(core) != 1:
        raise ValidationError("internal: a finite ultrafilter must concentrate on one point")
    return Ultrafilter(X, tuple(mem), next(iter(core)))


def principal_ultrafilter(ground: Sequence, point) -> Ultrafilter:
    X = tuple(sorted(set(ground), key=repr))
    if point not in X:
        raise ValidationError(f"principal point {point!r} not in the ground set")
    members = [
        frozenset(S)
        for r in range(1, len(X) + 1)
        for S in itertools.combinations(X, r)
        if point in S
    ]
    return validate_ultrafilter(X, members)


@dataclass(frozen=True)
class UltraInstance:
    host: FiniteCategory
    family: tuple[int, ...]  # object ids indexed like the sorted ground set
    ultrafilter: Ultrafilter

    def __post_init__(self):
        if len(self.family) != len(self.ultrafilter.ground):
            raise ValidationError("family must be indexed by the full ground set")
        for o in self.family:
            if not (0 <= o < self.host.n_objects):
                raise ValidationError("family member outside the host")

    def member_objects(self, S: frozenset) -> list[int]:
        X = self.ultrafilter.ground
        return [self.family[X.index(x)] for x in sorted(S, key=repr)]


# -- the triple category -------------------------------------------------------


def sigma_category(inst: UltraInstance, max_objects: int = 600) -> tuple[FiniteCategory, FunctorData]:
    """Objects are triples (host object, member set, cone onto the family).

    A morphism ``(N,S,u) -> (N',S',u')`` is ``h: N -> N'`` with ``S'`` a
    subset of ``S`` whose components satisfy ``u'_s ∘ h = u_s``; the
    projection functor forgets to the first coordinate.  The result is
    re-validated as a finite category.
    """
    host = inst.host
    members = inst.ultrafilter.members
    objs: list[tuple[int, frozenset, tuple[int, ...]]] = []
    for N in range(host.n_objects):
        for S in members:
            pools = [host.hom(N, m) for m in inst.member_objects(S)]
            for u in itertools.product(*pools):
                objs.append((N, S, u))
                if len(objs) > max_objects:
                    raise BoundExceeded("sigma_objects", f"> {max_objects}")
    mors: list[tuple[int, int, int]] = []  # (source obj, target obj, h)
    for i, (N, S, u) in enumerate(objs):
        for j, (N2, S2, u2) in enumerate(objs):
            if not (S2 <= S):
                continue
            positions = [sorted(S, key=repr).index(x) for x in sorted(S2, key=repr)]
            for h in host.hom(N, N2):
                if all(host.table[u2[k]][h] == u[positions[k]] for k in range(len(u2))):
                    mors.append((i, j, h))

    def oname(o):
        N, S, u = o
        return f"({host.objects[N]},{{{','.join(map(repr, sorted(S, key=repr)))}}},{','.join(host.morphisms[x] for x in u)})"

    cat, _ = category_from_arrows(
        [oname(o) for o in objs], mors, [host.identity[N] for (N, _, _) in objs],
        lambda g, f: host.table[g[2]][f[2]],
        [f"{host.morphisms[h]}:{i}->{j}" for (i, j, h) in mors],
        f"Sigma({host.name})",
    )
    pi = FunctorData(
        cat, host,
        tuple(N for (N, _, _) in objs),
        tuple(h for (_, _, h) in mors),
    )
    return cat, pi


def sigma_colimit(inst: UltraInstance) -> Optional[Cocone]:
    """The colimit of the projection out of the triple category, if any."""
    sigma, pi = sigma_category(inst)
    return colimit_in_category(Diagram(sigma, pi))


# -- the direct universal-property search --------------------------------------


@dataclass(frozen=True, eq=False)
class UltraCocone:
    obj: int
    legs: dict  # member set -> NatTransformation into yoneda(host, obj)


def _stage_presheaves(inst: UltraInstance):
    host = inst.host
    members = inst.ultrafilter.members
    reps = {o: ps.yoneda(host, o) for o in set(inst.family)}
    stages = {}
    for S in members:
        stages[S] = ps.product(host, [reps[o] for o in inst.member_objects(S)], name=f"P{sorted(map(repr, S))}")
    return stages


def _restriction_components(inst, stages, S: frozenset, S2: frozenset):
    positions = [sorted(S, key=repr).index(x) for x in sorted(S2, key=repr)]
    src, tgt = stages[S].apex, stages[S2].apex
    comps = tuple(
        {tup: tuple(tup[k] for k in positions) for tup in src.values[a]}
        for a in range(src.base.n_objects)
    )
    return ps.NatTransformation(src, tgt, comps, check=False)


def _cocones_into(inst, stages, N: int) -> list[dict]:
    """All compatible families of stage maps into the representable at ``N``,
    in the order of ``itertools.product`` over each member's hom-set.

    The stage map at a member is compatible when it is the composite of the
    map at every earlier member it contains with the restriction onto that
    stage (members are sorted by size, so none contains a later one).  So a
    decided map forces the map at every later member containing its own, a
    map forced twice clashes unless the components agree, and only a member
    that contains no earlier member is branched on, over its hom-set.
    """
    host = inst.host
    members = inst.ultrafilter.members
    YN = ps.yoneda(host, N)
    # member index -> [(later member containing it, restriction components)]
    above = [
        [(j, _restriction_components(inst, stages, T, S).components) for j, T in enumerate(members) if S < T]
        for S in members
    ]
    branched = [k for k, S in enumerate(members) if not any(S2 < S for S2 in members[:k])]
    choices = {k: [t.components for t in ps.hom_set(stages[members[k]].apex, YN)] for k in branched}

    def forced(k: int, comps, _assigned):
        return [(j, tuple({x: comps[a][y] for x, y in r.items()} for a, r in enumerate(res))) for j, res in above[k]]

    return [
        {S: ps.NatTransformation(stages[S].apex, YN, assigned[k], check=False) for k, S in enumerate(members)}
        for assigned in backtrack(branched, choices.__getitem__, forced)
    ]


def universal_ultraproduct(inst: UltraInstance) -> Optional[UltraCocone]:
    """Search the host for the cocone universal among representable cocones.

    Universality is confirmed against every competing cocone: each must
    factor through the candidate by a unique host morphism.  The answer
    depends only on the host, the family and the ultrafilter, so it is
    kept in ``host._cache``; callers must not mutate it.
    """
    host = inst.host
    key = ("ultraproduct", inst.family, inst.ultrafilter)
    if key not in host._cache:
        host._cache[key] = _search_ultraproduct(inst)
    return host._cache[key]


def _search_ultraproduct(inst: UltraInstance) -> Optional[UltraCocone]:
    host = inst.host
    stages = _stage_presheaves(inst)
    members = inst.ultrafilter.members

    def legs(cocone: dict) -> tuple[int, ...]:
        # every component value is a host morphism into the cocone's object
        return tuple(
            cocone[S].components[a][x]
            for S in members
            for a in range(host.n_objects)
            for x in stages[S].apex.values[a]
        )

    competitors = [(N, c, legs(c)) for N in range(host.n_objects) for c in _cocones_into(inst, stages, N)]
    pairs = [(N, ls) for (N, _, ls) in competitors]
    for P, delta, ls in competitors:
        if is_universal(host, P, ls, pairs, cocone=True):
            return UltraCocone(P, delta)
    return None


# -- the products-and-filtered-colimits formula --------------------------------


def _member_poset(uf: Ultrafilter) -> FiniteCategory:
    members = uf.members
    n = len(members)
    mors = [(i, j, None) for i in range(n) for j in range(n) if members[j] <= members[i]]
    cat, _ = category_from_arrows(
        ["{" + ",".join(map(repr, sorted(S, key=repr))) + "}" for S in members],
        mors, [None] * n, lambda g, f: None,
        [f"r{i}->{j}" for (i, j, _) in mors], "members",
    )
    return cat


def categorical_ultraproduct(base: FiniteCategory, family: Sequence[ps.SetFunctor], uf: Ultrafilter) -> ps.SetFunctor:
    """Filtered colimit of member-indexed products, computed pointwise."""
    members = uf.members
    X = uf.ground
    shape = _member_poset(uf)
    op = opposite(base)
    vertices = tuple(
        ps.product(op, [family[X.index(x)].as_presheaf() for x in sorted(S, key=repr)]).apex
        for S in members
    )
    edges = []
    for s in range(shape.n_morphisms):
        i, j = shape.src[s], shape.tgt[s]
        S, S2 = members[i], members[j]
        positions = [sorted(S, key=repr).index(x) for x in sorted(S2, key=repr)]
        comps = tuple(
            {tup: tuple(tup[k] for k in positions) for tup in vertices[i].values[a]}
            for a in range(op.n_objects)
        )
        edges.append(ps.NatTransformation(vertices[i], vertices[j], comps, check=False))
    cocone = ps.colimit(ps.PresheafDiagram(shape, vertices, tuple(edges)), base=op, name="ultra")
    Q = cocone.apex
    return ps.SetFunctor(base, Q.values, Q.actions, name="ultraproduct")


# -- closure of a dense subcategory under ultraproducts ------------------------


def _comma_diagram(host: FiniteCategory, m_objects: Sequence[int], k: int) -> tuple[Diagram, tuple[int, ...]]:
    objs = [(m, g) for m in m_objects for g in host.hom(m, k)]
    mors = []
    for i, (m, g) in enumerate(objs):
        for j, (m2, g2) in enumerate(objs):
            for h in host.hom(m, m2):
                if host.table[g2][h] == g:
                    mors.append((i, j, h))
    shape, _ = category_from_arrows(
        [f"({host.objects[m]},{host.morphisms[g]})" for (m, g) in objs],
        mors, [host.identity[m] for (m, _) in objs],
        lambda g, f: host.table[g[2]][f[2]],
        [f"h{i}" for i in range(len(mors))],
        f"({host.name} down {host.objects[k]})",
    )
    body = FunctorData(shape, host, tuple(m for (m, _) in objs), tuple(h for (_, _, h) in mors))
    legs = tuple(g for (_, g) in objs)
    return Diagram(shape, body), legs


def verify_density(host: FiniteCategory, m_objects: Sequence[int]) -> None:
    """Every host object must be the colimit of its canonical diagram."""
    for k in range(host.n_objects):
        diagram, legs = _comma_diagram(host, m_objects, k)
        if not is_colimit(diagram, k, legs):
            raise DensityUnverified(host.objects[k])


@dataclass(frozen=True)
class ClosureReport:
    dense: bool
    ultraproduct_in_subcategory: bool
    subcategory_object: Optional[int]
    agrees: bool
    passed: bool

    def to_json(self) -> dict:
        return {
            "dense": self.dense,
            "ultraproduct_in_subcategory": self.ultraproduct_in_subcategory,
            "subcategory_object": self.subcategory_object,
            "agrees": self.agrees,
            "passed": self.passed,
        }


def closure_check(host: FiniteCategory, m_objects: Sequence[int], inst: UltraInstance) -> ClosureReport:
    """If the ambient ultraproduct of a family from the subcategory lands in
    the subcategory, it must satisfy the universal property there too.

    Density of the subcategory is verified first; the family must be drawn
    from the subcategory.
    """
    m_objects = list(m_objects)
    if inst.host != host:
        raise ValidationError("instance must live in the ambient category")
    if any(o not in m_objects for o in inst.family):
        raise ValidationError("family must come from the subcategory")
    verify_density(host, m_objects)
    big = universal_ultraproduct(inst)
    if big is None:
        return ClosureReport(True, False, None, False, False)
    in_m = None
    for m in m_objects:
        if any(f in host.isos() for f in host.hom(big.obj, m)):
            in_m = m
            break
    if in_m is None:
        return ClosureReport(True, False, None, False, False)
    # the full subcategory on every object, in order, has the host's tables
    # and so the host's ultraproduct, which is already kept on the host
    sub = host if m_objects == list(range(host.n_objects)) else full_subcategory(host, m_objects)
    sub_inst = UltraInstance(sub, tuple(m_objects.index(o) for o in inst.family), inst.ultrafilter)
    small = universal_ultraproduct(sub_inst)
    agrees = small is not None and m_objects[small.obj] == in_m or (
        small is not None
        and any(f in host.isos() for f in host.hom(m_objects[small.obj], in_m))
    )
    return ClosureReport(True, True, in_m, bool(agrees), bool(agrees))
