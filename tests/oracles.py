"""Brute-force re-implementations used as independent ground truth.

Nothing here calls the engine's weight machinery, union-find quotients,
detector shortcuts or search kernel: cones are enumerated directly from the
composition table and the definitional factorization conditions are checked
verbatim.  The exceptions are the reference constructions at the end, which
build through the engine's checked presheaf limits and concrete functors (and,
for the ultraproduct cocones, its search kernel) the answers that faster
routes must reproduce byte for byte.
"""
from __future__ import annotations

import itertools
from types import SimpleNamespace


def enumerate_cones(diagram):
    """All cones over a diagram, straight from the definition."""
    C, S = diagram.target, diagram.shape
    out = []
    for apex in range(C.n_objects):
        pools = [C.hom(apex, diagram.vertex(d)) for d in range(S.n_objects)]
        for legs in itertools.product(*pools):
            if all(
                C.table[diagram.body.morphism_map[s]][legs[S.src[s]]] == legs[S.tgt[s]]
                for s in range(S.n_morphisms)
            ):
                out.append((apex, legs))
    return out


def _factorizations(C, cone, through):
    """Morphisms f with ``through.legs ∘ f == cone.legs`` componentwise."""
    (apex, legs), (apex2, legs2) = cone, through
    return [
        f
        for f in C.hom(apex, apex2)
        if all(C.table[legs2[d]][f] == legs[d] for d in range(len(legs)))
    ]


def enumerate_functors_recursive(source, target, rng=None):
    """Every functor ``source -> target`` as ``(object_map, morphism_map)``,
    by the recursive search that ``fincat.enumerate_functors`` ran before it
    moved onto ``fincat.backtrack``: the order oracle of the port.

    Backtracks over ``fincat._generators(source)`` per object map, forcing
    every composite whose factors are decided, and re-checks functoriality
    of each complete map; ``rng`` shuffles the pools exactly as the engine
    does, so a generator seeded alike draws the same sequence.
    """
    from catengine.fincat import _generators

    gens = _generators(source)
    n = source.n_morphisms
    left_of = [[] for _ in range(n)]   # m -> [(g, g∘m)]
    right_of = [[] for _ in range(n)]  # m -> [(f, m∘f)]
    for g in range(n):
        for f in range(n):
            c = source.table[g][f]
            if c >= 0:
                left_of[f].append((g, c))
                right_of[g].append((f, c))

    def choices(seq):
        seq = list(seq)
        if rng is not None:
            rng.shuffle(seq)
        return seq

    for omap in itertools.product(*[choices(range(target.n_objects)) for _ in range(source.n_objects)]):
        pools = []
        feasible = True
        for m in gens:
            pool = choices(target.hom(omap[source.src[m]], omap[source.tgt[m]]))
            if not pool:
                feasible = False
                break
            pools.append(pool)
        if not feasible:
            continue
        mmap = [-1] * n
        for a in range(source.n_objects):
            mmap[source.identity[a]] = target.identity[omap[a]]

        def assign(m, val, trail) -> bool:
            stack = [(m, val)]
            while stack:
                mm, vv = stack.pop()
                if mmap[mm] != -1:
                    if mmap[mm] != vv:
                        return False
                    continue
                mmap[mm] = vv
                trail.append(mm)
                for (g, c) in left_of[mm]:
                    if mmap[g] != -1:
                        stack.append((c, target.table[mmap[g]][vv]))
                for (f, c) in right_of[mm]:
                    if mmap[f] != -1:
                        stack.append((c, target.table[vv][mmap[f]]))
            return True

        def rec(k):
            if k == len(gens):
                ok = all(
                    mmap[source.table[g][f]] == target.table[mmap[g]][mmap[f]]
                    for g in range(n)
                    for f in range(n)
                    if source.table[g][f] >= 0
                )
                if ok and all(v != -1 for v in mmap):
                    yield tuple(omap), tuple(mmap)
                return
            m = gens[k]
            if mmap[m] != -1:
                yield from rec(k + 1)
                return
            for val in pools[k]:
                trail: list[int] = []
                if assign(m, val, trail):
                    yield from rec(k + 1)
                for mm in trail:
                    mmap[mm] = -1

        yield from rec(0)


def weak_limit_exists(diagram) -> bool:
    C = diagram.target
    cones = enumerate_cones(diagram)
    return any(
        all(_factorizations(C, e, delta) for e in cones) for delta in cones
    )


def multilimit_exists(diagram) -> bool:
    C = diagram.target
    cones = enumerate_cones(diagram)
    for r in range(len(cones) + 1):
        for family in itertools.combinations(cones, r):
            ok = True
            for e in cones:
                hits = [
                    (i, f)
                    for i, delta in enumerate(family)
                    for f in _factorizations(C, e, delta)
                ]
                if len(hits) != 1:
                    ok = False
                    break
            if ok:
                return True
    return False


def fc_minimum_size(diagram) -> int:
    C = diagram.target
    cones = enumerate_cones(diagram)
    for r in range(len(cones) + 1):
        for family in itertools.combinations(cones, r):
            if all(
                any(_factorizations(C, e, delta) for delta in family) for e in cones
            ):
                return r
    raise AssertionError("the set of all cones always covers itself")


def fc_limit_by_subsets(v):
    """The first minimum-size covering family of the virtual limit ``v``,
    by searching its element subsets by size and then in
    ``itertools.combinations`` order; members as ``(object, cone)``."""
    elems = v.elements()
    cover = [frozenset(j for j, e in enumerate(elems) if v.arrows(e, cand)) for cand in elems]
    everything = frozenset(range(len(elems)))
    for k in range(len(elems) + 1):
        for combo in itertools.combinations(range(len(elems)), k):
            if frozenset().union(*(cover[i] for i in combo)) == everything:
                return [(elems[i][0], v.cone_index[elems[i]]) for i in combo]
    raise AssertionError("the set of all cones always covers itself")


def polylimit_exists(diagram) -> bool:
    C = diagram.target
    cones = enumerate_cones(diagram)
    isos = C.isos()

    def cone_automorphisms(delta):
        apex, legs = delta
        return [
            g
            for g in C.hom(apex, apex)
            if g in isos and all(C.table[legs[d]][g] == legs[d] for d in range(len(legs)))
        ]

    for r in range(len(cones) + 1):
        for family in itertools.combinations(cones, r):
            ok = True
            for e in cones:
                hits = [i for i, delta in enumerate(family) if _factorizations(C, e, delta)]
                if len(hits) != 1:
                    ok = False
                    break
                delta = family[hits[0]]
                fs = _factorizations(C, e, delta)
                auts = cone_automorphisms(delta)
                for f in fs:
                    for f2 in fs:
                        links = [g for g in auts if C.table[g][f] == f2]
                        if len(links) != 1:
                            ok = False
                            break
                    if not ok:
                        break
                if not ok:
                    break
            if ok:
                return True
    return False


def naive_quotient_classes(items, pairs):
    """Equivalence classes by repeated scanning; no union-find."""
    classes = [{it} for it in items]

    def find(x):
        for i, c in enumerate(classes):
            if x in c:
                return i
        raise KeyError(x)

    changed = True
    while changed:
        changed = False
        for (x, y) in pairs:
            i, j = find(x), find(y)
            if i != j:
                classes[min(i, j)] |= classes[max(i, j)]
                del classes[max(i, j)]
                changed = True
    return classes


def connected_components(items, pairs):
    """Classes of the equivalence generated by ``pairs``, by breadth-first
    search over the undirected graph they span; each class lists its
    members in the order they are reached, starting from the first item."""
    neighbours = {it: [] for it in items}
    for (x, y) in pairs:
        neighbours[x].append(y)
        neighbours[y].append(x)
    seen, classes = set(), []
    for start in items:
        if start in seen:
            continue
        seen.add(start)
        component = [start]
        for x in component:  # grows while it is read: a breadth-first queue
            for y in neighbours[x]:
                if y not in seen:
                    seen.add(y)
                    component.append(y)
        classes.append(component)
    return classes


def coend_classes(W, F):
    """Coend of a presheaf weight against a covariant functor, naively."""
    C = W.base
    items = [
        (c, w, x)
        for c in range(C.n_objects)
        for w in W.values[c]
        for x in F.values[c]
    ]
    pairs = []
    for f in range(C.n_morphisms):
        a, b = C.src[f], C.tgt[f]
        for w in W.values[b]:
            for x in F.values[a]:
                pairs.append(((a, W.actions[f][w], x), (b, w, F.actions[f][x])))
    return naive_quotient_classes(items, pairs)


def finset_limit(diagram, F):
    """Limit of ``F`` composed with a diagram, as tuples of compatible values."""
    S = diagram.shape
    return [
        tup
        for tup in itertools.product(*[F.values[diagram.vertex(d)] for d in range(S.n_objects)])
        if all(
            F.actions[diagram.body.morphism_map[s]][tup[S.src[s]]] == tup[S.tgt[s]]
            for s in range(S.n_morphisms)
        )
    ]


def all_pointwise_bijections_natural(M, N):
    """Exhaustive isomorphism search: every pointwise bijection, checked."""
    C = M.base
    if M.fiber_sizes() != N.fiber_sizes():
        return False
    pools = []
    for a in range(C.n_objects):
        pools.append([dict(zip(M.values[a], perm)) for perm in itertools.permutations(N.values[a])])
    for comps in itertools.product(*pools):
        natural = all(
            comps[C.src[f]][M.actions[f][x]] == N.actions[f][comps[C.tgt[f]][x]]
            for f in range(C.n_morphisms)
            for x in M.values[C.tgt[f]]
        )
        if natural:
            return True
    return False


def representable_cone_factorizations(diagram_vertices, diagram_edges_at, limit_apex, legs_at, base):
    """Helper for the limit verifier: cones with representable apex.

    A cone with apex the representable at ``c`` is exactly a compatible
    family of elements at ``c``; this enumerates them without consulting
    the limit construction.
    """
    out = []
    for c in range(base.n_objects):
        for tup in itertools.product(*[v.values[c] for v in diagram_vertices]):
            if all(edge.components[c][tup[i]] == tup[j] for (i, j, edge) in diagram_edges_at):
                out.append((c, tup))
    return out


def nat_transformations_in_order(M, N):
    """Every natural transformation ``M -> N`` as a tuple of components, by
    brute force: ``itertools.product`` over an image in ``N.values`` order
    for each element of ``M`` in ``(object, element)`` order, kept when
    natural."""
    C = M.base
    slots = [(a, x) for a in range(C.n_objects) for x in M.values[a]]
    out = []
    for images in itertools.product(*[N.values[a] for a, _ in slots]):
        comps = tuple({} for _ in range(C.n_objects))
        for (a, x), y in zip(slots, images):
            comps[a][x] = y
        if all(
            comps[C.src[f]][M.actions[f][x]] == N.actions[f][comps[C.tgt[f]][x]]
            for f in range(C.n_morphisms)
            for x in M.values[C.tgt[f]]
        ):
            out.append(comps)
    return out


def family_homs(base, fam1, fam2):
    """Family-form morphisms ``fam1 -> fam2`` between finite families of base
    objects: an index map ``phi`` plus one base morphism
    ``fam1[i] -> fam2[phi[i]]`` per index."""
    return [
        (phi, fs)
        for phi in itertools.product(range(len(fam2)), repeat=len(fam1))
        for fs in itertools.product(*[base.hom(a, fam2[k]) for a, k in zip(fam1, phi)])
    ]


def _sends_to_limit(values, actions, cone) -> bool:
    """Is the cone's image a limit of finite sets: is ``x -> (leg(x))`` a
    bijection from the apex's values onto the compatible tuples?"""
    lim = finset_limit(cone.diagram, SimpleNamespace(values=values, actions=actions))
    image = [tuple(actions[leg][x] for leg in cone.legs) for x in values[cone.apex]]
    return len(set(image)) == len(image) and set(image) == set(lim)


def _sends_to_colimit(values, actions, cocone) -> bool:
    """Is the cocone's image a colimit of finite sets: does every class of
    the glued values (``naive_quotient_classes``) go to one value of the
    apex, and each value of the apex come from exactly one class?"""
    D, S = cocone.diagram, cocone.diagram.shape
    items = [(d, x) for d in range(S.n_objects) for x in values[D.vertex(d)]]
    pairs = [
        ((S.src[s], x), (S.tgt[s], actions[D.body.morphism_map[s]][x]))
        for s in range(S.n_morphisms)
        for x in values[D.vertex(S.src[s])]
    ]
    images = []
    for cls in naive_quotient_classes(items, pairs):
        image = {actions[cocone.legs[d]][x] for d, x in cls}
        if len(image) != 1:
            return False
        images += image
    return len(set(images)) == len(images) and set(images) == set(values[cocone.apex])


def sketch_models_by_filter(sk, value_bound, rng=None):
    """The models of a sketch as ``(values, actions)`` tables, by
    generate-and-filter with no prune: every functor into
    FinSet<=value_bound that ``enumerate_functors_recursive`` draws (``rng``
    shuffles as the engine does), decoded and kept when it sends each limit
    spec to a limit, each coproduct spec to a colimit and each fc-epi family
    onto its target.  The referee of ``localize.models``."""
    from catengine.fincat import finset_category

    FS, decode = finset_category(value_bound)
    out = []
    for omap, mmap in enumerate_functors_recursive(sk.host, FS, rng):
        values = tuple(tuple(range(decode[FS.identity[o]][0])) for o in omap)
        actions = tuple({i: y for i, y in enumerate(decode[f][2])} for f in mmap)
        if (
            all(_sends_to_limit(values, actions, cone) for cone in sk.limit_specs)
            and all(_sends_to_colimit(values, actions, cocone) for cocone in sk.coproduct_specs)
            and all(
                {actions[e][x] for e in fam for x in values[sk.host.src[e]]} == set(values[sk.host.tgt[fam[0]]])
                for fam in sk.fc_epi_specs
            )
        ):
            out.append((values, actions))
    return out


# -- reference constructions ---------------------------------------------------


def injection_pullbacks_witness(E, scope):
    """The witness of ``coproducts_universal`` over ``scope``, or None, by
    the full listing the battery ran before it was certified by connected
    components: for each pair ``i <= j`` of the scope whose coproduct ``E``
    holds as ``M{k}``, each scoped ``x``, each ``h: M{x} -> M{k}`` and each
    injection, the subpresheaf of ``M{x}`` that ``h`` sends into the
    injection's summand is looked up in ``E``, and the first one missing is
    named."""
    from catengine import presheaf as ps

    base, objects = E.base, E.objects
    cocones = [
        (i, j, ps.coproduct(base, [objects[i], objects[j]]))
        for i, j in itertools.combinations_with_replacement(scope, 2)
    ]
    for i, j, cocone in cocones:
        k = E.find_object(cocone.apex)
        if k is None:
            continue
        iso = ps.find_iso(objects[k], cocone.apex)
        for x in scope:
            for h in E.homs(x, k):
                hx = ps.compose_nats(iso, h)
                for piece in (0, 1):
                    keep = [
                        [u for u in objects[x].values[a] if hx.components[a][u][0] == piece]
                        for a in range(base.n_objects)
                    ]
                    if E.find_object(ps.subpresheaf(objects[x], keep)[0]) is None:
                        return f"pullback of injection {piece} of M{i}+M{j} along M{x}->M{k} missing"
    return None


def pullbacks_witness(E, scope):
    """The witness of ``regular_epi_stability`` over ``scope``, or None, by
    the full listing: for each pointwise surjective ``e: M{i} -> M{j}``,
    each scoped ``i2`` and each ``g: M{i2} -> M{j}``, the pullback of ``e``
    along ``g`` is looked up in ``E``, and the first one missing is named."""
    from catengine import presheaf as ps

    for i in scope:
        for j in scope:
            for e in E.homs(i, j):
                if e.is_pointwise_surjective():
                    for i2 in scope:
                        for g in E.homs(i2, j):
                            if E.find_object(ps.pullback(e, g).apex) is None:
                                return f"pullback of epi M{i}->M{j} along M{i2}->M{j} missing"
    return None


def kernel_pairs_witness(E, scope):
    """The witness of ``kernel_pair_quotients`` over ``scope``, or None, by
    the full listing: for each ``t: M{i} -> M{j}`` in hom-set order, its
    kernel pair and then its image are looked up in ``E``, and the first
    one missing is named."""
    from catengine import presheaf as ps

    for i in scope:
        for j in scope:
            for t in E.homs(i, j):
                if E.find_object(ps.pullback(t, t).apex) is None:
                    return f"kernel pair of M{i}->M{j} missing"
                if E.find_object(ps.epi_mono_factorize(t)[0].target) is None:
                    return f"coequalizer of the kernel pair of M{i}->M{j} missing"
    return None


def relation_quotients_witness(E, scope):
    """The witness of ``effective_equivalence_relations`` over ``scope``, or
    None, by walking pairs of maps: for each scoped ``R``, ``M`` with
    ``|M(a)| <= |R(a)| <= |M(a)|^2`` at every object (no other pair can be a
    jointly monic, reflexive relation) and each pair ``r1``, ``r2`` of
    ``hom(R, M)`` at positions ``p <= q`` that is jointly monic with an
    equivalence relation as image, the quotient of ``M`` by that relation
    is looked up in ``E``, and the first one missing is named."""
    from catengine import presheaf as ps

    base, objects = E.base, E.objects
    for i in scope:
        R = objects[i]
        for j in scope:
            M = objects[j]
            if not all(m <= r <= m * m for r, m in zip(R.fiber_sizes(), M.fiber_sizes())):
                continue
            ts = E.homs(i, j)
            for p, q in itertools.combinations_with_replacement(range(len(ts)), 2):
                pairs = [
                    (a, ts[p].components[a][x], ts[q].components[a][x])
                    for a in range(base.n_objects) for x in R.values[a]
                ]
                if _is_equivalence(M, pairs) and E.find_object(ps.quotient_presheaf(M, pairs)[0]) is None:
                    return f"quotient of M{j} by M{i} missing"
    return None


def _is_equivalence(M, pairs) -> bool:
    """Are the ``(a, x, y)`` pairs distinct, and in each fiber of ``M`` a
    reflexive, symmetric and transitive relation?"""
    if len(set(pairs)) != len(pairs):
        return False
    rel = set(pairs)
    return all((a, x, x) in rel for a, fiber in enumerate(M.values) for x in fiber) and all(
        (a, y, x) in rel and all((a, x, z) in rel for (b, y2, z) in rel if (b, y2) == (a, y))
        for (a, x, y) in rel
    )


def congruences_by_filter(M):
    """Every congruence of ``M``, as each element's class (the least index
    of a member) per fiber: every partition of every fiber, kept when
    related elements act to related elements."""
    C = M.base

    def partitions(n):
        # restricted growth: each element joins an earlier class or opens one
        def grow(labels):
            if len(labels) == n:
                first: dict = {}
                yield tuple(first.setdefault(c, k) for k, c in enumerate(labels))
                return
            for c in sorted(set(labels)) + [len(labels)]:
                yield from grow(labels + [c])
        return grow([])

    out = []
    for theta in itertools.product(*(partitions(len(fiber)) for fiber in M.values)):
        index = [{x: k for k, x in enumerate(fiber)} for fiber in M.values]
        if all(
            theta[C.src[f]][index[C.src[f]][M.actions[f][x]]] == theta[C.src[f]][index[C.src[f]][M.actions[f][y]]]
            for f in range(C.n_morphisms)
            for k, x in enumerate(M.values[C.tgt[f]])
            for l, y in enumerate(M.values[C.tgt[f]])
            if theta[C.tgt[f]][k] == theta[C.tgt[f]][l]
        ):
            out.append(theta)
    return out


def virtual_limit_by_presheaf_limit(cat, diagram):
    """The weight of ``virtlim.virtual_limit(cat, diagram)`` built as the
    pointwise limit of a checked diagram of representables and checked
    postcomposition maps: values, actions, their order and the name, and
    the same ``FiberCapExceeded`` where a fiber is too large."""
    from catengine import presheaf as ps

    S = diagram.shape
    vertices = tuple(ps.yoneda(cat, diagram.vertex(d)) for d in range(S.n_objects))
    edges = tuple(ps.yoneda_map(cat, diagram.body.morphism_map[s]) for s in range(S.n_morphisms))
    return ps.limit(ps.PresheafDiagram(S, vertices, edges), base=cat, name=f"lim Y{diagram.describe()}").apex


def _checked(M):
    """A presheaf, transformation or concrete functor rebuilt with every check."""
    import dataclasses

    return dataclasses.replace(M, check=True)


def checked_concrete(F):
    """``F`` as a ``ConcreteFunctor`` whose presheaves, transformations and
    functor laws are all checked; a ``SetFunctor`` goes through
    ``ConcreteFunctor.from_set_functor`` first, so its output is checked too."""
    from catengine import flatness as fl, presheaf as ps

    if isinstance(F, ps.SetFunctor):
        F = fl.ConcreteFunctor.from_set_functor(F)
    C = F.source
    objs = tuple(_checked(M) for M in F.objects)
    mors = tuple(
        ps.NatTransformation(objs[C.src[m]], objs[C.tgt[m]], t.components) for m, t in enumerate(F.morphisms)
    )
    return fl.ConcreteFunctor(C, F.target_base, objs, mors, name=F.name)


def composite_limit_by_presheaves(F, diagram):
    """The pointwise limit of a concrete functor composed with ``diagram``,
    through a checked presheaf diagram; the apex, checked."""
    from catengine import presheaf as ps

    S = diagram.shape
    composite = ps.PresheafDiagram(
        S,
        tuple(F.objects[diagram.vertex(d)] for d in range(S.n_objects)),
        tuple(F.morphisms[diagram.body.morphism_map[s]] for s in range(S.n_morphisms)),
    )
    return _checked(ps.limit(composite, base=F.target_base).apex)


def weighted_colimit_by_presheaves(W, F):
    """The colimit of a concrete functor weighted by ``W``, as a checked
    presheaf over the target base: at each fiber, the triples ``(c, w, u)``
    identified along ``(a, W(f)(w), u) ~ (b, w, F(f)(u))`` by breadth-first
    search, each class named by its first member."""
    from catengine import presheaf as ps

    C, B = F.source, F.target_base
    values, rep_of = [], []
    for b in range(B.n_objects):
        items = [(c, w, u) for c in range(C.n_objects) for w in W.values[c] for u in F.objects[c].values[b]]
        pairs = [
            ((C.src[f], W.actions[f][w], u), (C.tgt[f], w, F.morphisms[f].components[b][u]))
            for f in range(C.n_morphisms)
            for w in W.values[C.tgt[f]]
            for u in F.objects[C.src[f]].values[b]
        ]
        classes = connected_components(items, pairs)
        values.append(tuple(cls[0] for cls in classes))
        rep_of.append({x: cls[0] for cls in classes for x in cls})
    actions = tuple(
        {(c, w, u): rep_of[B.src[g]][(c, w, F.objects[c].actions[g][u])] for (c, w, u) in values[B.tgt[g]]}
        for g in range(B.n_morphisms)
    )
    return ps.Presheaf(B, tuple(values), actions, name=f"({W.name})*({F.name})")


# method -> (virtlim detector, or None for the weighted colimit; raised when
#            it finds nothing; whether the comparison must be bijective;
#            failure detail)
FLAT_ROUTES = {
    "definitional": (None, None, True, "weighted colimit does not match the limit"),
    "covering": ("weak_limit", "NoWeakLimit", False, "weak-limit comparison is not a regular epi"),
    "multi": ("multilimit", "NoMultilimit", True, "multilimit comparison is not an isomorphism"),
    "fc": ("fc_limit", None, False, "fc-family comparison is not a regular epi"),
    "merge": ("multi_finite_limit", "NoMultiFiniteLimit", True, "multi-finite comparison is not an isomorphism"),
}


def flat_by_presheaves(method, F, bound=0):
    """The ``FlatVerdict`` of the flatness route ``method`` (a key of
    ``FLAT_ROUTES``) on ``F``, a ``SetFunctor`` or ``ConcreteFunctor``,
    decided through presheaf objects: for each swept diagram, the composite
    limit, the weighted colimit or the coproduct of the detected family,
    and the comparison map into the limit are built as presheaves and
    transformations with every check, and the comparison is tested
    pointwise bijective or surjective."""
    from catengine import errors, flatness as fl, presheaf as ps, virtlim as vl

    detector, missing, bijective, detail = FLAT_ROUTES[method]
    F = checked_concrete(F)
    C, B = F.source, F.target_base
    for diagram in vl.swept_diagrams(C, bound) if bound > 0 else vl.generating_diagrams(C):
        v = vl.virtual_limit(C, diagram)
        # legs(x): the element of F under x and the legs that map it into the limit
        if detector is None:
            source = weighted_colimit_by_presheaves(v.weight, F)
            legs = lambda x: (x[2], x[1])  # noqa: E731
        else:
            found = getattr(vl, detector)(v)
            if found is None:
                raise getattr(errors, missing)(diagram.describe())
            if detector == "weak_limit":
                source, cone = F.objects[found[0]], found[1]
                legs = lambda x: (x, cone.legs)  # noqa: E731
            else:
                source = _checked(ps.coproduct(B, [F.objects[c] for (c, _) in found]).apex)
                legs = lambda x: (x[1], found[x[0]][1].legs)  # noqa: E731
        lim = composite_limit_by_presheaves(F, diagram)
        comps = []
        for b in range(B.n_objects):
            comp = {}
            for x in source.values[b]:
                u, through = legs(x)
                comp[x] = tuple(F.morphisms[leg].components[b][u] for leg in through)
            if detector is None and not set(comp.values()) <= set(lim.values[b]):
                raise errors.ValidationError("internal: comparison map leaves the limit")
            comps.append(comp)
        comparison = ps.NatTransformation(source, lim, tuple(comps))
        if not (comparison.is_pointwise_bijective() if bijective else comparison.is_pointwise_surjective()):
            return fl.FlatVerdict(False, fl.FailingWeight(diagram.describe(), detail), method)
    return fl.FlatVerdict(True, None, method)


def preserves_limit_concrete(F, cone):
    """``flatness.preserves_limit`` through presheaf objects: the comparison
    from ``F(apex)`` into the checked pointwise limit of the composite, a
    checked transformation, must be bijective."""
    from catengine import presheaf as ps

    conc = checked_concrete(F)
    lim = composite_limit_by_presheaves(conc, cone.diagram)
    comps = tuple(
        {u: tuple(conc.morphisms[leg].components[b][u] for leg in cone.legs) for u in conc.objects[cone.apex].values[b]}
        for b in range(conc.target_base.n_objects)
    )
    return ps.NatTransformation(conc.objects[cone.apex], lim, comps).is_pointwise_bijective()


def ultra_cocones_by_branching(inst, stages, N):
    """Every compatible family of stage maps into the representable at
    ``N``, as ``ultra._cocones_into`` listed it before forced legs were
    composed: one variable per member, each branched over its full hom-set
    and checked against the earlier members it contains."""
    from catengine import presheaf as ps
    from catengine.fincat import backtrack
    from catengine.ultra import _restriction_components

    members = inst.ultrafilter.members
    YN = ps.yoneda(inst.host, N)
    res = {
        (S, S2): _restriction_components(inst, stages, S, S2)
        for S in members
        for S2 in members
        if S2 <= S
    }
    choices = [ps.hom_set(stages[S].apex, YN) for S in members]

    def compatible(k, cand, chosen):
        S = members[k]
        for i in range(k):
            S2 = members[i]
            if S2 <= S and ps.compose_nats(chosen[i], res[(S, S2)]).components != cand.components:
                return None
        return ()

    return [
        {S: chosen[i] for i, S in enumerate(members)}
        for chosen in backtrack(range(len(members)), choices.__getitem__, compatible)
    ]
