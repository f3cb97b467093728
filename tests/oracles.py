"""Brute-force re-implementations used as independent ground truth.

Nothing here calls the engine's weight machinery, union-find quotients, or
detector shortcuts: cones are enumerated directly from the composition
table and the definitional factorization conditions are checked verbatim.
"""
from __future__ import annotations

import itertools


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
