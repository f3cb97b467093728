"""Known answers computed without the engine.

Everything here reads a category's raw tables (``objects``, ``src``, ``tgt``,
``identity``, ``table`` of a validated ``FiniteCategory``) and decides the
property from its definition.  Thin categories are finite preorders, where
limits are meets and colimits are joins; these are the answers the engine's
virtual-limit detectors and builders must reproduce on generated posets.
"""
from __future__ import annotations

import itertools

# verdicts recorded in corpus/README.md and the acceptance battery
CORPUS_WEAKLY_LEX = {"ONE": True, "ARROW": True, "CHAIN3": True, "PAR": False, "DISC2": False,
                     "Z2": False, "SPLIT": False}
CORPUS_MULTIFINITE = {"ONE": True, "ARROW": True, "CHAIN3": True, "DISC2": True, "SPLIT": True,
                      "PAR": False, "Z2": False}
CORPUS_POLY = {"Z2": True}


def is_thin(C) -> bool:
    seen = set()
    for m in range(len(C.morphisms)):
        key = (C.src[m], C.tgt[m])
        if key in seen:
            return False
        seen.add(key)
    return True


def order(C) -> set:
    return {(C.src[m], C.tgt[m]) for m in range(len(C.morphisms))}


def _components(elems, le) -> list[list[int]]:
    comp = {x: x for x in elems}

    def find(x):
        while comp[x] != x:
            x = comp[x]
        return x

    for x, y in itertools.product(elems, elems):
        if (x, y) in le:
            comp[find(x)] = find(y)
    groups: dict[int, list[int]] = {}
    for x in elems:
        groups.setdefault(find(x), []).append(x)
    return list(groups.values())


def _greatest(elems, le):
    for x in elems:
        if all((y, x) in le for y in elems):
            return x
    return None


def _least(elems, le):
    for x in elems:
        if all((x, y) in le for y in elems):
            return x
    return None


def thin_limits(C) -> dict:
    """Limit and colimit existence for the empty and binary-pair diagrams."""
    n, le = len(C.objects), order(C)
    objs = list(range(n))
    out = {"terminal": _greatest(objs, le) is not None, "initial": _least(objs, le) is not None}
    for a, b in itertools.combinations_with_replacement(objs, 2):
        lower = [c for c in objs if (c, a) in le and (c, b) in le]
        upper = [c for c in objs if (a, c) in le and (b, c) in le]
        out[f"meet {a},{b}"] = _greatest(lower, le) is not None
        out[f"join {a},{b}"] = _least(upper, le) is not None
    return out


def thin_weakly_lex(C) -> bool:
    """A finite preorder has weak finite limits iff it has a top and binary meets."""
    lim = thin_limits(C)
    return lim["terminal"] and all(v for k, v in lim.items() if k.startswith("meet"))


def thin_multifinite(C) -> bool:
    """Multilimits of the generating diagrams: every component of the cone
    preorder (all objects, or the lower bounds of a pair) has a greatest element."""
    n, le = len(C.objects), order(C)
    objs = list(range(n))
    cone_sets = [objs] + [
        [c for c in objs if (c, a) in le and (c, b) in le]
        for a, b in itertools.combinations_with_replacement(objs, 2)
    ]
    return all(
        _greatest(comp, le) is not None
        for cones in cone_sets
        for comp in _components(cones, le)
    )


def thin_has_minimum(C) -> bool:
    return _least(list(range(len(C.objects))), order(C)) is not None


def isomorphic_objects(C, x: int, y: int) -> bool:
    for f in range(len(C.morphisms)):
        if C.src[f] != x or C.tgt[f] != y:
            continue
        for g in range(len(C.morphisms)):
            if C.src[g] == y and C.tgt[g] == x:
                if C.table[g][f] == C.identity[x] and C.table[f][g] == C.identity[y]:
                    return True
    return False


def connected(C) -> list[int]:
    """Zigzag component id of every object."""
    n = len(C.objects)
    comps = _components(list(range(n)), {(C.src[m], C.tgt[m]) for m in range(len(C.morphisms))})
    out = [0] * n
    for i, comp in enumerate(comps):
        for x in comp:
            out[x] = i
    return out


def max_representable_fiber(C) -> int:
    """The smallest, over objects ``a``, of the largest hom-set out of ``a``."""
    n = len(C.objects)
    sizes = [[0] * n for _ in range(n)]
    for m in range(len(C.morphisms)):
        sizes[C.src[m]][C.tgt[m]] += 1
    return min(max(row) for row in sizes)


def preserves_cone(F, cone) -> bool:
    """Does the set functor send the cone to a limit cone, by direct count?"""
    D = cone.diagram
    S = D.shape
    lim = [
        tup
        for tup in itertools.product(*[F.values[D.vertex(d)] for d in range(S.n_objects)])
        if all(
            F.actions[D.body.morphism_map[s]][tup[S.src[s]]] == tup[S.tgt[s]]
            for s in range(S.n_morphisms)
        )
    ]
    image = [tuple(F.actions[leg][x] for leg in cone.legs) for x in F.values[cone.apex]]
    return len(set(image)) == len(image) and set(image) == set(lim)
