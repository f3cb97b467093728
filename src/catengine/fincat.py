"""Finite categories with exhaustively validated composition tables.

Objects and morphisms are dense integer ids; human-readable names live in
parallel tables so input files stay legible while the core stays fast.
Everything here is immutable after validation and safe to share.

Every exhaustive search of the engine -- functors, (co)cones, natural
transformations and isomorphisms, ultraproduct cocones -- runs on
:func:`backtrack`, one depth-first kernel.  Callers give the variables in
branching order, the values to try for each and the pairs that a decision
forces; the kernel owns the assignment, propagation, clashes and undo, and
lists solutions in the order of the product of the domains.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from .errors import (
    AssociativityViolation,
    IdentityViolation,
    MissingComposite,
    ValidationError,
)


@dataclass(frozen=True)
class FiniteCategory:
    """A finite category as a total composition table over composable pairs.

    ``table[g][f]`` is the id of ``g∘f`` when ``tgt(f) == src(g)`` and -1
    otherwise.  Instances are only produced through :func:`validate_category`
    or :meth:`build`, which verify the identity and associativity laws over
    every composable pair and triple.
    """

    objects: tuple[str, ...]
    morphisms: tuple[str, ...]
    src: tuple[int, ...]
    tgt: tuple[int, ...]
    identity: tuple[int, ...]
    table: tuple[tuple[int, ...], ...]
    name: str = field(default="C", compare=False)
    _cache: dict = field(default_factory=dict, compare=False, repr=False, hash=False)

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, objects, morphisms, src, tgt, identity, table, name="C"):
        cat = cls(
            tuple(objects),
            tuple(morphisms),
            tuple(src),
            tuple(tgt),
            tuple(identity),
            tuple(tuple(row) for row in table),
            name,
        )
        cat.check()
        return cat

    def check(self) -> None:
        """Exhaustively verify the category laws; raise on the first failure."""
        n_obj, n_mor = len(self.objects), len(self.morphisms)
        if len(set(self.objects)) != n_obj or len(set(self.morphisms)) != n_mor:
            raise ValidationError("duplicate object or morphism names")
        if len(self.src) != n_mor or len(self.tgt) != n_mor:
            raise ValidationError("src/tgt tables sized wrong")
        for m in range(n_mor):
            if not (0 <= self.src[m] < n_obj and 0 <= self.tgt[m] < n_obj):
                raise ValidationError(f"morphism {self.morphisms[m]} has bad endpoints")
        if len(self.identity) != n_obj:
            raise ValidationError("identity table sized wrong")
        for a, e in enumerate(self.identity):
            if not (0 <= e < n_mor) or self.src[e] != a or self.tgt[e] != a:
                raise ValidationError(f"identity of {self.objects[a]} is not an endomorphism")
        if len(self.table) != n_mor or any(len(row) != n_mor for row in self.table):
            raise ValidationError("composition table sized wrong")
        # defined exactly on composable pairs, with correct endpoints
        for g in range(n_mor):
            for f in range(n_mor):
                c = self.table[g][f]
                if self.tgt[f] == self.src[g]:
                    if c < 0:
                        raise MissingComposite(self.morphisms[g], self.morphisms[f])
                    if not (0 <= c < n_mor) or self.src[c] != self.src[f] or self.tgt[c] != self.tgt[g]:
                        raise ValidationError(
                            f"composite of ({self.morphisms[g]}, {self.morphisms[f]}) has bad endpoints"
                        )
                elif c != -1:
                    raise ValidationError(
                        f"compose defined on non-composable pair ({self.morphisms[g]}, {self.morphisms[f]})"
                    )
        # identity laws
        for f in range(n_mor):
            if self.table[f][self.identity[self.src[f]]] != f:
                raise IdentityViolation(
                    self.morphisms[self.identity[self.src[f]]], self.morphisms[f],
                    self.morphisms[self.table[f][self.identity[self.src[f]]]],
                )
            if self.table[self.identity[self.tgt[f]]][f] != f:
                raise IdentityViolation(
                    self.morphisms[self.identity[self.tgt[f]]], self.morphisms[f],
                    self.morphisms[self.table[self.identity[self.tgt[f]]][f]],
                )
        # associativity over every composable triple
        out_of = [[] for _ in range(n_obj)]
        for m in range(n_mor):
            out_of[self.src[m]].append(m)
        for f in range(n_mor):
            for g in out_of[self.tgt[f]]:
                gf = self.table[g][f]
                for h in out_of[self.tgt[g]]:
                    if self.table[h][gf] != self.table[self.table[h][g]][f]:
                        raise AssociativityViolation(
                            self.morphisms[h], self.morphisms[g], self.morphisms[f]
                        )

    def __hash__(self) -> int:
        # the dataclass hash, computed once: diagram caches hash categories
        h = self._cache.get("hash")
        if h is None:
            h = self._cache["hash"] = hash(
                (self.objects, self.morphisms, self.src, self.tgt, self.identity, self.table)
            )
        return h

    # -- basic queries -----------------------------------------------------

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    @property
    def n_morphisms(self) -> int:
        return len(self.morphisms)

    def composable(self, g: int, f: int) -> bool:
        return self.tgt[f] == self.src[g]

    def hom(self, a: int, b: int) -> tuple[int, ...]:
        key = "hom"
        if key not in self._cache:
            homs = [[[] for _ in range(self.n_objects)] for _ in range(self.n_objects)]
            for m in range(self.n_morphisms):
                homs[self.src[m]][self.tgt[m]].append(m)
            self._cache[key] = tuple(tuple(tuple(cell) for cell in row) for row in homs)
        return self._cache[key][a][b]

    def is_identity(self, m: int) -> bool:
        return self.identity[self.src[m]] == m

    def object_index(self, name: str) -> int:
        return self.objects.index(name)

    def morphism_index(self, name: str) -> int:
        return self.morphisms.index(name)

    def inverse(self, m: int) -> Optional[int]:
        a, b = self.src[m], self.tgt[m]
        for w in self.hom(b, a):
            if self.table[w][m] == self.identity[a] and self.table[m][w] == self.identity[b]:
                return w
        return None

    def isos(self) -> frozenset[int]:
        if "isos" not in self._cache:
            self._cache["isos"] = frozenset(
                m for m in range(self.n_morphisms) if self.inverse(m) is not None
            )
        return self._cache["isos"]

    def parallel_pairs(self, distinct: bool = True) -> Iterator[tuple[int, int]]:
        for u in range(self.n_morphisms):
            for v in range(u + 1 if distinct else u, self.n_morphisms):
                if self.src[u] == self.src[v] and self.tgt[u] == self.tgt[v]:
                    if distinct and u == v:
                        continue
                    yield (u, v)


_JSON_KIND = {list: "list", dict: "object", str: "string", bool: "boolean"}
_REQUIRED = object()


def json_field(raw, key: str, kind: type, what: str, default=_REQUIRED):
    """``raw[key]`` (or ``default`` when given and the key is absent), which
    must be a JSON value of type ``kind``; ``what`` names ``raw`` in the
    ``ValidationError`` raised otherwise."""
    if not isinstance(raw, dict):
        raise ValidationError(f"{what} {raw!r} is not a JSON object")
    value = raw.get(key, default)
    if value is _REQUIRED:
        raise ValidationError(f"{what} has no field {key!r}")
    if not isinstance(value, kind):
        raise ValidationError(f"{what} {key} {value!r} is not a JSON {_JSON_KIND[kind]}")
    return value


def validate_category(raw: dict, name: Optional[str] = None, infer_identities: bool = True) -> FiniteCategory:
    """Validate a composition-table description and return the category.

    ``raw`` has keys ``objects`` (names), ``morphisms`` (``{id, src, tgt}``),
    ``identities`` (object name -> morphism name) and ``compose``
    (``{g, f, result}``).  Composites with an identity factor may be omitted
    unless ``infer_identities`` is off, in which case a missing entry raises
    :class:`MissingComposite` with the offending pair.
    """
    objects = json_field(raw, "objects", list, "category")
    mor_rows = json_field(raw, "morphisms", list, "category")
    identities = json_field(raw, "identities", dict, "category")
    compose_rows = json_field(raw, "compose", list, "category", default=[])
    raw_name = json_field(raw, "name", str, "category", default="C")
    _check_names(objects, "object")
    _check_names([*identities, *identities.values()], "identity entry")
    obj_id = {o: i for i, o in enumerate(objects)}
    if len(obj_id) != len(objects):
        raise ValidationError("duplicate object names")
    names, src, tgt = [], [], []
    mor_id: dict[str, int] = {}
    for m, s, t in _rows(mor_rows, ("id", "src", "tgt"), "morphism"):
        if m in mor_id:
            raise ValidationError(f"duplicate morphism name {m}")
        if s not in obj_id or t not in obj_id:
            raise ValidationError(f"morphism {m} refers to unknown object")
        mor_id[m] = len(names)
        names.append(m)
        src.append(obj_id[s])
        tgt.append(obj_id[t])
    identity = [-1] * len(objects)
    for o, m in identities.items():
        if o not in obj_id or m not in mor_id:
            raise ValidationError(f"identity entry ({o}, {m}) refers to unknown name")
        identity[obj_id[o]] = mor_id[m]
    if any(e < 0 for e in identity):
        missing = objects[identity.index(-1)]
        raise ValidationError(f"object {missing} has no identity")
    n = len(names)
    table = [[-1] * n for _ in range(n)]
    for gn, fn, rn in _rows(compose_rows, ("g", "f", "result"), "compose"):
        try:
            g, f, r = mor_id[gn], mor_id[fn], mor_id[rn]
        except KeyError as exc:
            raise ValidationError(f"compose entry refers to unknown morphism: {exc}") from exc
        if tgt[f] != src[g]:
            raise ValidationError(f"compose entry ({gn}, {fn}) is not a composable pair")
        if table[g][f] not in (-1, r):
            raise ValidationError(f"conflicting compose entries for ({gn}, {fn})")
        table[g][f] = r
    if infer_identities:
        for f in range(n):
            e = identity[src[f]]
            if table[f][e] == -1:
                table[f][e] = f
            e = identity[tgt[f]]
            if table[e][f] == -1:
                table[e][f] = f
    return FiniteCategory.build(objects, names, src, tgt, identity, table, name or raw_name)


def _check_names(names, kind: str):
    for x in names:
        if not isinstance(x, str):
            raise ValidationError(f"{kind} name {x!r} is not a string")


def _rows(rows, keys: tuple[str, ...], kind: str) -> Iterator[tuple[str, ...]]:
    """The string fields ``keys`` of each JSON object in ``rows``."""
    for row in rows:
        if not isinstance(row, dict):
            raise ValidationError(f"{kind} row {row!r} is not an object")
        try:
            fields = tuple(row[k] for k in keys)
        except KeyError as exc:
            raise ValidationError(f"{kind} row {row!r} has no field {exc}") from exc
        _check_names(fields, kind)
        yield fields


def opposite(cat: FiniteCategory) -> FiniteCategory:
    """Reverse all morphisms.

    Built and validated once per category and kept in ``cat._cache``, with
    ``cat`` kept as the opposite's own opposite, so that
    ``opposite(opposite(cat)) is cat``.
    """
    op = cat._cache.get("opposite")
    if op is None:
        n = cat.n_morphisms
        table = [[-1] * n for _ in range(n)]
        for g in range(n):
            for f in range(n):
                if cat.table[f][g] >= 0:
                    table[g][f] = cat.table[f][g]
        name = cat.name[:-3] if cat.name.endswith("^op") else cat.name + "^op"
        op = cat._cache["opposite"] = FiniteCategory.build(
            cat.objects, cat.morphisms, cat.tgt, cat.src, cat.identity, table, name
        )
        op._cache["opposite"] = cat
    return op


def category_from_arrows(objects, arrows, identities, compose, morphisms, name) -> tuple[FiniteCategory, dict]:
    """The category whose morphism ``k`` is ``arrows[k]``, re-validated.

    An arrow is a triple ``(src, tgt, label)`` of object ids and a hashable
    label, unique among the arrows; ``identities[i]`` is the label of the
    identity on object ``i`` and ``compose(g, f)`` the label of ``g∘f`` for
    composable arrows ``f`` then ``g``, given as their triples.  Returns the
    category and the index from arrow triple to morphism id.
    """
    index = {arrow: k for k, arrow in enumerate(arrows)}
    into: list[list[int]] = [[] for _ in objects]
    for k, (_, j, _) in enumerate(arrows):
        into[j].append(k)
    table = [[-1] * len(arrows) for _ in arrows]
    for gi, g in enumerate(arrows):
        row = table[gi]
        for fi in into[g[0]]:
            f = arrows[fi]
            row[fi] = index[(f[0], g[1], compose(g, f))]
    cat = FiniteCategory.build(
        objects, morphisms,
        [i for (i, _, _) in arrows],
        [j for (_, j, _) in arrows],
        [index[(i, i, e)] for i, e in enumerate(identities)],
        table, name,
    )
    return cat, index


def elements_category(functor) -> FiniteCategory:
    """Category of elements of a covariant finite-set-valued functor.

    Objects are pairs ``(c, x)`` with ``x`` in the value of the functor at
    ``c``; a morphism ``(c, x) -> (d, y)`` is a base morphism ``f: c -> d``
    whose action sends ``x`` to ``y``.
    """
    base: FiniteCategory = functor.base
    objs = [(c, x) for c in range(base.n_objects) for x in functor.at(c)]
    obj_of = {o: i for i, o in enumerate(objs)}
    arrows = [
        (obj_of[(base.src[f], x)], obj_of[(base.tgt[f], functor.apply(f, x))], f)
        for f in range(base.n_morphisms)
        for x in functor.at(base.src[f])
    ]
    names = [f"({base.objects[c]},{x})" for (c, x) in objs]
    cat, _ = category_from_arrows(
        names, arrows, [base.identity[c] for (c, _) in objs],
        lambda g, f: base.table[g[2]][f[2]],
        [f"{base.morphisms[f]}@{names[i]}" for (i, _, f) in arrows],
        f"El({getattr(functor, 'name', 'F')})",
    )
    return cat


@dataclass(frozen=True)
class CofilterednessVerdict:
    holds: bool
    reason: str = ""
    witness: Optional[tuple] = None

    def __bool__(self) -> bool:
        return self.holds


def is_cofiltered(cat: FiniteCategory) -> CofilterednessVerdict:
    """Decide cofilteredness, returning the violating pair on failure.

    Checks: nonempty; every object pair admits a span over it; every
    parallel pair admits an equalizing morphism into its source.
    """
    if cat.n_objects == 0:
        return CofilterednessVerdict(False, "empty", None)
    for a in range(cat.n_objects):
        for b in range(a, cat.n_objects):
            if not any(
                cat.hom(c, a) and cat.hom(c, b) for c in range(cat.n_objects)
            ):
                return CofilterednessVerdict(
                    False, "pair-without-span", (cat.objects[a], cat.objects[b])
                )
    for u, v in cat.parallel_pairs():
        a = cat.src[u]
        if not any(
            cat.table[u][w] == cat.table[v][w]
            for c in range(cat.n_objects)
            for w in cat.hom(c, a)
        ):
            return CofilterednessVerdict(
                False, "parallel-pair-without-equalizing-arrow",
                (cat.morphisms[u], cat.morphisms[v]),
            )
    return CofilterednessVerdict(True)


def is_cauchy_complete(cat: FiniteCategory) -> bool:
    """All idempotents split."""
    for e in range(cat.n_morphisms):
        a = cat.src[e]
        if cat.tgt[e] != a or cat.table[e][e] != e:
            continue
        split = any(
            cat.table[s][r] == e and cat.table[r][s] == cat.identity[b]
            for b in range(cat.n_objects)
            for r in cat.hom(a, b)
            for s in cat.hom(b, a)
        )
        if not split:
            return False
    return True


def full_subcategory(cat: FiniteCategory, objs: Sequence[int], name: Optional[str] = None) -> FiniteCategory:
    objs = list(objs)
    keep = [m for m in range(cat.n_morphisms) if cat.src[m] in objs and cat.tgt[m] in objs]
    oid = {o: i for i, o in enumerate(objs)}
    mid = {m: i for i, m in enumerate(keep)}
    table = [[-1] * len(keep) for _ in keep]
    for g in keep:
        for f in keep:
            if cat.tgt[f] == cat.src[g]:
                table[mid[g]][mid[f]] = mid[cat.table[g][f]]
    return FiniteCategory.build(
        [cat.objects[o] for o in objs],
        [cat.morphisms[m] for m in keep],
        [oid[cat.src[m]] for m in keep],
        [oid[cat.tgt[m]] for m in keep],
        [mid[cat.identity[o]] for o in objs],
        table,
        name or f"{cat.name}|{len(objs)}",
    )


# -- functors, diagrams, and (co)cones --------------------------------------


@dataclass(frozen=True)
class FunctorData:
    source: FiniteCategory
    target: FiniteCategory
    object_map: tuple[int, ...]
    morphism_map: tuple[int, ...]
    check: bool = field(default=True, compare=False)

    def __post_init__(self):
        if not self.check:
            return
        C, T = self.source, self.target
        if len(self.object_map) != C.n_objects or len(self.morphism_map) != C.n_morphisms:
            raise ValidationError("functor tables sized wrong")
        for m in range(C.n_morphisms):
            fm = self.morphism_map[m]
            if T.src[fm] != self.object_map[C.src[m]] or T.tgt[fm] != self.object_map[C.tgt[m]]:
                raise ValidationError(
                    f"functor breaks endpoints at {C.morphisms[m]}"
                )
        for a in range(C.n_objects):
            if self.morphism_map[C.identity[a]] != T.identity[self.object_map[a]]:
                raise ValidationError(f"functor breaks identity at {C.objects[a]}")
        for g in range(C.n_morphisms):
            for f in range(C.n_morphisms):
                if C.table[g][f] >= 0:
                    if self.morphism_map[C.table[g][f]] != T.table[self.morphism_map[g]][self.morphism_map[f]]:
                        raise ValidationError(
                            f"functor breaks composition at ({C.morphisms[g]}, {C.morphisms[f]})"
                        )

    def is_full(self) -> bool:
        for a in range(self.source.n_objects):
            for b in range(self.source.n_objects):
                image = {self.morphism_map[m] for m in self.source.hom(a, b)}
                if set(self.target.hom(self.object_map[a], self.object_map[b])) - image:
                    return False
        return True

    def is_faithful(self) -> bool:
        for a in range(self.source.n_objects):
            for b in range(self.source.n_objects):
                ms = self.source.hom(a, b)
                if len({self.morphism_map[m] for m in ms}) != len(ms):
                    return False
        return True

    def is_essentially_surjective(self) -> bool:
        hit = set()
        T = self.target
        for a in self.object_map:
            for b in range(T.n_objects):
                if any(m in T.isos() for m in T.hom(a, b)):
                    hit.add(b)
        return len(hit) == T.n_objects

    def is_equivalence(self) -> bool:
        return self.is_full() and self.is_faithful() and self.is_essentially_surjective()


def compose_functors(g: FunctorData, f: FunctorData) -> FunctorData:
    return FunctorData(
        f.source,
        g.target,
        tuple(g.object_map[o] for o in f.object_map),
        tuple(g.morphism_map[m] for m in f.morphism_map),
    )


@dataclass(frozen=True)
class Diagram:
    shape: FiniteCategory
    body: FunctorData
    # the dataclass hash, set once by __hash__; a class default rather than
    # a field, so that equality and repr are unchanged
    _hash = None

    def __post_init__(self):
        if self.body.source is not self.shape and self.body.source != self.shape:
            raise ValidationError("diagram body must be a functor out of its shape")

    def __hash__(self) -> int:
        # computed once: the virtual-limit and limit caches hash diagrams
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.shape, self.body)))
        return self._hash

    @property
    def target(self) -> FiniteCategory:
        return self.body.target

    def vertex(self, d: int) -> int:
        return self.body.object_map[d]

    def describe(self) -> str:
        C = self.target
        if self.shape.n_objects == 0:
            return "empty"
        objs = ",".join(C.objects[self.vertex(d)] for d in range(self.shape.n_objects))
        arrows = ",".join(
            C.morphisms[self.body.morphism_map[s]]
            for s in range(self.shape.n_morphisms)
            if not self.shape.is_identity(s)
        )
        return f"[{objs}|{arrows}]" if arrows else f"[{objs}]"


EMPTY_SHAPE = FiniteCategory.build((), (), (), (), (), (), name="0")
POINT_SHAPE = FiniteCategory.build(("d0",), ("1_d0",), (0,), (0,), (0,), ((0,),), name="pt")
PAIR_SHAPE = FiniteCategory.build(
    ("d0", "d1"), ("1_d0", "1_d1"), (0, 1), (0, 1), (0, 1),
    ((0, -1), (-1, 1)), name="pair",
)
PARALLEL_SHAPE = FiniteCategory.build(
    ("d0", "d1"), ("1_d0", "1_d1", "s", "t"),
    (0, 1, 0, 0), (0, 1, 1, 1), (0, 1),
    (
        (0, -1, -1, -1),
        (-1, 1, 2, 3),
        (2, -1, -1, -1),
        (3, -1, -1, -1),
    ),
    name="parallel",
)
COSPAN_SHAPE = FiniteCategory.build(
    ("d0", "d1", "d2"), ("1_d0", "1_d1", "1_d2", "l", "r"),
    (0, 1, 2, 0, 2), (0, 1, 2, 1, 1), (0, 1, 2),
    (
        (0, -1, -1, -1, -1),
        (-1, 1, -1, 3, 4),
        (-1, -1, 2, -1, -1),
        (3, -1, -1, -1, -1),
        (-1, -1, 4, -1, -1),
    ),
    name="cospan",
)


# The bodies of the four standard diagrams are functors by construction: the
# shapes' only composites are with identities, which go to identities of
# ``cat``.  They are built unchecked; the endpoint checks below stay.


def empty_diagram(cat: FiniteCategory) -> Diagram:
    return Diagram(EMPTY_SHAPE, FunctorData(EMPTY_SHAPE, cat, (), (), check=False))


def pair_diagram(cat: FiniteCategory, a: int, b: int) -> Diagram:
    return Diagram(
        PAIR_SHAPE,
        FunctorData(PAIR_SHAPE, cat, (a, b), (cat.identity[a], cat.identity[b]), check=False),
    )


def parallel_pair_diagram(cat: FiniteCategory, u: int, v: int) -> Diagram:
    if cat.src[u] != cat.src[v] or cat.tgt[u] != cat.tgt[v]:
        raise ValidationError("parallel pair must share endpoints")
    a, b = cat.src[u], cat.tgt[u]
    return Diagram(
        PARALLEL_SHAPE,
        FunctorData(PARALLEL_SHAPE, cat, (a, b), (cat.identity[a], cat.identity[b], u, v), check=False),
    )


def cospan_diagram(cat: FiniteCategory, l: int, r: int) -> Diagram:
    if cat.tgt[l] != cat.tgt[r]:
        raise ValidationError("cospan legs must share a target")
    return Diagram(
        COSPAN_SHAPE,
        FunctorData(
            COSPAN_SHAPE, cat,
            (cat.src[l], cat.tgt[l], cat.src[r]),
            (cat.identity[cat.src[l]], cat.identity[cat.tgt[l]], cat.identity[cat.src[r]], l, r),
            check=False,
        ),
    )


@dataclass(frozen=True)
class Cone:
    diagram: Diagram
    apex: int
    legs: tuple[int, ...]

    def __post_init__(self):
        D, C = self.diagram, self.diagram.target
        if len(self.legs) != D.shape.n_objects:
            raise ValidationError("cone needs one leg per shape object")
        for d, leg in enumerate(self.legs):
            if C.src[leg] != self.apex or C.tgt[leg] != D.vertex(d):
                raise ValidationError(f"cone leg {d} has bad endpoints")
        for s in range(D.shape.n_morphisms):
            d, d2 = D.shape.src[s], D.shape.tgt[s]
            if C.table[D.body.morphism_map[s]][self.legs[d]] != self.legs[d2]:
                raise ValidationError("cone legs do not commute")


@dataclass(frozen=True)
class Cocone:
    diagram: Diagram
    apex: int
    legs: tuple[int, ...]

    def __post_init__(self):
        D, C = self.diagram, self.diagram.target
        if len(self.legs) != D.shape.n_objects:
            raise ValidationError("cocone needs one leg per shape object")
        for d, leg in enumerate(self.legs):
            if C.src[leg] != D.vertex(d) or C.tgt[leg] != self.apex:
                raise ValidationError(f"cocone leg {d} has bad endpoints")
        for s in range(D.shape.n_morphisms):
            d, d2 = D.shape.src[s], D.shape.tgt[s]
            if C.table[self.legs[d2]][D.body.morphism_map[s]] != self.legs[d]:
                raise ValidationError("cocone legs do not commute")


# -- the search kernel ----------------------------------------------------------


def backtrack(order: Sequence, domain, forced, decided=()) -> Iterator[dict]:
    """Every assignment of the variables in ``order`` that nothing contradicts.

    Branches on the variables of ``order`` in turn, over the values of
    ``domain(var)`` in their order, skipping one already decided.  Assigning
    ``var = x`` asks ``forced(var, x, assigned)`` for the ``(var, value)``
    pairs that it forces given the assignment so far, or ``None`` for a
    contradiction; forced pairs, which may name variables outside ``order``,
    are assigned in turn to a fixed point.  A variable given a second value
    is a clash, and the branch is undone.  The pairs of ``decided`` are
    propagated before the search starts.

    Yields the kernel's own assignment dict at each solution, so read it
    before drawing the next.  Solutions come in the lexicographic order of
    the branched values: where forcing only prunes, the consistent tuples of
    ``itertools.product`` over the domains, in its order.  Runs on a stack
    of frames, each a branched variable's values left and its trail mark.
    """
    assigned: dict = {}
    trail: list = []

    def undo(mark: int) -> None:
        while len(trail) > mark:
            del assigned[trail.pop()]

    def decide(var, x) -> bool:
        work = [(var, x)]
        while work:
            var, x = work.pop()
            if var in assigned:
                if assigned[var] != x:
                    return False
                continue
            assigned[var] = x
            trail.append(var)
            more = forced(var, x, assigned)
            if more is None:
                return False
            work.extend(more)
        return True

    for var, x in decided:
        if not decide(var, x):
            return
    n = len(order)
    frames: list[tuple[int, Iterator, int]] = []  # (position in order, values left, trail mark)
    i = 0
    while True:
        while i < n and order[i] in assigned:
            i += 1
        if i == n:
            yield assigned
        else:
            frames.append((i, iter(domain(order[i])), len(trail)))
        while frames:  # resume the deepest frame with a value left that does not clash
            i, values, mark = frames[-1]
            for x in values:
                undo(mark)
                if decide(order[i], x):
                    break
            else:
                frames.pop()
                continue
            i += 1
            break
        else:
            return


def _search_legs(diagram: Diagram, apex: Optional[int], cocone: bool) -> list:
    """Every cone (or cocone) over the diagram with the given apex, or with
    any apex in turn: one variable per shape object over its legs, pruned
    by the commutations that each vertex's leg makes decidable."""
    C, S = diagram.target, diagram.shape
    n = S.n_objects
    constraints = [[] for _ in range(n)]  # (d, d2, image of s) checkable once object d is assigned
    for s in range(S.n_morphisms):
        d, d2 = S.src[s], S.tgt[s]
        if not S.is_identity(s):  # an identity commutes with every leg
            constraints[max(d, d2)].append((d, d2, diagram.body.morphism_map[s]))

    def commutes(d: int, _leg: int, legs: dict):
        if cocone:
            return () if all(C.table[legs[d2]][m] == legs[d1] for d1, d2, m in constraints[d]) else None
        return () if all(C.table[m][legs[d1]] == legs[d2] for d1, d2, m in constraints[d]) else None

    out = []
    for c in range(C.n_objects) if apex is None else [apex]:
        pools = [C.hom(diagram.vertex(d), c) if cocone else C.hom(c, diagram.vertex(d)) for d in range(n)]
        if all(pools):
            out += [
                (Cocone if cocone else Cone)(diagram, c, tuple(legs[d] for d in range(n)))
                for legs in backtrack(range(n), pools.__getitem__, commutes)
            ]
    return out


def all_cones(diagram: Diagram, apex: Optional[int] = None) -> list[Cone]:
    return _search_legs(diagram, apex, cocone=False)


def all_cocones(diagram: Diagram, apex: Optional[int] = None) -> list[Cocone]:
    return _search_legs(diagram, apex, cocone=True)


_LIMIT_CACHE: dict[Diagram, Optional[Cone]] = {}


def limit_in_category(diagram: Diagram) -> Optional[Cone]:
    """The limiting cone found by universal-property search, if any.

    Memoized; the search depends only on the diagram.
    """
    try:
        return _LIMIT_CACHE[diagram]
    except KeyError:
        cone = _LIMIT_CACHE[diagram] = _first_universal(diagram.target, all_cones(diagram), cocone=False)
        return cone


def colimit_in_category(diagram: Diagram) -> Optional[Cocone]:
    """The colimiting cocone found by universal-property search, if any."""
    return _first_universal(diagram.target, all_cocones(diagram), cocone=True)


def mediators(C: FiniteCategory, apex: int, legs: Sequence[int], other_apex: int,
              other_legs: Sequence[int], cocone: bool) -> list[int]:
    """The morphisms through which ``(other_apex, other_legs)`` factors
    through the (co)cone ``(apex, legs)``: every ``m: other_apex -> apex``
    with ``legs[d]∘m == other_legs[d]`` for a cone, every ``m: apex ->
    other_apex`` with ``m∘legs[d] == other_legs[d]`` for a cocone."""
    table = C.table
    if cocone:
        return [m for m in C.hom(apex, other_apex) if all(table[m][l] == o for l, o in zip(legs, other_legs))]
    return [m for m in C.hom(other_apex, apex) if all(table[l][m] == o for l, o in zip(legs, other_legs))]


def is_universal(C: FiniteCategory, apex: int, legs: Sequence[int], competitors, cocone: bool) -> bool:
    """Does every competitor, an ``(other_apex, other_legs)`` pair, factor
    through the (co)cone ``(apex, legs)`` by exactly one morphism?"""
    for other_apex, other_legs in competitors:
        if len(mediators(C, apex, legs, other_apex, other_legs, cocone)) != 1:
            return False
    return True


def _first_universal(C: FiniteCategory, cands: list, cocone: bool):
    """The first of ``cands`` that is universal among all of them."""
    pairs = [(c.apex, c.legs) for c in cands]
    return next((c for c in cands if is_universal(C, c.apex, c.legs, pairs, cocone)), None)


def pullback_in_category(cat: FiniteCategory, l: int, r: int) -> Optional[Cone]:
    return limit_in_category(cospan_diagram(cat, l, r))


def category_to_json(cat: FiniteCategory) -> dict:
    """Round-trippable composition-table description of the category."""
    return {
        "name": cat.name,
        "objects": list(cat.objects),
        "morphisms": [
            {"id": cat.morphisms[m], "src": cat.objects[cat.src[m]], "tgt": cat.objects[cat.tgt[m]]}
            for m in range(cat.n_morphisms)
        ],
        "identities": {cat.objects[a]: cat.morphisms[cat.identity[a]] for a in range(cat.n_objects)},
        "compose": [
            {"g": cat.morphisms[g], "f": cat.morphisms[f], "result": cat.morphisms[cat.table[g][f]]}
            for g in range(cat.n_morphisms)
            for f in range(cat.n_morphisms)
            if cat.table[g][f] >= 0 and not cat.is_identity(g) and not cat.is_identity(f)
        ],
    }


# -- functor enumeration -----------------------------------------------------


def _generators(cat: FiniteCategory) -> list[int]:
    """A generating set of non-identity morphisms."""
    nonid = [m for m in range(cat.n_morphisms) if not cat.is_identity(m)]
    gens = [
        m
        for m in nonid
        if not any(
            cat.table[g][f] == m
            for g in nonid
            for f in nonid
            if cat.tgt[f] == cat.src[g]
        )
    ]
    known = set(gens) | {cat.identity[a] for a in range(cat.n_objects)}
    while True:
        grown = False
        for g in list(known):
            for f in list(known):
                if cat.tgt[f] == cat.src[g]:
                    c = cat.table[g][f]
                    if c not in known:
                        known.add(c)
                        grown = True
        if not grown:
            if len(known) == cat.n_morphisms:
                break
            # e.g. an idempotent only expressible through itself
            extra = min(m for m in nonid if m not in known)
            gens.append(extra)
            known.add(extra)
    return gens


def enumerate_functors(source: FiniteCategory, target: FiniteCategory, rng=None,
                       fits=None, cuts=()) -> Iterator[FunctorData]:
    """Yield every functor ``source -> target`` in a deterministic order.

    For each object map, :func:`backtrack` branches over a generating set of
    morphisms with the identities decided in advance; every composite whose
    factors are decided is forced immediately, so contradictions prune
    branches early and a complete assignment is a functor.  With ``rng`` the
    branch orders are shuffled (deterministically for a seeded generator),
    which turns truncated enumeration into fair sampling.

    A caller that wants only some functors may say which cannot qualify.  An
    object map that ``fits(omap)`` rejects is skipped before its pools are
    drawn.  Each ``(support, test)`` of ``cuts`` is asked ``test(omap,
    mmap)`` as soon as every morphism of ``support`` is assigned, with
    ``mmap`` the partial morphism map; a false answer cuts the branch.  Both
    only remove functors: without ``rng`` the rest come in the same order,
    and with a seeded one the same functors come, in an order that depends
    on ``fits``.
    """
    gens = _generators(source)
    n = source.n_morphisms
    # m -> [(k, c, first)] with c = m∘k if first else k∘m; a composite with
    # an identity forces nothing, so only non-identities are listed
    around = [[] for _ in range(n)]
    nonid = [m for m in range(n) if not source.is_identity(m)]
    for g in nonid:
        for f in nonid:
            c = source.table[g][f]
            if c >= 0:
                around[f].append((g, c, False))
                around[g].append((f, c, True))
    cuts_at = [[] for _ in range(n)]  # m -> the cuts whose support holds m
    for support, test in cuts:
        for m in set(support):
            cuts_at[m].append((support, test))
    table = target.table

    def composites(m: int, val: int, mmap: dict) -> list:
        return [(c, table[val][mmap[k]] if first else table[mmap[k]][val]) for k, c, first in around[m] if k in mmap]

    def cut_or_composites(m: int, val: int, mmap: dict):
        for support, test in cuts_at[m]:
            if all(k in mmap for k in support) and not test(omap, mmap):
                return None
        return composites(m, val, mmap)

    def choices(seq):
        seq = list(seq)
        if rng is not None:
            rng.shuffle(seq)
        return seq

    for omap in itertools.product(*[choices(range(target.n_objects)) for _ in range(source.n_objects)]):
        if fits is not None and not fits(omap):
            continue
        pools = {}
        for m in gens:
            pools[m] = choices(target.hom(omap[source.src[m]], omap[source.tgt[m]]))
            if not pools[m]:
                break
        else:
            identities = [(source.identity[a], target.identity[omap[a]]) for a in range(source.n_objects)]
            for mmap in backtrack(gens, pools.__getitem__, cut_or_composites if cuts else composites, identities):
                yield FunctorData(source, target, omap, tuple(mmap[m] for m in range(n)), check=False)


# -- the category of bounded finite sets ------------------------------------

_FINSET_CACHE: dict[int, tuple[FiniteCategory, list]] = {}


def finset_category(n: int) -> tuple[FiniteCategory, list[tuple[int, int, tuple[int, ...]]]]:
    """The skeleton of finite sets of size <= n, plus a decode table.

    Objects are the sizes ``0..n``; the morphism ``a -> b`` with graph ``t``
    sends ``i`` to ``t[i]``.  The decode table maps morphism id to
    ``(a, b, t)``.
    """
    if n in _FINSET_CACHE:
        return _FINSET_CACHE[n]
    decode = [
        (a, b, t) for a in range(n + 1) for b in range(n + 1) for t in itertools.product(range(b), repeat=a)
    ]
    cat, _ = category_from_arrows(
        [str(k) for k in range(n + 1)], decode, [tuple(range(a)) for a in range(n + 1)],
        lambda g, f: tuple(g[2][i] for i in f[2]),
        [f"{a}>{b}:{''.join(map(str, t))}" for (a, b, t) in decode],
        f"FinSet<={n}",
    )
    _FINSET_CACHE[n] = (cat, decode)
    return cat, decode
