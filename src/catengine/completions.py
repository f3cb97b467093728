"""Bounded materializations of free completions inside presheaves.

``close`` saturates the representables under finite limits and a chosen
family of colimit generators (none, kernel-pair quotients, quotients of
equivalence relations, finite coproducts, or both).
``direct_regular``, ``direct_pretopos`` and ``fam_f`` build the regular,
pretopos and finite-coproduct completions from their explicit object
presentations instead, so the two routes can be cross-checked.

An object of a completion is an isomorphism class; one canonical
representative presheaf is stored along with the construction step that
produced it.

Each closure operation (finite limits, images, quotients of equivalence
relations, finite coproducts) is written once, as a listing of the
constructions it closes a set of objects under.  ``close`` adds what a
listing builds.  ``verify_axioms`` is one table from check names to
listings and witness formats, walked by one loop that looks every listed
construction up, so the battery tests closure under the builder's own
limits, images, quotients and coproducts.  Both list the quotients of
equivalence relations by congruences: ``close`` tries the first
``hom_cap`` congruences of each pair of objects, the battery every one.
The battery also certifies pullbacks of coproduct injections by connected
components, and skips what the completion provably holds.
"""
from __future__ import annotations

import collections
import itertools
import random
from dataclasses import asdict, dataclass, field, replace
from typing import Iterator, Optional, Sequence

from .errors import FiberCapExceeded, NotWeaklyLex, ValidationError
from .fincat import (
    Cocone,
    FiniteCategory,
    FunctorData,
    all_cocones,
    category_from_arrows,
    colimit_in_category,
    cospan_diagram,
    empty_diagram,
    is_universal,
    limit_in_category,
    pair_diagram,
    parallel_pair_diagram,
)
from . import flatness as fl
from . import localize as lz
from . import presheaf as ps
from . import virtlim as vl

FLAVORS = ("none", "reg", "ex", "lext", "pret", "fam_f")


@dataclass(frozen=True)
class Bounds:
    max_objects: int = 24
    max_fiber: int = 64
    max_iterations: int = 4
    max_arity: int = 2
    hom_cap: int = 24
    enumeration_cap: int = 20000

    def __post_init__(self):
        for name, value in self.to_json().items():
            if value <= 0:
                raise ValidationError(f"bound {name} must be positive, got {value}")
        if self.max_fiber > ps.FIBER_CAP:
            raise ValidationError(f"max_fiber must be at most {ps.FIBER_CAP}, the presheaf fiber cap")

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Provenance:
    kind: str  # representable | limit | image | coproduct | quotient | family
    detail: str

    def to_json(self) -> dict:
        return {"kind": self.kind, "detail": self.detail}


@dataclass(frozen=True, eq=False)
class ConcreteCompletion:
    base: FiniteCategory
    flavor: str
    bounds: Bounds
    objects: tuple[ps.Presheaf, ...]
    provenance: tuple[Provenance, ...]
    saturated: bool
    bound_events: tuple[str, ...] = ()
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.flavor not in FLAVORS:
            raise ValidationError(f"unknown flavor {self.flavor!r}")
        if len(self.objects) != len(self.provenance):
            raise ValidationError("provenance must track objects")

    def find_object(self, M: ps.Presheaf) -> Optional[int]:
        # the objects never change, so a miss is as final as a hit
        memo = self._cache.setdefault("find_object", {})
        key, i = _first_iso(self.objects, memo, M)
        memo[key] = i
        return i

    def homs(self, i: int, j: int) -> list[ps.NatTransformation]:
        key = ("hom", i, j)
        if key not in self._cache:
            self._cache[key] = ps.hom_set(self.objects[i], self.objects[j])
        return self._cache[key]

    def as_category(self) -> FiniteCategory:
        """The completion re-validated as a finite category.

        Morphism ids enumerate every natural transformation between
        representatives, ordered by (source, target, component order).
        """
        if "category" in self._cache:
            return self._cache["category"]
        n = len(self.objects)
        nat = {(i, j, t.key()): t for i in range(n) for j in range(n) for t in self.homs(i, j)}
        cat, index = category_from_arrows(
            [f"M{i}" for i in range(n)], list(nat),
            [ps.identity_nat(M).key() for M in self.objects],
            lambda g, f: ps.compose_nats(nat[g], nat[f]).key(),
            [f"t{k}" for k in range(len(nat))],
            f"{self.flavor}({self.base.name})",
        )
        self._cache["category"] = cat
        self._cache["category_mors"] = [(i, j, t) for (i, j, _), t in nat.items()]
        self._cache["category_index"] = index
        return cat

    def morphism_nat(self, mid: int) -> tuple[int, int, ps.NatTransformation]:
        self.as_category()
        return self._cache["category_mors"][mid]

    def morphism_id(self, i: int, j: int, t: ps.NatTransformation) -> int:
        self.as_category()
        return self._cache["category_index"][(i, j, t.key())]

    def inclusion(self) -> tuple[FunctorData, list[ps.NatTransformation]]:
        """The functor from the base picking out the representables.

        Returns the functor into :meth:`as_category` plus, per base object,
        the chosen isomorphism from its representable onto the stored
        representative.
        """
        if "inclusion" in self._cache:
            return self._cache["inclusion"]
        C = self.base
        cat = self.as_category()
        obj_map, isos = [], []
        for a in range(C.n_objects):
            Ya = ps.yoneda(C, a)
            k = self.find_object(Ya)
            if k is None:
                raise ValidationError("completion does not contain all representables")
            obj_map.append(k)
            isos.append(ps.find_iso(Ya, self.objects[k]))
        mor_map = []
        for f in range(C.n_morphisms):
            a, b = C.src[f], C.tgt[f]
            Yf = ps.yoneda_map(C, f)
            t = ps.compose_nats(isos[b], ps.compose_nats(Yf, isos[a].inverse()))
            mor_map.append(self.morphism_id(obj_map[a], obj_map[b], t))
        fd = FunctorData(C, cat, tuple(obj_map), tuple(mor_map))
        self._cache["inclusion"] = (fd, isos)
        return self._cache["inclusion"]

    def inclusion_concrete(self) -> fl.ConcreteFunctor:
        """The inclusion as a concrete functor into presheaves over the base."""
        fd, _ = self.inclusion()
        return self.concrete_functor(fd, name=f"K:{self.base.name}")

    def concrete_functor(self, fd: FunctorData, name: str = "F") -> fl.ConcreteFunctor:
        """Reify a functor into this completion's category as a concrete one."""
        C = fd.source
        if fd.target != self.as_category():
            raise ValidationError("functor does not land in this completion")
        objs = tuple(self.objects[fd.object_map[a]] for a in range(C.n_objects))
        mors = []
        for f in range(C.n_morphisms):
            _, _, t = self.morphism_nat(fd.morphism_map[f])
            mors.append(ps.NatTransformation(objs[C.src[f]], objs[C.tgt[f]], t.components, check=False))
        return fl.ConcreteFunctor(C, self.base, objs, tuple(mors), name=name)

    def to_json(self) -> dict:
        from .fincat import category_to_json

        return {
            "base": category_to_json(self.base),
            "flavor": self.flavor,
            "bounds": self.bounds.to_json(),
            "saturated": self.saturated,
            "bound_events": list(self.bound_events),
            "objects": [
                {
                    "name": M.name,
                    "values": [[_text(x) for x in M.values[a]] for a in range(self.base.n_objects)],
                    "actions": [
                        [[_text(x), _text(y)] for x, y in sorted(M.actions[f].items(), key=repr)]
                        for f in range(self.base.n_morphisms)
                    ],
                    "provenance": self.provenance[i].to_json(),
                }
                for i, M in enumerate(self.objects)
            ],
        }


def _text(x) -> str:
    """An element as written to a file: a loaded string as itself, else its repr."""
    return x if isinstance(x, str) else repr(x)


def _relabelled(M: ps.Presheaf, name: str) -> ps.Presheaf:
    out, _ = ps.relabel(M, name=name)
    return out


def _structure(M: ps.Presheaf) -> tuple:
    """``M`` exactly, with each element renamed to its position in its fiber."""
    C = M.base
    pos = [{x: k for k, x in enumerate(fiber)} for fiber in M.values]
    return M.fiber_sizes(), tuple(
        tuple(pos[C.src[f]][M.actions[f][x]] for x in M.values[C.tgt[f]])
        for f in range(C.n_morphisms)
    )


def _first_iso(objects: Sequence[ps.Presheaf], memo: dict, M: ps.Presheaf) -> tuple[tuple, Optional[int]]:
    """The index of the first of ``objects`` isomorphic to ``M``, or None.

    ``memo`` maps an exact structure (:func:`_structure`) to an index found
    before; a miss scans ``objects`` in order and records a hit.  Presheaves
    with the same structure are isomorphic, and ``objects`` only ever grows
    at the end, so a recorded index is the one the scan would return.
    Returns the structure too, for the caller to record its own outcome.
    """
    key = _structure(M)
    if key in memo:
        return key, memo[key]
    sizes = M.fiber_sizes()
    for i, N in enumerate(objects):
        if sizes == N.fiber_sizes() and ps.find_iso(M, N) is not None:
            memo[key] = i
            return key, i
    return key, None


# -- closure operations --------------------------------------------------------
#
# Each operation lists the constructions that close a set of objects under it,
# one ``(key, make)`` at a time: ``key`` is a tuple of object and transformation
# indices and ``make()`` builds the construction's presheaf.  ``close`` adds
# what ``make`` builds and ``verify_axioms`` looks it up, so the two walk one
# list.  ``homs(i, j, context)`` gives the transformations
# ``objects[i] -> objects[j]`` (the builder caps them and notes ``context``
# when it does, and caps the congruences ``_quotients`` tries alike);
# ``stop()`` is tested before each pair of objects and each
# source object, where a full builder gives up.  Without a ``scope`` the
# indices are a snapshot of ``objects`` taken when the listing starts (after
# the terminal or initial object): what a consumer adds meanwhile waits for
# the next pass.


def _limits(C: FiniteCategory, objects, scope, homs, stop, seen: set):
    """The terminal object ``()``, binary products ``(i, j)`` and equalizers
    ``(i, j, p, q)`` of ``homs(i, j)[p]`` and ``[q]``.

    An equalizer is keyed in ``seen`` by its source index and, per fiber, the
    elements on which the pair agrees: these fix it up to renaming elements in
    fiber order, whatever the target, so a repeat is not listed again.  A
    repeat would be found again, or refused again by the same max_objects
    event: a subobject of a stored object never trips max_fiber.
    """
    yield (), lambda: ps.terminal_presheaf(C)
    scope = range(len(objects)) if scope is None else scope
    for i, j in itertools.combinations_with_replacement(scope, 2):
        if stop():
            return
        yield (i, j), lambda M=objects[i], N=objects[j]: ps.product(C, [M, N]).apex
    for i in scope:
        if stop():
            return
        for j in scope:
            ts = homs(i, j, f"equalizers M{i} => M{j}")
            for p, q in itertools.combinations(range(len(ts)), 2):
                agree = (i, tuple(
                    tuple(x for x in fiber if ts[p].components[a][x] == ts[q].components[a][x])
                    for a, fiber in enumerate(ts[p].source.values)
                ))
                if agree not in seen:
                    seen.add(agree)
                    yield (i, j, p, q), lambda t=ts[p], u=ts[q]: ps.equalizer(t, u).apex


def _limit_detail(*key) -> str:
    """A limit's provenance detail, which is also the battery's witness."""
    if not key:
        return "terminal"
    return ("product M{} x M{}" if len(key) == 2 else "equalizer of M{} => M{} ({},{})").format(*key)


def _images(objects, scope, homs, stop):
    """The image ``(i, j, k)`` of ``homs(i, j)[k]``."""
    scope = range(len(objects)) if scope is None else scope
    for i in scope:
        if stop():
            return
        for j in scope:
            for k, t in enumerate(homs(i, j, f"images M{i} -> M{j}")):
                yield (i, j, k), lambda t=t: ps.epi_mono_factorize(t)[0].target


def _quotients(objects, scope, capped, stop):
    """The quotient ``(i, j, k)`` of ``objects[j]`` by the ``k``-th
    congruence that :func:`_congruences` lists within the fiber sizes of
    ``R = objects[i]``, when its relation is iso to ``R``.

    A pair ``R => M`` is jointly monic with an equivalence relation as image
    iff ``R`` is iso to the relation of a congruence of ``M``, so these are
    the quotients of every equivalence relation ``R => M``, and no hom-set
    is enumerated.  Only ``R``, ``M`` that fit (:func:`_relation_fits`) are
    searched.  ``capped(congruences, context)`` gives the congruences tried
    for a pair of objects: the builder tries the first ``hom_cap`` and notes
    ``context`` when there are more, the battery tries every one.
    """
    scope = range(len(objects)) if scope is None else scope
    for i in scope:
        if stop():
            return
        R = objects[i]
        for j in scope:
            M = objects[j]
            if not _relation_fits(R, M):
                continue
            for k, theta in enumerate(capped(_congruences(M, R.fiber_sizes()), f"relations M{i} => M{j}")):
                if _relation_sizes(theta) == R.fiber_sizes() and ps.find_iso(_relation(M, theta), R) is not None:
                    yield (i, j, k), lambda M=M, theta=theta: ps.quotient_presheaf(M, [
                        (a, x, fiber[c]) for a, (fiber, classes) in enumerate(zip(M.values, theta))
                        for x, c in zip(fiber, classes)
                    ])[0]


def _coproducts(C: FiniteCategory, objects, scope, stop):
    """The initial object ``()`` and binary coproducts ``(i, j)``."""
    yield (), lambda: ps.initial_presheaf(C)
    scope = range(len(objects)) if scope is None else scope
    for i, j in itertools.combinations_with_replacement(scope, 2):
        if stop():
            return
        yield (i, j), lambda M=objects[i], N=objects[j]: ps.coproduct(C, [M, N]).apex


def _relation_fits(R: ps.Presheaf, M: ps.Presheaf) -> bool:
    """Can a pair ``R => M`` be jointly monic and reflexive?  Only if
    ``|M(a)| <= |R(a)| <= |M(a)|^2`` at every object ``a``: the pair embeds
    ``R(a)`` in ``M(a) x M(a)``, and its image holds the diagonal.  So the
    quotient listing (:func:`_quotients`) searches no congruence of ``M``
    for any other ``R``."""
    return all(m <= r <= m * m for r, m in zip(R.fiber_sizes(), M.fiber_sizes()))


def _congruences(M: ps.Presheaf, bound: Sequence[int]) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Every congruence of ``M`` whose relation has at most ``bound[a]``
    elements at each object ``a``, once each, the diagonal first if it is
    within the bound, then depth first.

    A congruence is written as :func:`presheaf.congruence_join` writes it,
    each element's class per fiber.  Its relation's size at ``a`` is the
    sum of its squared class sizes there.

    A join of congruences of a presheaf is their join as equivalence
    relations, and it only grows the sizes.  So every congruence within the
    bound is a join of the diagonal with principal congruences (those
    generated by one pair) within the bound, and it is reached by adding
    one of them at a time.  Nothing is built but index tables of ``M``'s
    fibers.
    """

    def fits(theta):
        return all(s <= b for s, b in zip(_relation_sizes(theta), bound))

    join = ps.congruence_join(M)
    diagonal = tuple(tuple(range(len(fiber))) for fiber in M.values)
    if not fits(diagonal):
        return
    yield diagonal
    principals = {}  # as an ordered set
    for a, fiber in enumerate(M.values):
        for k, l in itertools.combinations(range(len(fiber)), 2):
            pi = join(diagonal, [(a, k, l)])
            if pi not in principals and fits(pi):
                principals[pi] = None
    stack, seen = [diagonal], {diagonal}
    while stack:
        theta = stack.pop()
        for pi in principals:
            if all(theta[a][k] == theta[a][c] for a, row in enumerate(pi) for k, c in enumerate(row)):
                continue  # pi is inside theta
            both = join(theta, [(a, k, c) for a, row in enumerate(pi) for k, c in enumerate(row) if k != c])
            if both not in seen and fits(both):
                seen.add(both)
                stack.append(both)
                yield both


def _relation_sizes(theta) -> tuple[int, ...]:
    """The fiber sizes of a congruence's relation (:func:`_congruences`)."""
    return tuple(sum(n * n for n in collections.Counter(classes).values()) for classes in theta)


def _partition(component: dict, fiber) -> tuple[int, ...]:
    """The kernel of a map on ``fiber``, as each element's class: the least
    index of an element with the same image (as in :func:`_congruences`)."""
    first: dict = {}
    return tuple(first.setdefault(component[x], k) for k, x in enumerate(fiber))


def _relation(M: ps.Presheaf, theta) -> ps.Presheaf:
    """The relation presheaf of a congruence ``theta`` of ``M``: the related
    pairs of each fiber, acted on componentwise."""
    C = M.base
    values = tuple(
        tuple((x, y) for k, x in enumerate(fiber) for l, y in enumerate(fiber) if classes[k] == classes[l])
        for fiber, classes in zip(M.values, theta)
    )
    actions = tuple(
        {(x, y): (M.actions[f][x], M.actions[f][y]) for x, y in values[C.tgt[f]]}
        for f in range(C.n_morphisms)
    )
    return ps.Presheaf(C, values, actions, name=f"rel({M.name})", check=False)


class _Builder:
    def __init__(self, base: FiniteCategory, flavor: str, bounds: Bounds):
        self.base = base
        self.flavor = flavor
        self.bounds = bounds
        self.objects: list[ps.Presheaf] = []
        self.provenance: list[Provenance] = []
        self.events: list[str] = []
        self._seen_events: set[str] = set()
        self._index: dict = {}  # exact structure -> stored index, see _first_iso

    def full(self) -> bool:
        return len(self.objects) >= self.bounds.max_objects

    def note(self, event: str) -> None:
        if event not in self._seen_events:
            self._seen_events.add(event)
            self.events.append(event)

    def add(self, M: ps.Presheaf, prov: Provenance) -> Optional[int]:
        # a rejected add is not recorded, so a retry notes its own bound event
        key, i = _first_iso(self.objects, self._index, M)
        if i is not None:
            return i
        if self.full():
            self.note(f"max_objects at {prov.kind}")
            return None
        if max(M.fiber_sizes(), default=0) > self.bounds.max_fiber:
            self.note(f"max_fiber at {prov.kind}:{prov.detail}")
            return None
        self.objects.append(_relabelled(M, f"M{len(self.objects)}"))
        self.provenance.append(prov)
        self._index[key] = len(self.objects) - 1
        return len(self.objects) - 1

    def guarded(self, thunk, prov: Provenance) -> Optional[int]:
        try:
            M = thunk()
        except FiberCapExceeded:
            self.note(f"max_fiber at {prov.kind}:{prov.detail}")
            return None
        return self.add(M, prov)

    def take(self, kind: str, items, detail) -> None:
        """Add what each ``(key, make)`` of ``items`` makes, as ``kind`` with
        provenance detail ``detail(*key)``."""
        for key, make in items:
            self.guarded(make, Provenance(kind, detail(*key)))

    def capped(self, items, context: str) -> list:
        """The first ``hom_cap`` of ``items``; one more notes ``hom_cap at context``."""
        cap = self.bounds.hom_cap
        items = list(itertools.islice(items, cap + 1))
        if len(items) > cap:
            self.note(f"hom_cap at {context}")
            del items[cap:]
        return items

    def bounded_homs(self, i: int, j: int, context: str) -> list[ps.NatTransformation]:
        return self.capped(ps.hom_set(self.objects[i], self.objects[j], max_results=self.bounds.hom_cap + 1), context)

    def seed_representables(self):
        for a in range(self.base.n_objects):
            self.add(ps.yoneda(self.base, a), Provenance("representable", self.base.objects[a]))

    def finish(self, saturated: bool) -> ConcreteCompletion:
        # a builder that filled up may have stopped scanning early, so it
        # cannot honestly claim to have verified a fixpoint
        if self.full():
            self.note("max_objects reached")
        return ConcreteCompletion(
            self.base,
            self.flavor,
            self.bounds,
            tuple(self.objects),
            tuple(self.provenance),
            saturated and not self.events,
            tuple(self.events),
        )


def close(base: FiniteCategory, flavor: str, bounds: Bounds = Bounds()) -> ConcreteCompletion:
    """Alternate finite-limit closure and flavor-colimit closure to a fixpoint.

    Saturation is reported honestly: if an iteration cap or a size bound
    trips, the completion is returned truncated and flagged.  Repeats are
    skipped, an equalizer by its source and agreeing elements and a lookup
    by its exact structure; this never changes which object is stored or
    which provenance it gets.
    """
    if flavor not in FLAVORS or flavor == "fam_f":
        raise ValidationError(f"close() accepts flavors {FLAVORS[:-1]}")
    b = _Builder(base, flavor, bounds)
    b.seed_representables()
    objects, homs, full = b.objects, b.bounded_homs, b.full
    equalized: set = set()  # see _limits
    for _ in range(bounds.max_iterations):
        before = len(objects)
        b.take("limit", _limits(base, objects, None, homs, full, equalized), _limit_detail)
        if flavor in ("reg", "pret"):
            b.take("image", _images(objects, None, homs, full), "M{} -> M{} ({})".format)
        if flavor in ("ex", "pret"):
            b.take("quotient", _quotients(objects, None, b.capped, full), "M{1} by relation M{0} ({2})".format)
        if flavor in ("lext", "pret"):
            b.take("coproduct", _coproducts(base, objects, None, full),
                   lambda *key: "M{} + M{}".format(*key) if key else "empty")
        if len(objects) == before:
            return b.finish(True)
    return b.finish(False)


def direct_regular(base: FiniteCategory, bounds: Bounds = Bounds()) -> ConcreteCompletion:
    """Images of representables inside finite products of representables.

    Requires the base to be weakly lex on the generating diagrams; the
    witness diagram is reported otherwise.
    """
    report = vl.classify_completeness(base, "weak")
    if not report.passed:
        raise NotWeaklyLex(report.witness)
    b = _Builder(base, "reg", bounds)
    b.seed_representables()
    for a in range(base.n_objects):
        # built outside the guard: it has the fibers of Y(a), which passed the fiber cap when seeded
        Ya = ps.coproduct(base, [ps.yoneda(base, a)]).apex
        outs = [m for m in range(base.n_morphisms) if base.src[m] == a]
        for n in range(bounds.max_arity + 1):
            for hs in itertools.combinations_with_replacement(outs, n):
                b.guarded(
                    lambda Ya=Ya, hs=hs: _matrix_image(base, Ya, [base.tgt[h] for h in hs], [hs]),
                    Provenance("image", f"{base.objects[a]} -> ({', '.join(base.morphisms[h] for h in hs)})"),
                )
    return b.finish(True)


def direct_pretopos(base: FiniteCategory, bounds: Bounds = Bounds()) -> ConcreteCompletion:
    """Images of finite coproducts of representables in finite products.

    Always succeeds on a finite base: every finite category has fc-limits.
    """
    b = _Builder(base, "pret", bounds)
    b.seed_representables()
    objs = range(base.n_objects)
    for k in range(bounds.max_arity + 1):
        for sources in itertools.combinations_with_replacement(objs, k):
            for m in range(bounds.max_arity + 1):
                for targets in itertools.combinations_with_replacement(objs, m):
                    rows = [itertools.product(*(base.hom(s, t) for t in targets)) for s in sources]
                    for matrix in itertools.product(*rows):
                        b.guarded(
                            lambda sources=sources, targets=targets, matrix=matrix: _matrix_image(
                                base, ps.coproduct(base, [ps.yoneda(base, s) for s in sources]).apex, targets, matrix
                            ),
                            Provenance(
                                "image",
                                f"sum{[base.objects[s] for s in sources]} -> "
                                f"prod{[base.objects[t] for t in targets]} via "
                                f"{[base.morphisms[h] for row in matrix for h in row]}",
                            ),
                        )
    return b.finish(True)


def _matrix_image(base, summed: ps.Presheaf, targets, matrix) -> ps.Presheaf:
    """The image in the product of the representables at ``targets`` of the
    map from ``summed``, a coproduct of representables, whose component from
    summand ``i`` to factor ``j`` is the base morphism ``matrix[i][j]``."""
    pr = ps.product(base, [ps.yoneda(base, t) for t in targets])
    comps = tuple(
        {(i, m): tuple(base.table[h][m] for h in matrix[i]) for (i, m) in summed.values[x]}
        for x in range(base.n_objects)
    )
    q, _ = ps.epi_mono_factorize(ps.NatTransformation(summed, pr.apex, comps))
    return q.target


def fam_f(base: FiniteCategory, max_family: int = 3, bounds: Bounds = Bounds()) -> ConcreteCompletion:
    """Finite families of objects, realized as coproducts of representables."""
    b = _Builder(base, "fam_f", replace(bounds, max_objects=max(bounds.max_objects, 64)))
    for k in range(max_family + 1):
        for fam in itertools.combinations_with_replacement(range(base.n_objects), k):
            b.guarded(
                lambda fam=fam: ps.coproduct(base, [ps.yoneda(base, a) for a in fam]).apex,
                Provenance("family", ",".join(base.objects[a] for a in fam) or "(empty)"),
            )
    return b.finish(True)


# -- axiom batteries -----------------------------------------------------------


@dataclass(frozen=True)
class AxiomReport:
    completion: str
    flavor: str
    checks: dict
    passed: bool

    def to_json(self) -> dict:
        return {
            "completion": self.completion,
            "flavor": self.flavor,
            "passed": self.passed,
            "checks": self.checks,
        }


_FLAVOR_AXIOMS = {
    "none": ("limits",),
    "reg": ("limits", "regular_epi_stability", "kernel_pair_quotients"),
    "ex": ("limits", "regular_epi_stability", "kernel_pair_quotients", "effective_equivalence_relations"),
    "lext": ("limits", "coproducts", "coproducts_disjoint", "coproducts_universal"),
    "pret": (
        "limits", "regular_epi_stability", "kernel_pair_quotients",
        "effective_equivalence_relations", "coproducts", "coproducts_disjoint",
        "coproducts_universal",
    ),
    "fam_f": ("limits", "coproducts", "coproducts_disjoint", "coproducts_universal"),
}


def verify_axioms(E: ConcreteCompletion, scope: Optional[Sequence[int]] = None, flavor: Optional[str] = None) -> AxiomReport:
    """Run the exactness battery appropriate for the completion's flavor.

    ``scope`` restricts the objects quantified over (so a bounded
    materialization is judged on the region it actually closed); defaults
    to every object.  Each failed check carries a witness.

    Every check lists the constructions it needs, as ``(key, make)`` pairs
    over ``scope`` with every transformation and no stop, and passes when
    ``E`` holds each one; the first one missing from ``E`` is the witness,
    ``key`` formatted by the check's witness format.  Limits, quotients of
    equivalence relations and coproducts are listed by the closure
    operations ``close`` adds them with.

    Certificates decide what a listing would walk at length, and a
    construction ``E`` provably holds is not listed; neither changes a
    verdict or a witness, because what is not listed is always found:

    - **Effective equivalence relations.**  A pair ``R => M`` is jointly
      monic with an equivalence relation as image iff ``R`` is iso to the
      relation of a congruence of ``M``, so :func:`_quotients` lists,
      uncapped, the quotient of each congruence whose relation
      ``find_iso`` matches to ``R``, and no hom-set is enumerated.  The
      witness names only the two objects, so it is the one the pairs of
      ``hom(R, M)`` give.
    - **Constructions ``E`` holds.**  A pullback with a pointwise
      bijective leg (iso to the other leg's source), the kernel pair of a
      pointwise injective map (iso to its source) and the image of a
      pointwise surjective one (its target) are not listed, nor a kernel
      pair or an image with the source and kernel partition, or the target
      and image subset, of one listed before.
    - **Coproducts universal.**  Along ``h: X -> A+B`` the pullback of an
      injection is a union of connected components of ``X``
      (:func:`presheaf.components`).  An ``X`` is certified when ``E``
      holds one union per multiset of its components' iso classes
      (:func:`_component_unions`), which is every union up to iso.  The
      injection pullbacks are listed only along maps out of the
      uncertified objects, and a kept subset of ``X`` looked up before is
      not listed again.  Every pair's coproduct is still built first.
    """
    flavor = flavor or E.flavor
    scope = list(scope) if scope is not None else list(range(len(E.objects)))
    base, objects = E.base, E.objects
    checks: dict[str, dict] = {}

    def homs(i, j, _context):
        return E.homs(i, j)

    def never():
        return False

    def pullbacks():
        for i in scope:
            for j in scope:
                for e in E.homs(i, j):
                    if not e.is_pointwise_surjective() or e.is_pointwise_injective():
                        continue  # along a bijection the pullback is the other source
                    for i2 in scope:
                        for g in E.homs(i2, j):
                            if not g.is_pointwise_bijective():
                                yield (i, j, i2), lambda e=e, g=g: ps.pullback(e, g).apex

    def kernel_pairs():
        looked_up = set()  # (source, kernel partition) and (target, image subset)
        for (i, j, k), image in _images(objects, scope, homs, never):
            t = E.homs(i, j)[k]
            if not t.is_pointwise_injective():
                kernel = (i, tuple(_partition(c, fiber) for c, fiber in zip(t.components, objects[i].values)))
                if kernel not in looked_up:
                    looked_up.add(kernel)
                    yield (i, j, "kernel pair of"), lambda t=t: ps.pullback(t, t).apex
            if not t.is_pointwise_surjective():
                subset = (j, tuple(frozenset(c.values()) for c in t.components))
                if subset not in looked_up:
                    looked_up.add(subset)
                    yield (i, j, "coequalizer of the kernel pair of"), image

    def injection_pullbacks():
        # every pair's coproduct is built before the first lookup, so a pair
        # over the fiber cap ends the battery whichever pullback is missing
        cocones = [
            (i, j, ps.coproduct(base, [objects[i], objects[j]]))
            for i, j in itertools.combinations_with_replacement(scope, 2)
        ]
        # the certificate: a pullback along a map out of X is a union of X's
        # components, so E holds every one listed for a certified X
        uncertified = [x for x in scope if any(E.find_object(U) is None for U in _component_unions(objects[x]))]
        if not uncertified:
            return
        looked_up = set()  # (x, kept elements): a repeat was found before
        for i, j, cocone in cocones:
            k = E.find_object(cocone.apex)
            if k is None:
                continue
            iso = ps.find_iso(objects[k], cocone.apex)
            for x in uncertified:
                for h in E.homs(x, k):
                    hx = ps.compose_nats(iso, h)
                    for piece in (0, 1):
                        keep = tuple(
                            tuple(u for u in objects[x].values[a] if hx.components[a][u][0] == piece)
                            for a in range(base.n_objects)
                        )
                        if (x, keep) not in looked_up:
                            looked_up.add((x, keep))
                            yield (piece, i, j, x, k), lambda X=objects[x], keep=keep: ps.subpresheaf(X, keep)[0]

    # check name -> (listing of (key, make), witness format of a key)
    battery = {
        "limits": (lambda: _limits(base, objects, scope, homs, never, set()), _limit_detail),
        "regular_epi_stability": (pullbacks, "pullback of epi M{0}->M{1} along M{2}->M{1} missing".format),
        "kernel_pair_quotients": (kernel_pairs, "{2} M{0}->M{1} missing".format),
        "effective_equivalence_relations": (
            lambda: _quotients(objects, scope, lambda items, _context: items, never),
            "quotient of M{1} by M{0} missing".format,
        ),
        "coproducts": (
            lambda: _coproducts(base, objects, scope, never),
            lambda *key: "coproduct M{} + M{}".format(*key) if key else "initial",
        ),
        # a pointwise coproduct's injections are monic with disjoint images:
        # tests/test_presheaf.py::test_coproduct_injections_are_disjoint
        "coproducts_disjoint": (lambda: (), None),
        "coproducts_universal": (
            injection_pullbacks, "pullback of injection {0} of M{1}+M{2} along M{3}->M{4} missing".format,
        ),
    }
    for name in _FLAVOR_AXIOMS[flavor]:
        listing, witness = battery[name]
        missing = next((key for key, make in listing() if E.find_object(make()) is None), None)
        checks[name] = {"passed": missing is None, "witness": None if missing is None else witness(*missing)}
    passed = all(c["passed"] for c in checks.values())
    return AxiomReport(f"{E.flavor}({E.base.name})", flavor, checks, passed)


def _component_unions(X: ps.Presheaf):
    """A union of connected components of ``X`` (:func:`presheaf.components`)
    per multiset of their iso classes.

    A union is the coproduct of its components, so up to iso these are all
    of them: a discrete ``X`` of 12 points gives 13 unions, not 4,096.
    """
    classes: list[tuple[ps.Presheaf, list]] = []  # a representative, and the keeps of its class
    for keep in ps.components(X):
        S = ps.subpresheaf(X, keep)[0]
        same = next((keeps for R, keeps in classes if ps.find_iso(R, S) is not None), None)
        if same is None:
            classes.append((S, [keep]))
        else:
            same.append(keep)
    for counts in itertools.product(*(range(len(keeps) + 1) for _, keeps in classes)):
        chosen = [keep for (_, keeps), n in zip(classes, counts) for keep in keeps[:n]]
        yield ps.subpresheaf(X, [[u for keep in chosen for u in keep[a]] for a in range(X.base.n_objects)])[0]


# -- the universal property ----------------------------------------------------


def completion_structure(E: ConcreteCompletion, flavor: Optional[str] = None) -> lz.Sketch:
    """Search the completion category for its limits and flavor colimits.

    Everything is determined by the universal property inside the category
    itself, not read off the construction provenance.  The result is the
    sketch whose set-valued models are the structure-preserving functors:
    the limit cones, the coproduct cocones and each regular epi as a
    one-morphism fc-epi family.
    """
    flavor = flavor or E.flavor
    cat = E.as_category()
    cones = [c for c in map(limit_in_category, vl.generating_diagrams(cat)) if c is not None]

    cocones: list[Cocone] = []
    epis: list[int] = []
    if flavor in ("lext", "pret", "fam_f"):
        cc = colimit_in_category(empty_diagram(cat))
        if cc is not None:
            cocones.append(cc)
        for i, j in itertools.combinations_with_replacement(range(cat.n_objects), 2):
            cc = colimit_in_category(pair_diagram(cat, i, j))
            if cc is not None:
                cocones.append(cc)
    if flavor in ("reg", "ex", "pret"):
        for e in range(cat.n_morphisms):
            if _is_regular_epi_in(cat, e):
                epis.append(e)
    return lz.Sketch(cat, tuple(cones), tuple(cocones), tuple((e,) for e in epis))


def _is_regular_epi_in(cat: FiniteCategory, e: int) -> bool:
    """Is ``e`` the coequalizer of its own kernel pair, inside ``cat``?"""
    kp = limit_in_category(cospan_diagram(cat, e, e))
    if kp is None:
        return False
    p1, p2 = kp.legs[0], kp.legs[2]
    diagram = parallel_pair_diagram(cat, p1, p2)
    target = cat.tgt[e]
    legs = (cat.table[e][p1], e)
    try:
        Cocone(diagram, target, legs)
    except ValidationError:
        return False
    return is_universal(cat, target, legs, [(c.apex, c.legs) for c in all_cocones(diagram)], cocone=True)


@dataclass(frozen=True, eq=False)
class LanExtension:
    """The left extension of a set-valued functor along the inclusion."""

    functor: ps.SetFunctor
    class_maps: tuple[dict, ...]  # per completion object: triple -> representative


def lan_extension(E: ConcreteCompletion, F: ps.SetFunctor) -> LanExtension:
    """Extend ``F`` over the completion by weighted colimits at each object."""
    cat = E.as_category()
    coends = [ps.weighted_colimit(E.objects[i], F) for i in range(len(E.objects))]
    values = tuple(q.elements for q in coends)
    actions = []
    for mid in range(cat.n_morphisms):
        i, j, t = E.morphism_nat(mid)
        act = {}
        for (c, w, x) in values[i]:
            act[(c, w, x)] = coends[j].class_of[(c, t.components[c][w], x)]
        actions.append(act)
    G = ps.SetFunctor(cat, values, tuple(actions), name=f"Lan({F.name})")
    return LanExtension(G, tuple(q.class_of for q in coends))


def restriction(E: ConcreteCompletion, G: ps.SetFunctor) -> ps.SetFunctor:
    """Restrict a functor on the completion along the inclusion of the base."""
    C = E.base
    fd, _ = E.inclusion()
    values = tuple(G.values[fd.object_map[a]] for a in range(C.n_objects))
    actions = tuple(dict(G.actions[fd.morphism_map[f]]) for f in range(C.n_morphisms))
    return ps.SetFunctor(C, values, actions, name=f"{G.name}|")


def _natural_bijection(C: FiniteCategory, can: Sequence[dict], source: tuple, target: tuple) -> bool:
    """Is ``can`` a natural bijection between the functors on ``C`` with
    ``source`` and ``target`` as their value and action tables?

    ``can[a]`` maps each element of ``source``'s values at ``a``.
    """
    (values, actions), (values2, actions2) = source, target
    for a in range(C.n_objects):
        image = set(can[a].values())
        if len(image) != len(values[a]) or image != set(values2[a]):
            return False
    return all(
        actions2[f][can[C.src[f]][x]] == can[C.tgt[f]][actions[f][x]]
        for f in range(C.n_morphisms)
        for x in values[C.src[f]]
    )


def _restriction_agrees(E: ConcreteCompletion, F: ps.SetFunctor, lan: LanExtension) -> bool:
    """Canonical comparison of the extension's restriction with the original."""
    C = E.base
    fd, isos = E.inclusion()
    can = [
        {x: lan.class_maps[k][(c, isos[c].components[c][C.identity[c]], x)] for x in F.values[c]}
        for c, k in enumerate(fd.object_map)
    ]
    restricted = (
        [lan.functor.values[k] for k in fd.object_map],
        [lan.functor.actions[m] for m in fd.morphism_map],
    )
    return _natural_bijection(C, can, (F.values, F.actions), restricted)


def _lan_of_restriction_agrees(E: ConcreteCompletion, G: ps.SetFunctor, GK: ps.SetFunctor) -> bool:
    """Canonical comparison of the extension of the restriction ``GK`` with ``G``."""
    fd, isos = E.inclusion()
    lan = lan_extension(E, GK)
    cans = []
    for i, M in enumerate(E.objects):
        can = {}
        for (c, w, x), rep in lan.class_maps[i].items():
            t = ps.compose_nats(ps.classifying_nat(M, c, w), isos[c].inverse())
            val = G.actions[E.morphism_id(fd.object_map[c], i, t)][x]
            if can.setdefault(rep, val) != val:
                return False  # not well defined on the class of rep
        cans.append(can)
    return _natural_bijection(E.as_category(), cans, (lan.functor.values, lan.functor.actions), (G.values, G.actions))


@dataclass(frozen=True)
class UniversalPropertyReport:
    flavor: str
    value_bound: int
    flats: int
    exacts: int
    flat_iso_classes: int
    exact_iso_classes: int
    extensions_exact: bool
    restrictions_flat: bool
    round_trips_ok: bool
    correspondence: bool
    sampled: bool
    failures: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "flavor": self.flavor,
            "value_bound": self.value_bound,
            "flats": self.flats,
            "exacts": self.exacts,
            "flat_iso_classes": self.flat_iso_classes,
            "exact_iso_classes": self.exact_iso_classes,
            "extensions_exact": self.extensions_exact,
            "restrictions_flat": self.restrictions_flat,
            "round_trips_ok": self.round_trips_ok,
            "correspondence": self.correspondence,
            "sampled": self.sampled,
            "failures": list(self.failures),
        }


def _drawn(gen, cap: int, note: list):
    """The first ``cap`` items of ``gen``, drawn one at a time; drawing one
    more notes "sampled".  A caller that tests each item as it comes holds
    only the ones it keeps."""
    for k, item in enumerate(gen):
        if k == cap:
            note.append("sampled")
            return
        yield item


def _iso_classes(functors: Sequence[ps.SetFunctor]) -> int:
    reps: list[ps.SetFunctor] = []
    for F in functors:
        if not any(
            F.total_size() == R.total_size() and ps.find_set_functor_iso(F, R) is not None
            for R in reps
        ):
            reps.append(F)
    return len(reps)


def universal_property_check(
    C: FiniteCategory,
    E: ConcreteCompletion,
    value_bound: int,
    flavor: Optional[str] = None,
    cap: Optional[int] = None,
    seed: int = 0,
) -> UniversalPropertyReport:
    """Verify the extension/restriction equivalence on enumerable functors.

    Every flat functor on the base must extend to a functor preserving the
    completion's materialized structure; every structure-preserving functor
    must restrict to a flat one; both canonical round-trip comparisons must
    be isomorphisms; and the two sides must have the same number of
    isomorphism classes.

    Both sides are drawn by ``localize.models``: the base's functors as the
    models of the empty sketch, the completion's structure-preserving ones
    as the models of ``completion_structure``, so no candidate that breaks
    the structure is built.  The cap counts the candidates that survive the
    sketch's constraints, on each side; drawing more notes "sampled".
    """
    flavor = flavor or E.flavor
    cap = cap or E.bounds.enumeration_cap
    notes: list[str] = []
    rng = random.Random(seed)
    struct = completion_structure(E, flavor)
    flats = [
        F for F in _drawn(lz.models(lz.Sketch(C), value_bound, rng), cap, notes)
        if fl.is_flat(F).flat
    ]
    exacts = list(_drawn(lz.models(struct, value_bound, rng), cap, notes))
    failures: list[str] = []
    extensions_exact = restrictions_flat = round_trips_ok = True
    for F in flats:
        lan = lan_extension(E, F)
        if not lz.is_sketch_model(struct, lan.functor):
            extensions_exact = False
            failures.append(f"extension of flat functor {F.values} is not structure-preserving")
        if not _restriction_agrees(E, F, lan):
            round_trips_ok = False
            failures.append(f"restriction of the extension differs from {F.values}")
    for G in exacts:
        GK = restriction(E, G)
        if not fl.is_flat(GK).flat:
            restrictions_flat = False
            failures.append(f"restriction of structure-preserving functor {G.values} is not flat")
        if not _lan_of_restriction_agrees(E, G, GK):
            round_trips_ok = False
            failures.append(f"extension of the restriction differs from {G.values}")
    flat_classes = _iso_classes(flats)
    exact_classes = _iso_classes(exacts)
    correspondence = (
        extensions_exact and restrictions_flat and round_trips_ok
        and flat_classes == exact_classes
    )
    return UniversalPropertyReport(
        flavor, value_bound, len(flats), len(exacts), flat_classes, exact_classes,
        extensions_exact, restrictions_flat, round_trips_ok, correspondence,
        "sampled" in notes, tuple(failures),
    )


def nonrepresentable_limit_witness(C: FiniteCategory, bounds: Bounds = Bounds()):
    """A finite limit of representables not isomorphic to any representable.

    Runs the colimit-free closure; any object it adds beyond the seeded
    representables certifies that the closure strictly extends the base,
    which for a Cauchy-complete non-lex base rules out a free completion
    with no colimit generators.  Returns ``(completion, index or None)``.
    """
    E = close(C, "none", bounds)
    for i, prov in enumerate(E.provenance):
        if prov.kind != "representable":
            return E, i
    return E, None


def completion_from_json(data: dict) -> ConcreteCompletion:
    """Rebuild a serialized completion; every presheaf is re-validated, and
    a file of the wrong shape raises ``ValidationError``."""
    from .fincat import json_field, validate_category

    base = validate_category(json_field(data, "base", dict, "completion"))
    raw_bounds = json_field(data, "bounds", dict, "completion")
    if not raw_bounds.keys() <= Bounds.__dataclass_fields__.keys() or any(
        type(v) is not int for v in raw_bounds.values()
    ):
        raise ValidationError(f"completion bounds {raw_bounds!r} are not named integers")
    bounds = Bounds(**raw_bounds)
    objects, provenance = [], []
    for entry in json_field(data, "objects", list, "completion"):
        name = json_field(entry, "name", str, "completion object")
        where = f"completion object {name}"
        fibers = json_field(entry, "values", list, where)
        actions = json_field(entry, "actions", list, where)
        pairs = [xy for act in actions if isinstance(act, list) for xy in act]
        if (len(fibers), len(actions)) != (base.n_objects, base.n_morphisms) or not (
            all(isinstance(row, list) for row in fibers + actions + pairs)
            and all(len(xy) == 2 for xy in pairs)
            and all(isinstance(x, (str, int)) for row in fibers + pairs for x in row)
        ):
            raise ValidationError(f"{where} is not a table of value sets and actions over {base.name}")
        values = tuple(tuple(fiber) for fiber in fibers)
        objects.append(ps.Presheaf(base, values, tuple({x: y for (x, y) in act} for act in actions), name=name))
        prov = json_field(entry, "provenance", dict, where)
        provenance.append(Provenance(*(json_field(prov, k, str, f"provenance of {name}") for k in ("kind", "detail"))))
    events = json_field(data, "bound_events", list, "completion")
    if not all(isinstance(e, str) for e in events):
        raise ValidationError(f"completion bound_events {events!r} are not strings")
    return ConcreteCompletion(
        base,
        json_field(data, "flavor", str, "completion"),
        bounds,
        tuple(objects),
        tuple(provenance),
        json_field(data, "saturated", bool, "completion"),
        tuple(events),
    )
