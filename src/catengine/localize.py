"""Categories of fractions, orthogonality and injectivity, sketch models.

Fractions are computed by the span calculus: a morphism of the localized
category is an equivalence class of spans whose left leg belongs to the
inverted class.  The equivalence is saturated to a fixpoint over the finite
set of spans, composition goes through chosen pullbacks (never fabricated:
a missing pullback is an error), and the resulting table is re-validated as
a finite category, which re-proves associativity and unitality.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Iterator, Sequence

from .errors import (
    EnumerationTooLarge,
    MissingPullback,
    NotCongruence,
    ValidationError,
)
from .fincat import (
    Cocone,
    Cone,
    FiniteCategory,
    FunctorData,
    colimit_in_category,
    compose_functors,
    enumerate_functors,
    finset_category,
    mediators,
    pair_diagram,
    pullback_in_category,
)
from . import presheaf as ps
from . import flatness as fl

KINDS = ("pullback", "regular", "lextensive")


@dataclass(frozen=True)
class Congruence:
    host: FiniteCategory
    members: frozenset
    kind: str
    notes: tuple[str, ...] = ()


def validate_congruence(host: FiniteCategory, members, kind: str = "pullback") -> Congruence:
    """Exhaustively verify the congruence axioms for the given kind.

    Checks: all isomorphisms present; two-out-of-three; stability under
    those pullbacks that exist in the host; for the lextensive kind,
    closure under the binary coproducts the host happens to have (pairs
    whose coproduct is missing are vacuously closed and noted).
    """
    if kind not in KINDS:
        raise ValidationError(f"unknown congruence kind {kind!r}")
    members = frozenset(members)
    notes: list[str] = []
    for m in members:
        if not (0 <= m < host.n_morphisms):
            raise ValidationError(f"unknown morphism id {m}")
    missing_iso = host.isos() - members
    if missing_iso:
        raise NotCongruence("isomorphisms", host.morphisms[min(missing_iso)])
    for g in range(host.n_morphisms):
        for f in range(host.n_morphisms):
            if host.table[g][f] < 0:
                continue
            c = host.table[g][f]
            inside = (f in members) + (g in members) + (c in members)
            if inside == 2:
                raise NotCongruence(
                    "two-out-of-three", (host.morphisms[g], host.morphisms[f])
                )
    for s in sorted(members):
        for f in range(host.n_morphisms):
            if host.tgt[f] != host.tgt[s]:
                continue
            cone = pullback_in_category(host, f, s)
            if cone is None:
                # the calculus needs this square; a member must pull back
                raise NotCongruence(
                    "pullback-stability", (host.morphisms[s], host.morphisms[f])
                )
            if cone.legs[0] not in members:
                raise NotCongruence(
                    "pullback-stability", (host.morphisms[s], host.morphisms[f])
                )
    if kind == "lextensive":
        for s in sorted(members):
            for t in sorted(members):
                src_cp = colimit_in_category(pair_diagram(host, host.src[s], host.src[t]))
                tgt_cp = colimit_in_category(pair_diagram(host, host.tgt[s], host.tgt[t]))
                if src_cp is None or tgt_cp is None:
                    notes.append(
                        f"coproduct of ({host.morphisms[s]}, {host.morphisms[t]}) undefined; vacuously closed"
                    )
                    continue
                s_plus_t = mediators(
                    host, src_cp.apex, src_cp.legs, tgt_cp.apex,
                    (host.table[tgt_cp.legs[0]][s], host.table[tgt_cp.legs[1]][t]), cocone=True,
                )
                if len(s_plus_t) != 1:
                    raise ValidationError("internal: coproduct mediator not unique")
                if s_plus_t[0] not in members:
                    raise NotCongruence(
                        "coproduct-closure", (host.morphisms[s], host.morphisms[t])
                    )
    return Congruence(host, members, kind, tuple(notes))


# -- the span calculus ---------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FractionsResult:
    congruence: Congruence
    category: FiniteCategory
    projection: FunctorData
    classes: tuple[tuple[int, int], ...]  # representative span per localized morphism


def _spans(host: FiniteCategory, members: frozenset) -> list[tuple[int, int]]:
    out = []
    for s in range(host.n_morphisms):
        if s not in members:
            continue
        x = host.src[s]
        for f in range(host.n_morphisms):
            if host.src[f] == x:
                out.append((s, f))
    return out


def _directly_equivalent(host, members, sp1, sp2) -> bool:
    (s, f), (s2, f2) = sp1, sp2
    if host.tgt[s] != host.tgt[s2] or host.tgt[f] != host.tgt[f2]:
        return False
    x, x2 = host.src[s], host.src[s2]
    for z in range(host.n_objects):
        for t in host.hom(z, x):
            if t not in members:
                continue
            for t2 in host.hom(z, x2):
                if t2 not in members:
                    continue
                if (
                    host.table[s][t] == host.table[s2][t2]
                    and host.table[f][t] == host.table[f2][t2]
                ):
                    return True
    return False


def fractions(cong: Congruence) -> FractionsResult:
    """Invert the congruence by the span calculus.

    Composition pulls the second span's left leg back along the first
    span's right leg; the required pullbacks must exist in the host.  The
    projection functor is checked to invert every member.
    """
    host, members = cong.host, cong.members
    spans = _spans(host, members)
    span_idx = {sp: i for i, sp in enumerate(spans)}
    uf = ps._UnionFind(range(len(spans)))
    for i, sp1 in enumerate(spans):
        for j in range(i + 1, len(spans)):
            if uf.find(i) == uf.find(j):
                continue
            if _directly_equivalent(host, members, sp1, spans[j]):
                uf.union(i, j)
    reps: list[tuple[int, int]] = []
    rep_of: dict[int, int] = {}
    for i, sp in enumerate(spans):
        if uf.find(i) == i:
            rep_of[i] = len(reps)
            reps.append(sp)
    cls = [rep_of[uf.find(i)] for i in range(len(spans))]

    pullback_legs: dict[tuple[int, int], tuple[int, int]] = {}  # (f, t) -> (q, p)

    def compose_spans(sp2, sp1):
        # sp1: a -> b then sp2: b -> c
        (t, g), (s, f) = sp2, sp1
        if (f, t) not in pullback_legs:
            cone = pullback_in_category(host, f, t)
            if cone is None:
                raise MissingPullback(host.morphisms[f], host.morphisms[t])
            pullback_legs[f, t] = cone.legs[0], cone.legs[2]
        q, p = pullback_legs[f, t]
        return (host.table[s][q], host.table[g][p])

    n = len(reps)
    table = [[-1] * n for _ in range(n)]
    for j, sp2 in enumerate(reps):
        for i, sp1 in enumerate(reps):
            if host.tgt[sp1[1]] != host.tgt[sp2[0]]:
                continue
            table[j][i] = cls[span_idx[compose_spans(sp2, sp1)]]
    # well-definedness across all representatives of each class
    for j, sp2 in enumerate(spans):
        for i, sp1 in enumerate(spans):
            if host.tgt[sp1[1]] != host.tgt[sp2[0]]:
                continue
            got = cls[span_idx[compose_spans(sp2, sp1)]]
            if got != table[cls[j]][cls[i]]:
                raise ValidationError("internal: span composition not well defined on classes")
    identity = []
    for a in range(host.n_objects):
        e = host.identity[a]
        identity.append(cls[span_idx[(e, e)]])
    cat = FiniteCategory.build(
        host.objects,
        tuple(f"[{host.morphisms[s]};{host.morphisms[f]}]" for (s, f) in reps),
        tuple(host.tgt[s] for (s, _) in reps),
        tuple(host.tgt[f] for (_, f) in reps),
        tuple(identity),
        table,
        name=f"{host.name}[inv]",
    )
    proj = FunctorData(
        host, cat,
        tuple(range(host.n_objects)),
        tuple(cls[span_idx[(host.identity[host.src[f]], f)]] for f in range(host.n_morphisms)),
    )
    for s in sorted(members):
        if proj.morphism_map[s] not in cat.isos():
            raise ValidationError(f"projection fails to invert {host.morphisms[s]}")
    return FractionsResult(cong, cat, proj, tuple(reps))


@dataclass(frozen=True)
class LocalizationCheckReport:
    targets: tuple[str, ...]
    functors_checked: int
    inverting: int
    passed: bool
    failures: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "targets": list(self.targets),
            "functors_checked": self.functors_checked,
            "inverting": self.inverting,
            "passed": self.passed,
            "failures": list(self.failures),
        }


def localization_universal_check(
    frac: FractionsResult, targets: Sequence[FiniteCategory], cap: int = 20000
) -> LocalizationCheckReport:
    """A functor factors through the projection iff it inverts the class,
    and then uniquely; verified by full enumeration into each target."""
    host = frac.congruence.host
    members = frac.congruence.members
    checked = inverting = 0
    failures: list[str] = []
    for T in targets:
        t_functors = list(enumerate_functors(frac.category, T))
        if len(t_functors) > cap:
            raise EnumerationTooLarge(len(t_functors), cap)
        for F in enumerate_functors(host, T):
            checked += 1
            if checked > cap:
                raise EnumerationTooLarge(checked, cap)
            inverts = all(F.morphism_map[s] in T.isos() for s in members)
            factorizations = [
                G for G in t_functors if compose_functors(G, frac.projection) == F
            ]
            if inverts:
                inverting += 1
                if len(factorizations) != 1:
                    failures.append(
                        f"{T.name}: inverting functor has {len(factorizations)} factorizations"
                    )
            elif factorizations:
                failures.append(f"{T.name}: non-inverting functor factors")
    return LocalizationCheckReport(
        tuple(T.name for T in targets), checked, inverting, not failures, tuple(failures)
    )


# -- orthogonality and injectivity ----------------------------------------------


@dataclass(frozen=True)
class FcCone:
    host: FiniteCategory
    vertex: int
    legs: tuple[int, ...]

    def __post_init__(self):
        for leg in self.legs:
            if self.host.src[leg] != self.vertex:
                raise ValidationError("fc-cone legs must share the vertex")


def _canonical_precomposition(cone: FcCone, obj: int):
    host = cone.host
    pairs = [
        (i, g)
        for i, leg in enumerate(cone.legs)
        for g in host.hom(host.tgt[leg], obj)
    ]
    image = [host.table[g][cone.legs[i]] for (i, g) in pairs]
    return pairs, image


def is_fc_orthogonal(cone: FcCone, obj: int) -> bool:
    """Is precomposition a bijection from the legs' hom-sets onto the vertex's?"""
    pairs, image = _canonical_precomposition(cone, obj)
    target = cone.host.hom(cone.vertex, obj)
    return len(set(image)) == len(image) and set(image) == set(target)


def is_fc_injective(cone: FcCone, obj: int) -> bool:
    """Is precomposition a surjection onto the vertex's hom-set?"""
    _, image = _canonical_precomposition(cone, obj)
    return set(image) == set(cone.host.hom(cone.vertex, obj))


# -- sketches -------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Sketch:
    host: FiniteCategory
    limit_specs: tuple[Cone, ...] = ()
    coproduct_specs: tuple[Cocone, ...] = ()
    fc_epi_specs: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        for cone in self.limit_specs:
            if cone.diagram.target != self.host:
                raise ValidationError("limit spec lives outside the host")
        for cocone in self.coproduct_specs:
            if cocone.diagram.target != self.host:
                raise ValidationError("coproduct spec lives outside the host")
        for fam in self.fc_epi_specs:
            if not fam:
                raise ValidationError("an fc-epi family needs at least one morphism")
            tgts = {self.host.tgt[e] for e in fam}
            if len(tgts) != 1:
                raise ValidationError("fc-epi family must share its target")

    @functools.cached_property
    def checks(self) -> tuple:
        """Each spec as ``(support, objects, check)``, limits first, then
        coproducts, then fc-epi families: ``check(F)`` says whether the set
        functor ``F`` sends it to a limit, a colimit or a jointly surjective
        family, reading ``F.values`` only at ``objects`` and ``F.actions``
        only at the morphisms of ``support``."""
        out = []
        for spec, preserves in [(c, fl.preserves_limit) for c in self.limit_specs] + [
            (c, fl.preserves_colimit) for c in self.coproduct_specs
        ]:
            body = spec.diagram.body
            out.append((
                spec.legs + body.morphism_map, (spec.apex, *body.object_map),
                lambda F, spec=spec, preserves=preserves: preserves(F, spec),
            ))
        for fam in self.fc_epi_specs:
            tgt = self.host.tgt[fam[0]]
            out.append((
                fam, (tgt,),
                lambda F, fam=fam, tgt=tgt: set().union(*(F.actions[e].values() for e in fam)) == set(F.values[tgt]),
            ))
        return tuple(out)


def is_sketch_model(sk: Sketch, F: ps.SetFunctor) -> bool:
    return all(check(F) for _, _, check in sk.checks)


def _cardinalities(sk: Sketch):
    """What the sketch forces on the sizes of a model's values: with
    ``size[a]`` the size at object ``a``, a discrete limit spec has the
    product of its vertices' sizes at its apex (1 for the empty product), a
    discrete coproduct spec the sum (0 for the empty sum), and an fc-epi
    family's target is no larger than the sum of its sources."""
    def discrete(spec):
        S = spec.diagram.shape
        return all(S.is_identity(s) for s in range(S.n_morphisms))

    products = [(c.apex, c.diagram.body.object_map) for c in sk.limit_specs if discrete(c)]
    sums = [(c.apex, c.diagram.body.object_map) for c in sk.coproduct_specs if discrete(c)]
    covers = [(sk.host.tgt[fam[0]], [sk.host.src[e] for e in fam]) for fam in sk.fc_epi_specs]

    def fits(size) -> bool:
        return (
            all(size[a] == math.prod(size[v] for v in vs) for a, vs in products)
            and all(size[a] == sum(size[v] for v in vs) for a, vs in sums)
            and all(size[a] <= sum(size[v] for v in vs) for a, vs in covers)
        )

    return fits


def models(sk: Sketch, value_bound: int, rng=None) -> Iterator[ps.SetFunctor]:
    """The models of the sketch among the set functors on its host with
    values of size at most ``value_bound``, in the order in which
    ``presheaf.enumerate_set_functors`` draws them (with the same ``rng``,
    the same draw).

    A candidate that cannot be a model is never built.  Functors into
    FinSet<=value_bound, whose object ``k`` is the set ``range(k)``, are
    enumerated by ``fincat.enumerate_functors`` with two exact prunes: an
    object map whose sizes break ``_cardinalities`` is skipped, and each
    spec is checked on the decoded maps as soon as its support is assigned,
    which cuts the branch when it fails.  Every survivor is still built by
    the checked ``SetFunctor`` constructor and yielded only if it passes
    ``is_sketch_model``.
    """
    FS, decode = finset_category(value_bound)
    maps = [dict(enumerate(t)) for _, _, t in decode]

    def cut(support, objects, check):
        return lambda omap, mmap: check(SimpleNamespace(
            values={a: range(omap[a]) for a in objects}, actions={m: maps[mmap[m]] for m in support},
        ))

    cuts = [(support, cut(support, objects, check)) for support, objects, check in sk.checks]
    for fd in enumerate_functors(sk.host, FS, rng=rng, fits=_cardinalities(sk), cuts=cuts):
        F = ps.set_functor_from_functor_data(fd, decode)
        if is_sketch_model(sk, F):
            yield F


def sketch_models(sk: Sketch, value_bound: int, cap: int = 20000, rng=None) -> list[ps.SetFunctor]:
    """All bounded set-valued models of the sketch, from :func:`models`.

    The cap counts the candidates that survive the sketch's constraints,
    which are its models: more than ``cap`` of them raise
    ``EnumerationTooLarge``.
    """
    out = list(itertools.islice(models(sk, value_bound, rng), cap + 1))
    if len(out) > cap:
        raise EnumerationTooLarge(len(out), cap)
    return out
