from __future__ import annotations

import collections
import hashlib
import itertools
import json
import random

import pytest

from catengine import fincat as fc
from catengine import presheaf as ps
from catengine import completions as cp
from catengine import localize as lz
from catengine import virtlim as vl
from catengine.errors import EnumerationTooLarge, NotCongruence
import oracles


def test_iso_congruences_valid_everywhere(cats):
    for name, C in cats.items():
        cong = lz.validate_congruence(C, C.isos(), "pullback")
        assert cong.members == C.isos(), name


def test_arrow_all_morphisms_valid(cats):
    cong = lz.validate_congruence(cats["ARROW"], range(3), "pullback")
    assert len(cong.members) == 3


def test_par_partial_class_rejected(cats):
    with pytest.raises(NotCongruence) as exc:
        lz.validate_congruence(cats["PAR"], {0, 1, 2}, "pullback")
    assert exc.value.axiom == "pullback-stability"
    assert set(exc.value.witness) == {"u", "v"}


def test_two_out_of_three_rejected(cats):
    # in CHAIN3, {isos, f01, f12} misses the composite f02
    CHAIN3 = cats["CHAIN3"]
    members = set(CHAIN3.isos()) | {CHAIN3.morphism_index("f01"), CHAIN3.morphism_index("f12")}
    with pytest.raises(NotCongruence) as exc:
        lz.validate_congruence(CHAIN3, members, "pullback")
    assert exc.value.axiom == "two-out-of-three"


def test_lextensive_kind_vacuous_when_coproducts_missing(cats):
    # DISC2 has no coproduct of its two objects: closure is vacuous, noted
    cong = lz.validate_congruence(cats["DISC2"], cats["DISC2"].isos(), "lextensive")
    assert cong.notes
    # ARROW is a join-semilattice: coproducts exist, closure checked for real
    cong2 = lz.validate_congruence(cats["ARROW"], range(3), "lextensive")
    assert not cong2.notes


def test_fractions_at_isos_is_equivalence(cats):
    for name, C in cats.items():
        frac = lz.fractions(lz.validate_congruence(C, C.isos(), "pullback"))
        assert frac.projection.is_equivalence(), name
        frac.category.check()


def test_arrow_localized_at_everything_is_one(cats):
    ARROW, ONE = cats["ARROW"], cats["ONE"]
    frac = lz.fractions(lz.validate_congruence(ARROW, range(3), "pullback"))
    assert all(len(frac.category.hom(a, b)) == 1 for a in range(2) for b in range(2))
    to_one = fc.FunctorData(
        frac.category, ONE, (0, 0), tuple(0 for _ in range(frac.category.n_morphisms))
    )
    assert to_one.is_equivalence()


def test_groupoid_localizes_to_itself(cats):
    Z2 = cats["Z2"]
    frac = lz.fractions(lz.validate_congruence(Z2, range(2), "pullback"))
    assert frac.category.n_morphisms == 2
    assert frac.projection.is_equivalence()


def test_localization_universal_check(cats):
    ARROW = cats["ARROW"]
    frac = lz.fractions(lz.validate_congruence(ARROW, range(3), "pullback"))
    targets = [cats["ONE"], cats["DISC2"], cats["PAR"]]
    rep = lz.localization_universal_check(frac, targets)
    assert rep.passed
    # non-inverting functors are certified non-factorable: identity on ARROW
    rep2 = lz.localization_universal_check(frac, [ARROW])
    assert rep2.passed
    non_inverting = [
        F
        for F in fc.enumerate_functors(ARROW, ARROW)
        if F.morphism_map[2] not in ARROW.isos()
    ]
    assert non_inverting  # e.g. the identity functor
    t_functors = list(fc.enumerate_functors(frac.category, ARROW))
    for F in non_inverting:
        assert not any(fc.compose_functors(G, frac.projection) == F for G in t_functors)


def test_fractions_universal_check_at_isos(cats):
    PAR = cats["PAR"]
    frac = lz.fractions(lz.validate_congruence(PAR, PAR.isos(), "pullback"))
    rep = lz.localization_universal_check(frac, [cats["ONE"], cats["DISC2"]])
    assert rep.passed and rep.inverting == rep.functors_checked


@pytest.fixture(scope="module")
def functor_category_host(cats):
    """Functors from DISC2 into sets of size <= 1, as a finite category."""
    DISC2 = cats["DISC2"]
    FS1, dec = fc.finset_category(1)
    functors = [ps.set_functor_from_functor_data(fd, dec) for fd in fc.enumerate_functors(DISC2, FS1)]
    pres = [F.as_presheaf() for F in functors]
    mors, index = [], {}
    for i, M in enumerate(pres):
        for j, N in enumerate(pres):
            for t in ps.hom_set(M, N):
                index[(i, j, t.key())] = len(mors)
                mors.append((i, j, t))
    table = [[-1] * len(mors) for _ in mors]
    for gi, (j2, k, g) in enumerate(mors):
        for fi, (i, j, f) in enumerate(mors):
            if j == j2:
                table[gi][fi] = index[(i, k, ps.compose_nats(g, f).key())]
    idt = [index[(i, i, ps.identity_nat(pres[i]).key())] for i in range(len(pres))]
    host = fc.FiniteCategory.build(
        tuple(f"F{i}" for i in range(len(pres))),
        tuple(f"n{k}" for k in range(len(mors))),
        tuple(i for (i, _, _) in mors),
        tuple(j for (_, j, _) in mors),
        tuple(idt),
        table,
        name="[DISC2,FinSet<=1]",
    )
    sizes = {tuple(len(functors[i].values[a]) for a in range(2)): i for i in range(len(functors))}
    return host, sizes


def test_orthogonality_examples(cats, functor_category_host):
    host, sizes = functor_category_host
    init, hA, hB, d1 = sizes[(0, 0)], sizes[(1, 0)], sizes[(0, 1)], sizes[(1, 1)]
    legs = (host.hom(init, hA)[0], host.hom(init, hB)[0])
    cone = lz.FcCone(host, init, legs)
    assert not lz.is_fc_orthogonal(cone, d1)  # two maps collapse onto one
    assert lz.is_fc_injective(cone, d1)
    ident = lz.FcCone(host, d1, (host.identity[d1],))
    assert lz.is_fc_orthogonal(ident, hA) and lz.is_fc_orthogonal(ident, init)
    # empty-legged cone at a vertex with empty hom-set: vacuously orthogonal
    empty_cone = lz.FcCone(host, d1, ())
    target_with_no_maps_from_d1 = init
    assert not host.hom(d1, target_with_no_maps_from_d1)
    assert lz.is_fc_orthogonal(empty_cone, target_with_no_maps_from_d1)
    # nonempty hom against legs with empty hom-sets: not injective
    assert not lz.is_fc_injective(empty_cone, d1)


def test_orthogonality_implies_injectivity_at_scale(cats, functor_category_host):
    host, _ = functor_category_host
    pairs = violations = 0
    hosts = [host]
    for name in ("PAR", "Z2", "SPLIT"):
        E = cp.direct_pretopos(cats[name], cp.Bounds(max_arity=2))
        hosts.append(E.as_category())
    for H in hosts:
        for vertex in range(H.n_objects):
            outs = [m for m in range(H.n_morphisms) if H.src[m] == vertex]
            for legs in itertools.chain(
                itertools.combinations(outs, 1), itertools.combinations(outs, 2)
            ):
                cone = lz.FcCone(H, vertex, tuple(legs))
                for obj in range(H.n_objects):
                    pairs += 1
                    if lz.is_fc_orthogonal(cone, obj) and not lz.is_fc_injective(cone, obj):
                        violations += 1
    assert pairs >= 100
    assert violations == 0


def test_sketch_models_examples(cats):
    ONE, DISC2 = cats["ONE"], cats["DISC2"]
    assert len(lz.sketch_models(lz.Sketch(ONE), 1)) == 2
    # terminal spec: the empty cone at an apex forces a singleton there
    sk = lz.Sketch(DISC2, limit_specs=(fc.Cone(fc.empty_diagram(DISC2), 0, ()),))
    models = lz.sketch_models(sk, 2)
    assert models and all(len(F.values[0]) == 1 for F in models)
    assert len(models) == len([F for F in ps.enumerate_set_functors(DISC2, 2) if len(F.values[0]) == 1])
    # unsatisfiable at the bound: a coproduct spec forcing |F| > bound
    PAR = cats["PAR"]


def test_sketch_with_unsatisfiable_spec(cats):
    # in the skeleton of finite sets <= 2, demand 2 be the coproduct 2+2
    FS2, _ = fc.finset_category(2)
    two = FS2.object_index("2")
    legs = (FS2.identity[two], FS2.identity[two])
    diagram = fc.pair_diagram(FS2, two, two)
    cocone = fc.Cocone(diagram, two, legs)
    sk = lz.Sketch(FS2, coproduct_specs=(cocone,))
    models = lz.sketch_models(sk, 2)
    assert all(len(F.values[two]) == 0 for F in models)


def test_fc_epi_sketch(cats):
    PAR = cats["PAR"]
    # u and v jointly epi onto B: every element of F(B) is hit
    sk = lz.Sketch(PAR, fc_epi_specs=((2, 3),))
    for F in lz.sketch_models(sk, 2):
        assert set(F.actions[2].values()) | set(F.actions[3].values()) == set(F.values[1])


# unpruned generate-and-filter takes over 5 s at value bound 2 on these
# completions (PAR lext 6.3 s, the others past 20 s), so the referee compares
# them at value bound 1
REFEREE_AT_BOUND_1 = {"CHAIN3 lext", "SPLIT lext", "PAR lext", "PAR reg"}


def referee_cases(cats):
    """``(label, sketch, value bound)``: the sketch of every corpus
    category's generating limits on at most two objects, and the structure
    of its ``fam_f(C, 2)`` and ``close(C, "reg", max_iterations=1)``
    completions."""
    for name, C in cats.items():
        cones = map(fc.limit_in_category, vl.generating_diagrams(C))
        specs = tuple(c for c in cones if c is not None and c.diagram.shape.n_objects <= 2)
        yield f"{name} limits", lz.Sketch(C, specs), 2
        for flavor, E in (("lext", cp.fam_f(C, 2)), ("reg", cp.close(C, "reg", cp.Bounds(max_iterations=1)))):
            label = f"{name} {flavor}"
            yield label, cp.completion_structure(E, flavor), 1 if label in REFEREE_AT_BOUND_1 else 2


def _frozen(model):
    values, actions = model
    return values, tuple(tuple(sorted(a.items())) for a in actions)


def test_models_match_unpruned_referee(cats, monkeypatch):
    # the pruned enumeration lists exactly the models that unpruned
    # generate-and-filter (tests/oracles.py) finds: in the same order, and
    # with a seeded generator the same models once each, in a draw that a
    # second generator of the same seed repeats (an object map the sizes
    # reject draws no pools, so the two draws differ in order); every
    # candidate it builds is a model, and each prune removes candidates
    # somewhere: the sizes reject an object map, and the cuts a functor
    # whose sizes fit
    built, rejected = [0], [0]
    build, cardinalities = ps.set_functor_from_functor_data, lz._cardinalities

    def counted_build(fd, decode):
        built[0] += 1
        return build(fd, decode)

    def counted_cardinalities(sk):
        fits = cardinalities(sk)

        def counted(size):
            ok = fits(size)
            rejected[0] += not ok
            return ok

        return counted

    monkeypatch.setattr(ps, "set_functor_from_functor_data", counted_build)
    monkeypatch.setattr(lz, "_cardinalities", counted_cardinalities)
    with_models = by_sizes = by_cuts = 0
    for label, sk, bound in referee_cases(cats):
        FS, _ = fc.finset_category(bound)
        for seed in (None, 0):
            rng = None if seed is None else random.Random(seed)
            built[0] = rejected[0] = 0
            models = [(F.values, F.actions) for F in lz.models(sk, bound, rng)]
            assert built[0] == len(models), label
            rng = None if seed is None else random.Random(seed)
            referee = oracles.sketch_models_by_filter(sk, bound, rng)
            if seed is None:
                assert models == referee, label
            else:
                drawn = [_frozen(m) for m in models]
                assert len(set(drawn)) == len(drawn), label
                assert sorted(drawn) == sorted(map(_frozen, referee)), label
                again = [(F.values, F.actions) for F in lz.models(sk, bound, random.Random(seed))]
                assert again == models, label
        fitting = sum(1 for _ in fc.enumerate_functors(sk.host, FS, fits=cardinalities(sk)))
        with_models += bool(models)
        by_sizes += rejected[0] > 0
        by_cuts += fitting > len(models)
    assert with_models and by_sizes and by_cuts


def test_sketch_models_over_cap_raises(cats):
    # DISC2 with no specs has 9 models at value bound 2
    with pytest.raises(EnumerationTooLarge) as exc:
        lz.sketch_models(lz.Sketch(cats["DISC2"]), 2, cap=8)
    assert (exc.value.count, exc.value.cap) == (9, 8)
    assert len(lz.sketch_models(lz.Sketch(cats["DISC2"]), 2, cap=9)) == 9


def test_span_composition_revalidated(cats):
    # fractions() rebuilds the result as a finite category, which re-proves
    # associativity and unit laws of class composition; spot-check one table
    Z2 = cats["Z2"]
    frac = lz.fractions(lz.validate_congruence(Z2, range(2), "pullback"))
    frac.category.check()


def _fractions_record(frac) -> list:
    K = frac.category
    return [K.objects, K.morphisms, K.src, K.tgt, K.identity, K.table, frac.classes, frac.projection.morphism_map]


# sha256 of every fractions result below; unchanged since each call started
# to look up each pullback once
FRACTIONS_DIGEST = "35a23d69b28cc8f471e6d70865a496f922b758c62e6f07a6bb8b6c5baf198033"


def test_fractions_looks_up_each_pullback_once(cats, monkeypatch):
    # every pullback congruence of every corpus category: one fractions call
    # asks for the pullback of each cospan (f, t) at most once, and the
    # localized categories, classes and projections are pinned
    calls = collections.Counter()
    pullback_in_category = lz.pullback_in_category

    def counted(host, f, t):
        calls[f, t] += 1
        return pullback_in_category(host, f, t)

    record, congruences = {}, 0
    for name, C in cats.items():
        others = [m for m in range(C.n_morphisms) if m not in C.isos()]
        rows = []
        for r in range(len(others) + 1):
            for extra in itertools.combinations(others, r):
                try:
                    cong = lz.validate_congruence(C, C.isos() | set(extra), "pullback")
                except NotCongruence:
                    continue
                calls.clear()
                monkeypatch.setattr(lz, "pullback_in_category", counted)
                rows.append(_fractions_record(lz.fractions(cong)))
                monkeypatch.setattr(lz, "pullback_in_category", pullback_in_category)
                assert calls and max(calls.values()) == 1, (name, extra)
                congruences += 1
        record[name] = rows
    digest = hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()
    assert congruences == 12 and digest == FRACTIONS_DIGEST


from hypothesis import given, settings, strategies as st


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_congruence_validation_total_on_random_classes(cats, data):
    # any morphism class containing the isos is either rejected with a
    # witnessed axiom or yields a localization whose projection inverts it
    name = data.draw(st.sampled_from(["ARROW", "PAR", "Z2", "CHAIN3", "DISC2"]))
    C = cats[name]
    extra = data.draw(st.sets(st.integers(min_value=0, max_value=C.n_morphisms - 1), max_size=C.n_morphisms))
    members = set(C.isos()) | extra
    try:
        cong = lz.validate_congruence(C, members, "pullback")
    except NotCongruence as exc:
        assert exc.axiom in ("isomorphisms", "two-out-of-three", "pullback-stability")
        return
    frac = lz.fractions(cong)
    for s in cong.members:
        assert frac.projection.morphism_map[s] in frac.category.isos()
