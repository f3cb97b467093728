from __future__ import annotations

import collections
import gc
import itertools
import math
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from catengine import fincat as fc
from catengine import flatness as fl
from catengine import presheaf as ps
from catengine import virtlim as vl
from catengine.errors import FiberCapExceeded, ValidationError
from conftest import deadline, hom_functor
from test_fincat import dag_categories
import oracles


def test_yoneda_on_par(cats):
    PAR = cats["PAR"]
    YB = ps.yoneda(PAR, 1)
    assert [PAR.morphisms[m] for m in YB.at(0)] == ["u", "v"]
    assert [PAR.morphisms[m] for m in YB.at(1)] == ["1B"]


def test_yoneda_on_one_is_singleton(cats):
    Y = ps.yoneda(cats["ONE"], 0)
    assert Y.fiber_sizes() == (1,)


def test_yoneda_on_z2_swaps(cats):
    Z2 = cats["Z2"]
    Y = ps.yoneda(Z2, 0)
    assert len(Y.at(0)) == 2
    e, s = Y.at(0)
    assert Y.apply(1, e) != e and Y.apply(1, s) != s  # the involution acts freely


def test_yoneda_lemma_bijection(cats):
    # |Nat(Y(a), M)| = |M(a)|, with the bijection given by evaluation at the identity
    for name, C in cats.items():
        probes = [ps.terminal_presheaf(C), ps.yoneda(C, 0)]
        if C.n_objects > 1:
            probes.append(ps.coproduct(C, [ps.yoneda(C, 0), ps.yoneda(C, C.n_objects - 1)]).apex)
        for a in range(C.n_objects):
            Ya = ps.yoneda(C, a)
            for M in probes:
                nats = ps.hom_set(Ya, M)
                assert len(nats) == len(M.at(a)), (name, a, M.name)
                evaluated = {t.components[a][C.identity[a]] for t in nats}
                assert evaluated == set(M.at(a))


def test_representables_built_once_per_category(cats, monkeypatch):
    PAR = fc.validate_category(fc.category_to_json(cats["PAR"]))
    checks = []
    check_tables = ps._check_tables
    monkeypatch.setattr(ps, "_check_tables", lambda F, *args: checks.append(F.check) or check_tables(F, *args))
    YA, YB = ps.yoneda(PAR, 0), ps.yoneda(PAR, 1)
    assert checks == [True, True]  # the first build runs the full check
    assert ps.yoneda(PAR, 0) is YA and ps.yoneda(PAR, 1) is YB and len(checks) == 2
    # an equal but separately loaded category keeps representables of its own
    assert PAR == cats["PAR"] and ps.yoneda(cats["PAR"], 1) is not YB
    assert ps.yoneda(cats["PAR"], 1).values == YB.values
    # default endpoints are the representables themselves, so a diagram of
    # them built without explicit endpoints passes the law check's identity test
    ARROW, u = cats["ARROW"], PAR.morphism_index("u")
    t = ps.yoneda_map(PAR, u)
    assert t.source is YA and t.target is YB and ps.classifying_nat(YB, 0, u).source is YA
    edges = tuple(ps.yoneda_map(PAR, u if not ARROW.is_identity(m) else PAR.identity[ARROW.src[m]])
                  for m in range(ARROW.n_morphisms))
    assert ps.PresheafDiagram(ARROW, (YA, YB), edges).check


def test_representables_freed_with_their_category(cats):
    C = fc.validate_category(fc.category_to_json(cats["SPLIT"]))
    refs = [weakref.ref(C)] + [weakref.ref(ps.yoneda(C, a)) for a in range(C.n_objects)]
    del C
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_limit_empty_is_terminal(cats):
    PAR = cats["PAR"]
    T = ps.terminal_presheaf(PAR)
    assert T.fiber_sizes() == (1, 1)


def test_limit_product_example(cats):
    PAR = cats["PAR"]
    YA, YB = ps.yoneda(PAR, 0), ps.yoneda(PAR, 1)
    pr = ps.product(PAR, [YA, YB])
    assert pr.apex.fiber_sizes() == (2, 0)
    pairs = set(pr.apex.at(0))
    assert pairs == {(PAR.identity[0], 2), (PAR.identity[0], 3)}


def test_limit_equalizer_empty(cats):
    PAR = cats["PAR"]
    t, u = ps.yoneda_map(PAR, 2), ps.yoneda_map(PAR, 3)
    assert ps.equalizer(t, u).apex.fiber_sizes() == (0, 0)


def _limit_is_universal(cone):
    """Independent verifier: every representable-apex cone factors uniquely."""
    D = cone.diagram
    base = cone.apex.base
    edges_at = [
        (D.shape.src[s], D.shape.tgt[s], D.edges[s]) for s in range(D.shape.n_morphisms)
    ]
    competing = oracles.representable_cone_factorizations(
        D.vertices, edges_at, cone.apex, cone.legs, base
    )
    for (c, tup) in competing:
        # factorizations = elements z of the limit at c with legs(z) = tup
        hits = [
            z
            for z in cone.apex.values[c]
            if all(cone.legs[d].components[c][z] == tup[d] for d in range(len(D.vertices)))
        ]
        if len(hits) != 1:
            return False
    return True


def _colimit_is_pointwise_correct(cocone):
    """Independent verifier via naive closure, per object."""
    D = cocone.diagram
    base = cocone.apex.base
    for a in range(base.n_objects):
        items = [(d, x) for d in range(D.shape.n_objects) for x in D.vertices[d].values[a]]
        pairs = []
        for s in range(D.shape.n_morphisms):
            for x in D.vertices[D.shape.src[s]].values[a]:
                pairs.append(
                    ((D.shape.src[s], x), (D.shape.tgt[s], D.edges[s].components[a][x]))
                )
        classes = oracles.naive_quotient_classes(items, pairs)
        if len(classes) != len(cocone.apex.values[a]):
            return False
        # legs must be constant on classes and jointly cover the apex
        images = set()
        for cls in classes:
            imgs = {cocone.legs[d].components[a][x] for (d, x) in cls}
            if len(imgs) != 1:
                return False
            images |= imgs
        if images != set(cocone.apex.values[a]):
            return False
    return True


def test_limits_and_colimits_pass_universal_verifiers(cats):
    for name, C in cats.items():
        Ys = [ps.yoneda(C, a) for a in range(C.n_objects)]
        diagrams = [ps.discrete_diagram(C, []), ps.discrete_diagram(C, Ys[:2])]
        ts = ps.hom_set(Ys[0], Ys[-1])
        if len(ts) >= 2:
            diagrams.append(ps.parallel_pair_presheaf_diagram(ts[0], ts[1]))
        for D in diagrams:
            cone = ps.limit(D, base=C)
            assert _limit_is_universal(cone), (name, "limit")
            cocone = ps.colimit(D, base=C)
            assert _colimit_is_pointwise_correct(cocone), (name, "colimit")


def test_colimit_coproduct_and_coequalizer(cats):
    DISC2 = cats["DISC2"]
    cp = ps.coproduct(DISC2, [ps.yoneda(DISC2, 0), ps.yoneda(DISC2, 1)])
    assert cp.apex.fiber_sizes() == (1, 1)
    M = ps.constant_presheaf(cats["PAR"], ("a", "b"))
    ce = ps.coequalizer(ps.identity_nat(M), ps.identity_nat(M))
    assert ce.apex.fiber_sizes() == M.fiber_sizes()
    empty = ps.initial_presheaf(cats["PAR"])
    assert empty.fiber_sizes() == (0, 0)


def test_weighted_colimit_coyoneda(cats):
    # W = Y(a) gives back F(a)
    for name, C in cats.items():
        for a in range(C.n_objects):
            F = hom_functor(C, 0)
            q = ps.weighted_colimit(ps.yoneda(C, a), F)
            assert len(q) == len(F.at(a)), (name, a)


def test_weighted_colimit_components(cats):
    DISC2 = cats["DISC2"]
    q = ps.weighted_colimit(ps.terminal_presheaf(DISC2), ps.constant_set_functor(DISC2))
    assert len(q) == 2


def test_weighted_colimit_of_coproduct_weight(cats):
    PAR = cats["PAR"]
    YA = ps.yoneda(PAR, 0)
    W = ps.coproduct(PAR, [YA, YA]).apex
    q = ps.weighted_colimit(W, hom_functor(PAR, 0))
    assert len(q) == 2


def test_weighted_colimit_agrees_with_naive_closure(cats):
    for name, C in cats.items():
        weights = [ps.terminal_presheaf(C), ps.yoneda(C, 0)]
        if C.n_objects > 1:
            weights.append(ps.product(C, [ps.yoneda(C, 0), ps.yoneda(C, 1)]).apex)
        functors = [ps.constant_set_functor(C), hom_functor(C, 0)]
        for W in weights:
            for F in functors:
                assert len(ps.weighted_colimit(W, F)) == len(oracles.coend_classes(W, F)), (
                    name, W.name, F.name,
                )


def test_epi_mono_factorization(cats):
    PAR = cats["PAR"]
    YA = ps.yoneda(PAR, 0)
    one = ps.terminal_presheaf(PAR)
    bang = ps.hom_set(YA, one)[0]
    q, m = ps.epi_mono_factorize(bang)
    assert q.is_pointwise_surjective() and m.is_pointwise_injective()
    assert q.target.fiber_sizes() == (1, 0)
    assert ps.compose_nats(m, q).key() == bang.key()
    # identity factors as (identity, identity)
    q2, m2 = ps.epi_mono_factorize(ps.identity_nat(YA))
    assert q2.is_pointwise_bijective() and m2.is_pointwise_bijective()


def test_epi_mono_fold_map(cats):
    DISC2 = cats["DISC2"]
    YA = ps.yoneda(DISC2, 0)
    cp = ps.coproduct(DISC2, [YA, YA])
    fold_comps = tuple(
        {(i, x): x for (i, x) in cp.apex.values[a]} for a in range(2)
    )
    fold = ps.NatTransformation(cp.apex, YA, fold_comps)
    q, m = ps.epi_mono_factorize(fold)
    assert q.is_pointwise_surjective()
    assert m.source.fiber_sizes() == YA.fiber_sizes()
    assert m.is_pointwise_bijective()


def test_factorizations_linked_by_unique_iso(cats):
    # any two image factorizations of the same map differ by a unique iso
    PAR = cats["PAR"]
    YB = ps.yoneda(PAR, 1)
    one = ps.terminal_presheaf(PAR)
    t = ps.hom_set(YB, one)[0]
    q, m = ps.epi_mono_factorize(t)
    isos = [
        u for u in ps.hom_set(q.target, q.target)
        if u.is_pointwise_bijective()
        and ps.compose_nats(m, u).key() == m.key()
        and ps.compose_nats(u, q).key() == q.key()
    ]
    assert len(isos) == 1


def test_find_iso_examples(cats):
    Z2 = cats["Z2"]
    reg = ps.yoneda(Z2, 0)
    triv = ps.constant_presheaf(Z2, ("0", "1"))
    assert ps.find_iso(reg, triv) is None
    assert ps.find_iso(reg, reg) is not None
    prod = ps.product(Z2, [reg, reg]).apex
    cop = ps.coproduct(Z2, [reg, reg]).apex
    assert ps.find_iso(prod, cop) is not None


def test_find_iso_complete_on_small_fibers(cats):
    # agreement with exhaustive search over all pointwise bijections
    for name, C in cats.items():
        pool = [
            ps.yoneda(C, 0),
            ps.terminal_presheaf(C),
            ps.constant_presheaf(C, ("0", "1")),
        ]
        if C.n_objects > 1:
            pool.append(ps.coproduct(C, [ps.yoneda(C, 0), ps.yoneda(C, 1)]).apex)
        for M, N in itertools.product(pool, repeat=2):
            fast = ps.find_iso(M, N) is not None
            slow = oracles.all_pointwise_bijections_natural(M, N)
            assert fast == slow, (name, M.name, N.name)


def test_find_iso_tells_fixed_points_from_cycles(cats):
    # eight free Z2-sets, and seven beside two fixed points: refinement from
    # the object alone gives every element one colour, and the search then
    # tries the bijections of the free parts for minutes
    Z2 = cats["Z2"]
    Y, one = ps.yoneda(Z2, 0), ps.terminal_presheaf(Z2)
    M, N = ps.coproduct(Z2, [Y] * 8).apex, ps.coproduct(Z2, [Y] * 7 + [one, one]).apex
    with deadline(1, "find_iso(8Y, 7Y + 1 + 1)"):
        assert ps.find_iso(M, N) is None and ps.find_iso(N, M) is None


def test_find_iso_is_the_first_bijection_of_the_hom_set(cats):
    # colours prune only branches that hold no isomorphism, so the search
    # finds the first pointwise bijection of the hom-set, or none
    drawn = collections.Counter()

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def check(data):
        C = cats[data.draw(st.sampled_from(["Z2", "PAR", "ARROW"]))]
        units = [ps.yoneda(C, a) for a in range(C.n_objects)]
        units += [ps.terminal_presheaf(C), ps.constant_presheaf(C, ("0", "1"))]
        pool = units + [ps.coproduct(C, [U, V]).apex for U, V in itertools.combinations_with_replacement(units, 2)]
        pool = [M for M in pool if M.total_size() <= 6]
        M = data.draw(st.sampled_from(pool))
        # an isomorphic copy of M, its fibers listed in a drawn order
        copy = ps.Presheaf(C, tuple(tuple(data.draw(st.permutations(fiber))) for fiber in M.values), M.actions)
        N = data.draw(st.sampled_from([copy] + pool))
        first = next((t for t in ps.hom_set(M, N) if t.is_pointwise_bijective()), None)
        got = ps.find_iso(M, N)
        assert (got is None) == (first is None)
        assert got is None or got.components == first.components
        drawn[got is not None] += 1

    check()
    assert drawn[True] and drawn[False], drawn


def test_hom_set_counts(cats):
    PAR = cats["PAR"]
    YA, YB = ps.yoneda(PAR, 0), ps.yoneda(PAR, 1)
    assert len(ps.hom_set(YA, YB)) == 2
    assert len(ps.hom_set(ps.terminal_presheaf(PAR), ps.initial_presheaf(PAR))) == 0


def test_quotient_determinism(cats):
    PAR = cats["PAR"]
    YB = ps.yoneda(PAR, 1)
    W = ps.coproduct(PAR, [YB, YB]).apex
    pairs = [(0, (0, 2), (1, 3))]
    Q1, q1 = ps.quotient_presheaf(W, pairs)
    Q2, q2 = ps.quotient_presheaf(W, pairs)
    assert Q1.values == Q2.values and q1.key() == q2.key()


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_quotient_respects_actions(cats, data):
    # quotients of a random pair set remain presheaves (validated on build)
    C = cats[data.draw(st.sampled_from(["PAR", "Z2", "CHAIN3", "SPLIT"]))]
    M = ps.coproduct(C, [ps.yoneda(C, a) for a in range(C.n_objects)]).apex
    elems = [(a, x) for a in range(C.n_objects) for x in M.values[a]]
    k = data.draw(st.integers(min_value=0, max_value=min(3, len(elems) - 1)))
    pairs = []
    for _ in range(k):
        a, x = data.draw(st.sampled_from(elems))
        others = [e for e in elems if e[0] == a]
        _, y = data.draw(st.sampled_from(others))
        pairs.append((a, x, y))
    Q, q = ps.quotient_presheaf(M, pairs)  # constructor re-validates
    assert q.is_pointwise_surjective()
    for (a, x, y) in pairs:
        assert q.components[a][x] == q.components[a][y]


def test_weighted_colimit_is_colimit_over_weight_elements(cats):
    # the coend must biject with the colimit of F over the category of
    # elements of the weight, computed here by naive closure
    from catengine import virtlim as vl

    for name in ("PAR", "Z2", "DISC2", "SPLIT"):
        C = cats[name]
        weights = [
            ps.terminal_presheaf(C),
            ps.yoneda(C, 0),
            ps.product(C, [ps.yoneda(C, 0), ps.yoneda(C, C.n_objects - 1)]).apex,
        ]
        for W in weights:
            F = hom_functor(C, 0)
            elems = [(c, w) for c in range(C.n_objects) for w in W.values[c]]
            items = [(e, x) for e in elems for x in F.values[e[0]]]
            pairs = []
            for (c, w) in elems:
                for (c2, w2) in elems:
                    for f in C.hom(c, c2):
                        if W.actions[f][w2] == w:
                            for x in F.values[c]:
                                pairs.append((((c, w), x), ((c2, w2), F.actions[f][x])))
            classes = oracles.naive_quotient_classes(items, pairs)
            assert len(classes) == len(ps.weighted_colimit(W, F)), (name, W.name)


def _small_presheaves(C):
    """The representables, the terminal presheaf and the doubles of the
    first and the last representable, whose fold maps are epis that are not
    monic."""
    pool = [ps.yoneda(C, a) for a in range(C.n_objects)]
    pool.append(ps.terminal_presheaf(C))
    pool += [ps.coproduct(C, [pool[a], pool[a]]).apex for a in sorted({0, C.n_objects - 1})]
    return pool


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_epi_mono_factorization_laws(cats, data):
    name = data.draw(st.sampled_from(["PAR", "Z2", "DISC2", "SPLIT", "CHAIN3"]))
    C = cats[name]
    pool = _small_presheaves(C)
    M = data.draw(st.sampled_from(pool))
    N = data.draw(st.sampled_from(pool))
    ts = ps.hom_set(M, N)
    if not ts:
        return
    t = ts[data.draw(st.integers(min_value=0, max_value=len(ts) - 1))]
    q, m = ps.epi_mono_factorize(t)
    assert q.is_pointwise_surjective()
    assert m.is_pointwise_injective()
    assert ps.compose_nats(m, q).key() == t.key()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_pullback_of_an_epi_is_an_epi(cats, data):
    # pullbacks are taken pointwise, and in finite sets a pullback of a
    # surjection is a surjection
    C = cats[data.draw(st.sampled_from(["PAR", "Z2", "DISC2", "SPLIT", "CHAIN3", "ARROW"]))]
    pool = _small_presheaves(C)
    epis = [t for M in pool for N in pool for t in ps.hom_set(M, N) if t.is_pointwise_surjective()]
    assert any(not t.is_pointwise_injective() for t in epis)  # the fold maps, at least
    e = data.draw(st.sampled_from(epis))
    maps = [g for L in pool for g in ps.hom_set(L, e.target)]
    g = data.draw(st.sampled_from(maps))
    pb = ps.pullback(e, g)
    assert pb.legs[0].target is e.source and pb.legs[2].target is g.source
    assert ps.compose_nats(e, pb.legs[0]).key() == ps.compose_nats(g, pb.legs[2]).key()
    assert pb.apex.total_size() > 0
    assert pb.legs[2].is_pointwise_surjective()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_equivalence_relation_is_its_quotients_kernel_pair(cats, data):
    # the kernel pair of a map that is not monic is an equivalence relation
    # other than equality, and the pointwise quotient by it has it as the
    # kernel pair of the quotient map
    C = cats[data.draw(st.sampled_from(["PAR", "Z2", "DISC2", "SPLIT", "CHAIN3", "ARROW"]))]
    pool = _small_presheaves(C)
    maps = [t for M in pool for N in pool for t in ps.hom_set(M, N) if not t.is_pointwise_injective()]
    assert maps  # the fold map, at least
    t = data.draw(st.sampled_from(maps))
    kp = ps.pullback(t, t)
    r1, r2 = kp.legs[0], kp.legs[2]
    graph = [{(r1.components[a][x], r2.components[a][x]) for x in kp.apex.values[a]} for a in range(C.n_objects)]
    assert any(x != y for rel in graph for x, y in rel)
    M = t.source
    pairs = data.draw(st.permutations([(a, x, y) for a in range(C.n_objects) for x, y in graph[a]]))
    Q, q = ps.quotient_presheaf(M, pairs)
    assert q.source is M and q.target is Q and q.is_pointwise_surjective()
    kq = ps.pullback(q, q)
    assert [{(x, z) for x, _, z in kq.apex.values[a]} for a in range(C.n_objects)] == graph


def test_coproduct_injections_are_disjoint(cats):
    # coproducts are taken pointwise, so their injections are monic with
    # disjoint images that cover the coproduct at every object
    both_inhabited = []

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def check(data):
        C = cats[data.draw(st.sampled_from(["PAR", "Z2", "DISC2", "SPLIT", "CHAIN3", "ARROW"]))]
        pool = _small_presheaves(C)
        M, N = data.draw(st.sampled_from(pool)), data.draw(st.sampled_from(pool))
        cp = ps.coproduct(C, [M, N])
        assert all(leg.source is V and leg.target is cp.apex for leg, V in zip(cp.legs, (M, N), strict=True))
        for a in range(C.n_objects):
            images = [set(leg.components[a].values()) for leg in cp.legs]
            assert [len(im) for im in images] == [len(M.values[a]), len(N.values[a])]
            assert not images[0] & images[1]
            assert images[0] | images[1] == set(cp.apex.values[a])
        both_inhabited.append(any(M.values[a] and N.values[a] for a in range(C.n_objects)))

    check()
    assert any(both_inhabited)


# -- one validator for both variances -----------------------------------------

ID2, SWAP, CONST0, CONST1 = {0: 0, 1: 1}, {0: 1, 1: 0}, {0: 0, 1: 0}, {0: 1, 1: 1}
CHAIN3_WITH = lambda f02: (ID2, ID2, ID2, SWAP, CONST0, f02)  # i0, i1, i2, f01, f12, f02
# u: A -> B between fibers ("a",) and ("b1", "b2"), in each direction
ARROW_FIBERS = (("a",), ("b1", "b2"))
ARROW_COVARIANT = ({"a": "a"}, {"b1": "b1", "b2": "b2"}, {"a": "b1"})
ARROW_CONTRAVARIANT = ({"a": "a"}, {"b1": "b1", "b2": "b2"}, {"b1": "a", "b2": "a"})

# case -> class -> (category, values, actions, keyword arguments, error, message);
# the messages are the ones the separate validators gave before they merged
TABLE_FAILURES = {
    "sized wrong": {
        cls: ("ARROW", (("a",),), ({"a": "a"}, {}, {}), {}, ValidationError, f"{kind} tables sized wrong")
        for cls, kind in (("Presheaf", "presheaf"), ("SetFunctor", "functor"))
    },
    "duplicate element": {
        cls: ("ONE", ((0, 0),), ({0: 0},), {}, ValidationError, f"duplicate elements in a value set in {where}")
        for cls, where in (("Presheaf", "presheaf M"), ("SetFunctor", "functor F"))
    },
    "over the default cap": {
        cls: ("ONE", (tuple(range(65)),), ({i: i for i in range(65)},), {}, FiberCapExceeded,
              f"value set of size 65 exceeds cap 64 in {where}")
        for cls, where in (("Presheaf", "presheaf M"), ("SetFunctor", "functor F"))
    },
    "action of the wrong variance": {
        "Presheaf": ("ARROW", ARROW_FIBERS, ARROW_COVARIANT, {}, ValidationError,
                     "action of u is not a map of the right fibers"),
        "SetFunctor": ("ARROW", ARROW_FIBERS, ARROW_CONTRAVARIANT, {}, ValidationError,
                       "action of u is not a map of the right fibers"),
    },
    "action leaves its fiber": {
        cls: ("ARROW", ARROW_FIBERS, ({"a": "a"}, {"b1": "b1", "b2": "b2"}, act), {}, ValidationError,
              "action of u is not a map of the right fibers")
        for cls, act in (("Presheaf", {"b1": "a", "b2": "z"}), ("SetFunctor", {"a": "z"}))
    },
    "identity not the identity": {
        cls: ("ONE", ((0, 1),), (SWAP,), {}, ValidationError, "identity action at * is not the identity")
        for cls in ("Presheaf", "SetFunctor")
    },
    "s∘s is not e": {
        cls: ("Z2", ((0, 1),), (ID2, CONST0), {}, ValidationError, f"{variance} functoriality fails at (s, s)")
        for cls, variance in (("Presheaf", "contravariant"), ("SetFunctor", "covariant"))
    },
    "f02 composed the other way": {
        "Presheaf": ("CHAIN3", ((0, 1),) * 3, CHAIN3_WITH(CONST0), {}, ValidationError,
                     "contravariant functoriality fails at (f12, f01)"),
        "SetFunctor": ("CHAIN3", ((0, 1),) * 3, CHAIN3_WITH(CONST1), {}, ValidationError,
                       "covariant functoriality fails at (f12, f01)"),
    },
}


@pytest.mark.parametrize("cls", ["Presheaf", "SetFunctor"])
@pytest.mark.parametrize("case", list(TABLE_FAILURES))
def test_table_validation_messages(cats, case, cls):
    name, values, actions, kwargs, error, message = TABLE_FAILURES[case][cls]
    with pytest.raises(error) as info:
        getattr(ps, cls)(cats[name], values, actions, **kwargs)
    assert str(info.value) == message
    assert type(info.value) is error


def test_composites_follow_the_variance(cats):
    # f02 = f12∘f01 acts as f12 after f01 on a functor and as f01 after f12
    # on a presheaf; with f01 a swap and f12 constant the two differ, so each
    # table is accepted in one variance only (the other is a TABLE_FAILURES case)
    ps.SetFunctor(cats["CHAIN3"], ((0, 1),) * 3, CHAIN3_WITH(CONST0))
    ps.Presheaf(cats["CHAIN3"], ((0, 1),) * 3, CHAIN3_WITH(CONST1))
    F = ps.SetFunctor(cats["ARROW"], ARROW_FIBERS, ARROW_COVARIANT)
    M = ps.Presheaf(cats["ARROW"], ARROW_FIBERS, ARROW_CONTRAVARIANT)
    assert F.fiber_sizes() == M.fiber_sizes() == (1, 2) and F.total_size() == M.total_size() == 3


# -- one law check for functors into presheaves ---------------------------------


def _sets(base, k=2):
    return ps.constant_presheaf(base, tuple(range(k)))


def _nat(M, N, comp, check=True):
    return ps.NatTransformation(M, N, (comp,), check=check)


def _functor_into_sets(kind, C, objects, morphisms, target_base=None):
    if kind == "diagram":
        return ps.PresheafDiagram(C, tuple(objects), tuple(morphisms))
    return fl.ConcreteFunctor(C, target_base or objects[0].base, tuple(objects), tuple(morphisms))


def _law_cases(cats):
    ONE, ARROW, CHAIN3, Z2 = (cats[n] for n in ("ONE", "ARROW", "CHAIN3", "Z2"))
    A, B, Bz = _sets(ONE), _sets(ONE), _sets(Z2)
    X = [_sets(ONE) for _ in range(3)]
    chain = lambda f02: [ps.identity_nat(M) for M in X] + [
        _nat(X[0], X[1], SWAP), _nat(X[1], X[2], SWAP), _nat(X[0], X[2], f02)]
    arrow = lambda idA, u: [idA, ps.identity_nat(B), u]
    return {
        "sized wrong": (ARROW, [A], [ps.identity_nat(A)], "{kind} tables sized wrong"),
        "different bases": (ARROW, [A, Bz], [ps.identity_nat(A), ps.identity_nat(Bz), _nat(A, Bz, ID2, check=False)],
                            "{kind} values live over different bases"),
        "bad endpoints": (ARROW, [A, B], arrow(ps.identity_nat(A), _nat(B, A, ID2)), "image of u has bad endpoints"),
        "identity": (ARROW, [A, B], arrow(_nat(A, A, SWAP), _nat(A, B, ID2)),
                     "image of the identity at A is not the identity"),
        "composition": (CHAIN3, X, chain(SWAP), "{kind} breaks composition at (f12, f01)"),
    }


@pytest.mark.parametrize("kind", ["diagram", "functor"])
@pytest.mark.parametrize("case", ["sized wrong", "different bases", "bad endpoints", "identity", "composition"])
def test_functor_law_messages(cats, case, kind):
    # ConcreteFunctor's messages, which name the morphism, are unchanged;
    # PresheafDiagram's took them over, and "different bases" is new to
    # ConcreteFunctor
    C, objects, morphisms, message = _law_cases(cats)[case]
    with pytest.raises(ValidationError) as info:
        _functor_into_sets(kind, C, objects, morphisms)
    assert str(info.value) == message.format(kind=kind)


@pytest.mark.parametrize("kind", ["diagram", "functor"])
def test_functor_laws_accept_a_functor(cats, kind):
    C, X, _, _ = _law_cases(cats)["composition"]
    morphisms = [ps.identity_nat(M) for M in X] + [
        _nat(X[0], X[1], SWAP), _nat(X[1], X[2], SWAP), _nat(X[0], X[2], ID2)]
    F = _functor_into_sets(kind, C, X, morphisms)
    if kind == "diagram":
        assert F.check
    else:  # a concrete functor is always checked
        assert (F.objects, F.morphisms) == (tuple(X), tuple(morphisms))


def test_concrete_functor_values_must_live_over_the_target_base(cats):
    ONE, ARROW, PAR = cats["ONE"], cats["ARROW"], cats["PAR"]
    A, B = _sets(ONE), _sets(ONE)
    morphisms = [ps.identity_nat(A), ps.identity_nat(B), _nat(A, B, ID2)]
    assert fl.ConcreteFunctor(ARROW, ONE, (A, B), tuple(morphisms)).target_base is ONE
    with pytest.raises(ValidationError, match="^functor values live over ONE, not PAR$"):
        fl.ConcreteFunctor(ARROW, PAR, (A, B), tuple(morphisms))


# -- the finite-set kernels against independent oracles -----------------------


def _assert_quotient(items, reps, class_of, classes):
    """``reps``/``class_of`` partition ``items`` as ``classes`` do, each
    class represented by its first member in list order."""
    position = {it: i for i, it in enumerate(items)}
    assert list(class_of) == list(items)
    assert {frozenset(c) for c in classes} == {
        frozenset(it for it in items if class_of[it] == rep) for rep in reps
    }
    assert list(reps) == sorted((min(c, key=position.get) for c in classes), key=position.get)
    assert all(class_of[it] == min(c, key=position.get) for c in classes for it in c)


def _check_kernels(C, F, seen):
    """Every kernel on every generating diagram of ``C`` under ``F``."""
    for diagram in vl.generating_diagrams(C):
        S = diagram.shape
        fibers = [F.values[diagram.vertex(d)] for d in range(S.n_objects)]
        maps = [F.actions[diagram.body.morphism_map[s]] for s in range(S.n_morphisms)]
        lim = ps.limit_of_sets(S, fibers, maps)
        assert lim == oracles.finset_limit(diagram, F)
        seen["limit empty" if not lim else "limit inhabited"] += 1
        items = [(d, x) for d in range(S.n_objects) for x in fibers[d]]
        pairs = [((S.src[s], x), (S.tgt[s], maps[s][x])) for s in range(S.n_morphisms) for x in fibers[S.src[s]]]
        reps, class_of = ps.colimit_of_sets(S, fibers, maps)
        _assert_quotient(items, reps, class_of, oracles.connected_components(items, pairs))
        seen["colimit merges"] += len(reps) < len(items)
        W = vl.virtual_limit(C, diagram).weight
        reps, class_of = ps.coend(W, F.values, F.actions)
        items = [(c, w, x) for c in range(C.n_objects) for w in W.values[c] for x in F.values[c]]
        _assert_quotient(items, reps, class_of, oracles.coend_classes(W, F))
        seen["coend merges"] += len(reps) < len(items)


def test_kernels_match_oracles_on_corpus_functors(cats):
    seen = collections.Counter()
    for C in cats.values():
        for F in ps.enumerate_set_functors(C, 2):
            _check_kernels(C, F, seen)
    assert min(seen[k] for k in ("limit empty", "limit inhabited", "colimit merges", "coend merges")) > 0, seen


def test_kernels_match_oracles_on_random_dags():
    seen = collections.Counter()

    @settings(max_examples=40, deadline=None)
    @given(dag_categories(), st.data())
    def check(C, data):
        functors = list(itertools.islice(ps.enumerate_set_functors(C, 2), 40))
        _check_kernels(C, functors[data.draw(st.integers(0, len(functors) - 1))], seen)

    check()
    assert min(seen[k] for k in ("limit empty", "limit inhabited", "colimit merges", "coend merges")) > 0, seen


def test_product_over_different_bases_is_rejected(cats):
    mixed = [ps.yoneda(cats["ARROW"], 0), ps.yoneda(cats["PAR"], 0)]
    for build in (ps.product, ps.coproduct):
        with pytest.raises(ValidationError) as err:
            build(cats["ARROW"], mixed)
        assert str(err.value) == "diagram values live over different bases"


def test_compose_nats_needs_the_same_presheaf_between(cats):
    # two presheaves on PAR with equal fibers whose actions of v differ: the
    # identity components do not compose to a natural transformation
    PAR = cats["PAR"]
    values = ((0, 1), (0,))
    P = ps.Presheaf(PAR, values, ({0: 0, 1: 1}, {0: 0}, {0: 0}, {0: 0}), name="P")
    Q = ps.Presheaf(PAR, values, ({0: 0, 1: 1}, {0: 0}, {0: 0}, {0: 1}), name="Q")
    with pytest.raises(ValidationError, match="not composable"):
        ps.compose_nats(ps.identity_nat(Q), ps.identity_nat(P))
    twin = ps.Presheaf(PAR, values, P.actions, name="P'")
    assert ps.compose_nats(ps.identity_nat(twin), ps.identity_nat(P)).key() == ps.identity_nat(P).key()


def _representables_and_products(C):
    reps = [ps.yoneda(C, a) for a in range(C.n_objects)]
    pairs = itertools.combinations_with_replacement(reps, 2)
    return reps + [ps.product(C, [M, N]).apex for M, N in pairs]


def test_hom_set_order_matches_brute_force(cats):
    # hom_set lists transformations in the order of itertools.product over
    # the images of M's elements, (object, element) order, N.values order
    sizes = collections.Counter()
    for name, C in cats.items():
        pool = _representables_and_products(C)
        for M, N in itertools.product(pool, repeat=2):
            if math.prod(len(N.values[a]) ** len(M.values[a]) for a in range(C.n_objects)) > 10 ** 4:
                continue
            brute = [ps.NatTransformation(M, N, comps) for comps in oracles.nat_transformations_in_order(M, N)]
            got = ps.hom_set(M, N)
            want = [t.key() for t in brute]
            assert [t.key() for t in got] == want, (name, M.name, N.name)
            # the law check and the ultraproduct search compare components:
            # equal exactly when the keys are
            assert all((s.components == t.components) == (s.key() == t.key()) for s in got for t in brute)
            # the key reads each component in fiber order, not in the order
            # its dict was filled
            for t in got:
                rev = ps.NatTransformation(M, N, tuple(dict(reversed(c.items())) for c in t.components))
                assert rev.key() == t.key()
                sizes["reordered"] += any(len(c) > 1 for c in t.components)
            sizes[min(len(want), 2)] += 1
    assert sizes[0] > 0 and sizes[2] > 0 and sizes["reordered"] > 0, sizes
    # an iso composed with its inverse fills its dicts in the inverse's order
    Y = ps.yoneda(cats["Z2"], 0)
    ident = ps.identity_nat(Y)
    swap = next(t for t in ps.hom_set(Y, Y) if t.components != ident.components)
    back = ps.compose_nats(swap, swap.inverse())
    assert [list(c) for c in back.components] != [list(c) for c in ident.components]
    assert back.components == ident.components and back.key() == ident.key()
