from __future__ import annotations

import collections
import gc
import hashlib
import itertools
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from catengine import fincat as fc
from catengine import presheaf as ps
from catengine import flatness as fl
from catengine import virtlim as vl
from catengine import completions as cp
from catengine import localize as lz
from catengine import cli
from catengine.errors import NotWeaklyLex, ValidationError
from conftest import hom_functor
import oracles


BOUNDS = cp.Bounds(max_objects=12, max_iterations=3)


@pytest.fixture(scope="module")
def fams(cats):
    return {name: cp.fam_f(C, 4, cp.Bounds(max_objects=80)) for name, C in cats.items()}


def fam_scope(E, size=2):
    return [
        i
        for i, p in enumerate(E.provenance)
        if p.detail == "(empty)" or len(p.detail.split(",")) <= size
    ]


def test_close_one_lext_is_finite_sets(cats):
    E = cp.close(cats["ONE"], "lext", cp.Bounds(max_objects=5, max_fiber=3, max_iterations=3))
    sizes = sorted(M.total_size() for M in E.objects)
    assert sizes[:4] == [0, 1, 2, 3]


def test_close_reg_matches_direct_on_weakly_lex(cats, weakly_lex_names):
    for name in weakly_lex_names:
        C = cats[name]
        E1 = cp.close(C, "reg", BOUNDS)
        E2 = cp.direct_regular(C, BOUNDS)
        assert E1.saturated
        for M in E2.objects:
            assert E1.find_object(M) is not None, (name, M.name)
        for M in E1.objects:
            assert E2.find_object(M) is not None, (name, M.name)


def test_direct_regular_requires_weak_limits(cats):
    with pytest.raises(NotWeaklyLex) as exc:
        cp.direct_regular(cats["PAR"])
    assert "u,v" in exc.value.witness


def test_direct_regular_arrow_collapses_to_representables(cats):
    E = cp.direct_regular(cats["ARROW"])
    assert len(E.objects) == 2


def test_direct_pretopos_succeeds_everywhere(cats):
    for name, C in cats.items():
        E = cp.direct_pretopos(C, cp.Bounds(max_objects=40, max_arity=2))
        assert len(E.objects) >= C.n_objects, name
        assert E.find_object(ps.initial_presheaf(C)) is not None, name


def test_direct_pretopos_par_contains_empty_presheaf(cats):
    E = cp.direct_pretopos(cats["PAR"], cp.Bounds(max_arity=2))
    assert E.find_object(ps.initial_presheaf(cats["PAR"])) is not None


def test_direct_pretopos_contained_in_closure(cats):
    C = cats["DISC2"]
    direct = cp.direct_pretopos(C, cp.Bounds(max_arity=2))
    closed = cp.close(C, "pret", cp.Bounds(max_objects=16, max_iterations=3, max_fiber=8))
    for M in direct.objects:
        if max(M.fiber_sizes(), default=0) <= 4:
            assert closed.find_object(M) is not None, M.name


def test_disc2_coproduct_of_representables_is_terminal(cats):
    # over a discrete base the two-point family and the constant singleton agree
    DISC2 = cats["DISC2"]
    E = cp.direct_pretopos(DISC2, cp.Bounds(max_arity=2))
    cop = ps.coproduct(DISC2, [ps.yoneda(DISC2, 0), ps.yoneda(DISC2, 1)]).apex
    t = ps.terminal_presheaf(DISC2)
    assert ps.find_iso(cop, t) is not None
    assert E.find_object(t) is not None


def test_fam_f_examples(cats, fams):
    assert sorted(M.total_size() for M in cp.fam_f(cats["ONE"], 3).objects) == [0, 1, 2, 3]
    assert len(oracles.family_homs(cats["DISC2"], (0,), (0, 1))) == 1
    assert len(oracles.family_homs(cats["PAR"], (0,), (1, 1))) == 4
    # family-form morphisms biject with natural transformations of realizations
    for name in ("DISC2", "PAR", "ARROW"):
        C = cats[name]
        fam1, fam2 = (0,), (0, C.n_objects - 1)
        r1 = ps.coproduct(C, [ps.yoneda(C, a) for a in fam1]).apex
        r2 = ps.coproduct(C, [ps.yoneda(C, a) for a in fam2]).apex
        assert len(oracles.family_homs(C, fam1, fam2)) == len(ps.hom_set(r1, r2)), name


def test_lextensive_battery_iff_multifinite(cats, fams):
    for name, C in cats.items():
        E = fams[name]
        rep = cp.verify_axioms(E, scope=fam_scope(E), flavor="lext")
        assert rep.passed == vl.classify_completeness(C, "multifinite").passed, name


def test_fam_par_fails_at_terminal(cats, fams):
    rep = cp.verify_axioms(fams["PAR"], scope=fam_scope(fams["PAR"]), flavor="lext")
    assert not rep.passed
    assert rep.checks["limits"]["witness"] == "terminal"


def test_fam_disc2_passes_lextensive(cats, fams):
    rep = cp.verify_axioms(fams["DISC2"], scope=fam_scope(fams["DISC2"]), flavor="lext")
    assert rep.passed


def _certified(E, scope) -> bool:
    """Does ``E`` hold every union of components of every scoped object?"""
    return all(E.find_object(U) is not None for x in scope for U in cp._component_unions(E.objects[x]))


def test_coproducts_universal_matches_listing(cats):
    # the check decided by connected components gives the full listing's
    # verdict and witness on every corpus fam_f battery at the scope that
    # verify-axioms gives it, and on the bounded lext and pret closures;
    # both verdicts are seen, and a certificate that fails always fails with
    # a witness here
    seen = collections.Counter()
    for name, C in cats.items():
        builds = [(cp.fam_f(C, 4), "fam_f")] + [(cp.close(C, flavor, BOUNDS), flavor) for flavor in ("lext", "pret")]
        for E, flavor in builds:
            scope = fam_scope(E) if flavor == "fam_f" else range(len(E.objects))
            got = cp.verify_axioms(E, scope=scope, flavor="lext").checks["coproducts_universal"]
            want = oracles.injection_pullbacks_witness(E, scope)
            assert got == {"passed": want is None, "witness": want}, (name, flavor)
            seen[got["passed"], _certified(E, scope)] += 1
    assert seen.keys() == {(True, True), (False, False)}, seen
    # ONE lext: a set of 12 points is an object, and a set of 11 is not
    E = cp.close(cats["ONE"], "lext", BOUNDS)
    X = next(M for M in E.objects if len(ps.components(M)) == 12)
    assert E.find_object(ps.subpresheaf(X, [X.values[0][:11]])[0]) is None


def test_component_unions_are_the_unions_up_to_iso(cats):
    # one union per multiset of iso classes of components: every subset of
    # the components is isomorphic to exactly one listed union
    C = cats["DISC2"]
    Y0, Y1 = ps.yoneda(C, 0), ps.yoneda(C, 1)
    X = ps.coproduct(C, [Y0, Y1, Y0, Y0]).apex
    comps = ps.components(X)
    assert len(comps) == 4
    unions = list(cp._component_unions(X))
    assert sorted(U.fiber_sizes() for U in unions) == [(a, b) for a in range(4) for b in range(2)]
    for chosen in itertools.product((0, 1), repeat=4):
        keep = [[u for c, k in zip(comps, chosen) if k for u in c[a]] for a in range(C.n_objects)]
        S = ps.subpresheaf(X, keep)[0]
        assert sum(ps.find_iso(S, U) is not None for U in unions) == 1


def test_relations_that_do_not_fit_are_not_equivalences(cats):
    # a jointly monic, reflexive pair R => M embeds R(a) in M(a) x M(a) and
    # covers its diagonal, so _quotients searches no congruence of M for an
    # R whose fiber sizes do not fit
    drawn = collections.Counter()

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def check(data):
        C = cats[data.draw(st.sampled_from(["PAR", "Z2", "DISC2", "SPLIT", "CHAIN3", "ARROW"]))]
        reps = [ps.yoneda(C, a) for a in range(C.n_objects)]
        pool = reps + [ps.terminal_presheaf(C)] + [ps.coproduct(C, [Y, Y]).apex for Y in reps]
        M = data.draw(st.sampled_from(pool))
        # squares of representables only: the search for the first map
        # (Y+Y)^2 => Y+Y on PAR takes 7 s, and all of them far longer
        squares = [ps.product(C, [M, M]).apex] if M in reps else []
        R = data.draw(st.sampled_from([M] + squares + pool))
        ts = ps.hom_set(R, M)
        if not ts:
            return
        r1, r2 = (ts[data.draw(st.integers(0, len(ts) - 1))] for _ in range(2))
        pairs = [(a, r1.components[a][x], r2.components[a][x]) for a in range(C.n_objects) for x in R.values[a]]
        fits, equivalence = cp._relation_fits(R, M), oracles._is_equivalence(M, pairs)
        assert fits or not equivalence
        drawn[fits] += 1

    check()
    assert drawn[True] and drawn[False], drawn


# (category, flavor, check) whose full listing over every object does not
# end within minutes here: the relation pair walk enumerates hom(R, M) of
# large objects, such as hom(M5, M5) of a 16-element free Z2-set in Z2 ex;
# over the representables every listing ends
LISTING_RUNAWAYS = {
    ("ONE", "pret", "effective_equivalence_relations"),
    ("PAR", "ex", "effective_equivalence_relations"),
    ("Z2", "ex", "effective_equivalence_relations"),
    ("Z2", "pret", "effective_equivalence_relations"),
}
LISTINGS = {
    "regular_epi_stability": oracles.pullbacks_witness,
    "kernel_pair_quotients": oracles.kernel_pairs_witness,
    "effective_equivalence_relations": oracles.relation_quotients_witness,
}


def test_certified_battery_matches_listings(cats):
    # the battery decides equivalence relations by congruences and skips
    # what the completion provably holds; the full listings give the same
    # verdict and witness on every bounded closure where they end, over
    # every object, over the representables and over the objects of at most
    # four elements, and both verdicts are seen for each check.  close lists
    # quotients as the battery does, so some compared scope must hold one
    # that close added, or the listing would meet the referee only on
    # objects it did not build
    bounds = cp.Bounds(max_objects=12, max_iterations=2)
    seen = collections.Counter()
    quotients = 0
    for name, C in cats.items():
        for flavor in ("reg", "ex", "pret"):
            E = cp.close(C, flavor, bounds)
            every = range(len(E.objects))
            small = [i for i in every if E.objects[i].total_size() <= 4]
            for scope in (every, range(C.n_objects), small):
                checks = cp.verify_axioms(E, scope).checks
                for check, listing in LISTINGS.items():
                    if check not in checks or (scope is every and (name, flavor, check) in LISTING_RUNAWAYS):
                        continue
                    want = listing(E, scope)
                    assert checks[check] == {"passed": want is None, "witness": want}, (name, flavor, check)
                    seen[check, want is None] += 1
                    if check == "effective_equivalence_relations":
                        quotients += sum(E.provenance[i].kind == "quotient" for i in scope)
    assert all(seen[check, passed] for check in LISTINGS for passed in (True, False)), seen
    assert quotients


def _small_presheaves(C):
    """Representables, 1, 0, coproducts of two or three representables and
    products of two."""
    reps = [ps.yoneda(C, a) for a in range(C.n_objects)]
    pool = reps + [ps.terminal_presheaf(C), ps.initial_presheaf(C)]
    pool += [ps.coproduct(C, list(Ys)).apex for n in (2, 3) for Ys in itertools.combinations_with_replacement(reps, n)]
    pool += [ps.product(C, [Y, Z]).apex for Y, Z in itertools.combinations_with_replacement(reps, 2)]
    return pool


def _completion(C, objects):
    named = [ps.relabel(M, name=f"M{i}")[0] for i, M in enumerate(objects)]
    return cp.ConcreteCompletion(C, "pret", cp.Bounds(), tuple(named), (cp.Provenance("family", ""),) * len(named), False)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_certified_battery_matches_listings_on_drawn_completions(cats, data):
    # the same comparison on completions drawn from small presheaves, each
    # over a drawn scope, so objects and scopes that no closure gives are
    # tried too
    C = cats[data.draw(st.sampled_from(["ARROW", "PAR", "Z2", "SPLIT"]))]
    pool = [M for M in _small_presheaves(C) if M.total_size() <= 5]
    E = _completion(C, data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6)))
    scope = data.draw(st.lists(st.integers(0, len(E.objects) - 1), min_size=1, max_size=4, unique=True))
    checks = cp.verify_axioms(E, scope).checks
    for check, listing in LISTINGS.items():
        want = listing(E, scope)
        assert checks[check] == {"passed": want is None, "witness": want}, check


def _arrows(C, points, targets):
    """A presheaf on ARROW: ``points`` elements at A and one element at B
    per entry of ``targets``, which ``u`` sends to that point."""
    return ps.Presheaf(
        C, (tuple(range(points)), tuple(range(len(targets)))),
        ({x: x for x in range(points)}, {x: x for x in range(len(targets))}, dict(enumerate(targets))),
        check=False,
    )


def test_quotients_need_a_relation_isomorphic_to_r(cats):
    # over Z2, the relation of the full congruence of Y is a free Z2-set of
    # four elements, and R, four fixed points, has its size but is no
    # equivalence relation on Y (hom(R, Y) is empty); E lacks the quotient
    # Y/Y, the terminal object, so only a listing that skips the iso test
    # names it
    C = cats["Z2"]
    R = ps.constant_presheaf(C, range(4))
    E = _completion(C, [ps.yoneda(C, 0), R])
    assert E.find_object(ps.terminal_presheaf(C)) is None
    assert oracles.relation_quotients_witness(E, [0, 1]) is None
    assert cp.verify_axioms(E, [0, 1], flavor="ex").checks["effective_equivalence_relations"]["passed"]


def test_repeated_image_is_keyed_by_its_target(cats):
    # maps out of one object into two targets can have images with the same
    # elements that are not isomorphic: T -> T onto two arrows on points
    # 0, 1, and T -> U onto two arrows on point 0 beside a lone point 1; E
    # holds every kernel pair and image of maps between T and U but the
    # second, so the battery must look it up though its elements were seen
    C = cats["ARROW"]
    T, U, missing = _arrows(C, 3, (0, 1)), _arrows(C, 2, (0, 0, 1)), _arrows(C, 2, (0, 0))
    assert C.morphisms[2] == "u" and (C.src[2], C.tgt[2]) == (0, 1)
    objects = [T, U]
    for M, N in itertools.product((T, U), repeat=2):
        for t in ps.hom_set(M, N):
            for K in (ps.pullback(t, t).apex, ps.epi_mono_factorize(t)[0].target):
                if all(ps.find_iso(K, L) is None for L in objects + [missing]):
                    objects.append(K)
    E = _completion(C, objects)
    want = oracles.kernel_pairs_witness(E, [0, 1])
    assert want == "coequalizer of the kernel pair of M0->M1 missing"
    assert cp.verify_axioms(E, [0, 1], flavor="reg").checks["kernel_pair_quotients"]["witness"] == want


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_congruences_match_filtered_partitions(cats, data):
    # every congruence whose relation is within a drawn bound at each
    # object is listed once, the diagonal first: the same set as filtering
    # every per-fiber partition by closure under the actions (none when the
    # diagonal is not within the bound)
    C = cats[data.draw(st.sampled_from(["ONE", "ARROW", "PAR", "DISC2", "Z2", "CHAIN3", "SPLIT"]))]
    M = data.draw(st.sampled_from([N for N in _small_presheaves(C) if max(N.fiber_sizes()) <= 5]))
    bound = tuple(data.draw(st.integers(max(n - 1, 0), n * n)) for n in M.fiber_sizes())
    got = list(cp._congruences(M, bound))
    want = [
        theta for theta in oracles.congruences_by_filter(M)
        if all(s <= b for s, b in zip(cp._relation_sizes(theta), bound))
    ]
    assert len(got) == len(set(got)) and set(got) == set(want)
    assert got[:1] == [tuple(tuple(range(n)) for n in M.fiber_sizes())][:len(want)]
    for theta in got:
        rel = cp._relation(M, theta)
        assert rel.fiber_sizes() == cp._relation_sizes(theta)
        ps.Presheaf(C, rel.values, rel.actions)  # checked: a subpresheaf of M x M


def test_regular_battery_on_direct_regular(cats, weakly_lex_names):
    for name in weakly_lex_names:
        E = cp.direct_regular(cats[name])
        rep = cp.verify_axioms(E, flavor="reg")
        assert rep.passed, (name, rep.checks)


def test_exactness_battery_on_closure(cats):
    E = cp.close(cats["ARROW"], "ex", BOUNDS)
    rep = cp.verify_axioms(E, flavor="ex")
    assert rep.passed, rep.checks


def test_universal_property_one_lext(cats):
    E = cp.fam_f(cats["ONE"], 2)
    r = cp.universal_property_check(cats["ONE"], E, 2, flavor="lext")
    assert r.correspondence and not r.sampled
    assert r.flat_iso_classes == r.exact_iso_classes == 1


def test_universal_property_arrow_reg(cats):
    E = cp.close(cats["ARROW"], "reg", BOUNDS)
    r = cp.universal_property_check(cats["ARROW"], E, 2, flavor="reg")
    assert r.correspondence
    assert r.flats == 2 and r.exacts == 2


def test_nonflat_extension_fails_structure(cats):
    E = cp.fam_f(cats["DISC2"], 2)
    struct = cp.completion_structure(E, "lext")
    lan = cp.lan_extension(E, ps.constant_set_functor(cats["DISC2"]))
    assert not lz.is_sketch_model(struct, lan.functor)


def test_nonrepresentable_limit_witness_on_par(cats):
    E, idx = cp.nonrepresentable_limit_witness(cats["PAR"], cp.Bounds(max_objects=8, max_iterations=2))
    assert idx is not None
    assert E.provenance[idx].kind == "limit"
    witness = E.objects[idx]
    for a in range(cats["PAR"].n_objects):
        assert ps.find_iso(witness, ps.yoneda(cats["PAR"], a)) is None
    assert fc.is_cauchy_complete(cats["PAR"])
    assert not vl.classify_completeness(cats["PAR"], "weak").passed


def test_limit_closure_saturates_on_lex_bases(cats):
    for name in ("ONE", "ARROW", "CHAIN3"):
        E, idx = cp.nonrepresentable_limit_witness(cats[name], cp.Bounds(max_objects=8, max_iterations=3))
        assert idx is None and E.saturated, name


def test_every_completion_inclusion_is_flat(cats):
    built = [
        cp.direct_regular(cats["ARROW"]),
        cp.direct_pretopos(cats["PAR"], cp.Bounds(max_arity=2)),
        cp.fam_f(cats["DISC2"], 2),
        cp.close(cats["ONE"], "lext", cp.Bounds(max_objects=5, max_fiber=3)),
    ]
    for E in built:
        K = E.inclusion_concrete()
        assert fl.is_flat(K).flat, E.flavor


def test_inclusion_left_covering_on_weakly_lex(cats, weakly_lex_names):
    for name in weakly_lex_names:
        E = cp.direct_regular(cats[name])
        K = E.inclusion_concrete()
        assert fl.left_covering(K).flat, name


def test_completion_category_revalidates(cats):
    E = cp.direct_pretopos(cats["PAR"], cp.Bounds(max_arity=2))
    cat = E.as_category()
    cat.check()
    fd, _ = E.inclusion()
    assert fd.is_faithful()
    assert fd.is_full()


def test_completion_serialization_roundtrip(cats):
    import json

    E = cp.direct_pretopos(cats["PAR"], cp.Bounds(max_arity=2))
    blob = json.dumps(E.to_json(), sort_keys=True)
    E2 = cp.completion_from_json(json.loads(blob))
    assert len(E2.objects) == len(E.objects)
    assert all(E2.find_object(M) is not None for M in E.objects)
    assert E2.saturated == E.saturated


def test_completion_file_survives_load_and_save(cats, weakly_lex_names):
    # the builds of `build-completion`: reg/direct, pret/direct, lext/close
    # and fam_f at default bounds; a loaded value is a string and is saved
    # as itself, not quoted again
    import json

    bounds = cp.Bounds()
    saved = 0
    for name, C in cats.items():
        builds = [cp.direct_pretopos(C, bounds), cp.close(C, "lext", bounds), cp.fam_f(C, bounds.max_arity + 1, bounds)]
        if name in weakly_lex_names:
            builds.append(cp.direct_regular(C, bounds))
        for E in builds:
            data = json.loads(json.dumps(E.to_json()))
            assert cp.completion_from_json(data).to_json() == data, (name, E.flavor)
            saved += 1
    assert saved == 24


def test_close_pret_contains_direct_pretopos_on_par(cats):
    PAR = cats["PAR"]
    direct = cp.direct_pretopos(PAR, cp.Bounds(max_arity=2))
    closed = cp.close(PAR, "pret", cp.Bounds(max_objects=20, max_iterations=3, max_fiber=12))
    missing = [M.name for M in direct.objects if closed.find_object(M) is None]
    assert not missing, missing


def test_inclusion_into_pretopos_is_fc_continuous(cats):
    for name in ("PAR", "DISC2", "Z2"):
        E = cp.direct_pretopos(cats[name], cp.Bounds(max_arity=2))
        K = E.inclusion_concrete()
        assert fl.fc_continuous(K).flat, name


def test_universal_property_sampling_flag(cats):
    E = cp.fam_f(cats["ONE"], 2)
    r = cp.universal_property_check(cats["ONE"], E, 2, flavor="lext", cap=2, seed=3)
    assert r.sampled


def test_image_presentation_is_strictly_smaller_than_closure(cats):
    # over PAR the double coproduct of the two-element representable has a
    # 2-element fiber at B, but every product of representables has a
    # singleton fiber there, so no mono exists and no image presentation
    # can produce it at any arity; the closure builds it as a coproduct
    PAR = cats["PAR"]
    YB = ps.yoneda(PAR, 1)
    double = ps.coproduct(PAR, [YB, YB]).apex
    direct = cp.direct_pretopos(PAR, cp.Bounds(max_objects=60, max_arity=3))
    assert direct.find_object(double) is None
    closed = cp.close(PAR, "pret", cp.Bounds(max_objects=20, max_iterations=2, max_fiber=12))
    assert closed.find_object(double) is not None


# -- lookups by exact structure ------------------------------------------------


def _linear_scan(objects, M):
    """The lookup the memo stands in for: the first stored object iso to M."""
    for i, N in enumerate(objects):
        if M.fiber_sizes() == N.fiber_sizes() and ps.find_iso(M, N) is not None:
            return i
    return None


def _renamed(M):
    """M with every element renamed and every fiber in reverse order."""
    values = tuple(tuple(("r", x) for x in reversed(fiber)) for fiber in M.values)
    actions = tuple({("r", x): ("r", y) for x, y in act.items()} for act in M.actions)
    return ps.Presheaf(M.base, values, actions, name=f"{M.name}'")


def _refilled(E):
    """A builder holding E's objects, in order, with a fresh lookup memo."""
    b = cp._Builder(E.base, E.flavor, E.bounds)
    for M, prov in zip(E.objects, E.provenance):
        b.add(M, prov)
    assert len(b.objects) == len(E.objects)
    return b


@pytest.mark.parametrize("build", ["fam_f CHAIN3", "reg ARROW"])
def test_lookup_matches_linear_scan(cats, build):
    flavor, name = build.split()
    C = cats[name]
    E = cp.fam_f(C, 3) if flavor == "fam_f" else cp.close(C, flavor)
    copies = [_renamed(M) for M in E.objects]
    # every presheaf with fibers of at most two elements, stored or not
    small = [ps.Presheaf(C, F.values, F.actions) for F in ps.enumerate_set_functors(fc.opposite(C), 2)]
    probes = copies + small
    expected = [_linear_scan(E.objects, P) for P in probes]
    assert expected[: len(copies)] == list(range(len(copies)))
    assert None in expected
    # only an object with a fiber of two or more has copies of another structure
    if any(len(fiber) > 1 for M in E.objects for fiber in M.values):
        assert any(cp._structure(P) != cp._structure(M) for P, M in zip(copies, E.objects))
    b = _refilled(E)
    for P, k in zip(probes, expected):
        assert E.find_object(P) == k
        assert E.find_object(P) == k
        assert cp._first_iso(b.objects, b._index, P)[1] == k
        if k is not None:
            assert b.add(P, cp.Provenance("limit", "probe")) == k
    assert len(b.objects) == len(E.objects)


def test_repeated_lookup_skips_find_iso(cats, monkeypatch):
    E = cp.fam_f(cats["CHAIN3"], 3)
    b = _refilled(E)
    real, calls = ps.find_iso, []
    monkeypatch.setattr(ps, "find_iso", lambda M, N: calls.append((M, N)) or real(M, N))
    # the last object whose renamed copy differs from it in structure
    last = max(k for k, M in enumerate(E.objects) if cp._structure(_renamed(M)) != cp._structure(M))
    for lookup in (E.find_object, lambda M: b.add(M, cp.Provenance("limit", "probe"))):
        before = len(calls)
        assert lookup(_renamed(E.objects[last])) == last
        first = len(calls) - before
        assert first > 0
        assert lookup(_renamed(E.objects[last])) == last
        assert len(calls) - before == first


# sha256 of exit code, newline and stdout, computed before lookups were memoised
CLI_DIGESTS = {
    "build-completion ONE reg/direct": "1d38272366f9ace4da352e8171009976514c7e056287b7dce28c63a449249e93",
    "build-completion ONE pret/direct": "6cbba44f122dbab76704bc688576f493f916ea542c3257acdcce4a24dee8648c",
    "build-completion ONE lext/close": "84e6a443e37feb6b2dc641dbf8e9e175e9e7d0f4f85782258b2ff12adf1a07ce",
    "build-completion ONE fam_f/direct": "28e372139a12040d4e752151e6f18188a9ee2bd546869cbd85b60fb3f2aeb34c",
    "verify-axioms ONE fam_f": "8238844bc5687e2190c5154f7147fe70980040b53867650372fc8a469dcc30ef",
    "build-completion ARROW reg/direct": "ffe8a381bada13275b8cfb4fecad2fe9cf1612e2fc04391c0f84bd1100faff9a",
    "build-completion ARROW pret/direct": "ec6c542c35290e5b19eb6e74b890200f3f8d5f1040ad69a564450b41a8651a07",
    "build-completion ARROW lext/close": "5f5fa729c5b53cb4b411b9e130ed7967b21fc9efd479ca4b6d0e1ea218083bc9",
    "build-completion ARROW fam_f/direct": "64977fb14b7baef87299d483d74ec7abb39e8942370e803adfdcb1f6bdce6c9c",
    "verify-axioms ARROW fam_f": "ca32796edab0734cf31c70779466aeed0b19ef4403114b6ec71291916adf1d70",
    "build-completion PAR reg/direct": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "build-completion PAR pret/direct": "e3663011b1d287a952bf529da9dd596c49d8ac8c06683829920e8b0a9a1df738",
    "build-completion PAR lext/close": "4701c3077f7b093ea4f496e31ad3dfc2e9b52c2e56a71c763491f34d89ba576b",
    "build-completion PAR fam_f/direct": "594c76aab00a1146ba5dc471f17a148a382419f77c07d5fe23ab620a7e611f07",
    "verify-axioms PAR fam_f": "f844973e43f62277a3e9c1277b8894a0eae3394e7052bc6706da1c8aec9771bc",
    "build-completion DISC2 reg/direct": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "build-completion DISC2 pret/direct": "b4ade0ca224fa3c88488a5ecdbbcef90c943a3e193914e95b780452c4e47189e",
    "build-completion DISC2 lext/close": "2c13a6e4b4f95decd5fa3a9f7694b608fcd3fdca80835e37cdd4ac578384a888",
    "build-completion DISC2 fam_f/direct": "ebd088aebb352cd9c65560ce55d574b868190df26b86d0050cacacf0cf01a7ed",
    "verify-axioms DISC2 fam_f": "b07586278270ea64d5683e5c05cad0d80bb6bbd75b5b4f450dbed0908d42fc9f",
    "build-completion Z2 reg/direct": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "build-completion Z2 pret/direct": "896168f438e3ddb8a5ff99ee05c40c3455901bcf3cfcad2892f289492bcef8d1",
    "build-completion Z2 lext/close": "74e074c30d8eb06e39e96302af0d28acb8e16a2d39215cc961a4d76841cfa29b",
    "build-completion Z2 fam_f/direct": "1e62fe0dc4361056126a1df43934c0deb7ec20c5ca195707abfc01115f0c2444",
    "verify-axioms Z2 fam_f": "dedc6363c45e76c86e83cc7dff0a9b7fcb9188b7b79c5d43f66c6b8e10022ab4",
    "build-completion CHAIN3 reg/direct": "8d690134cb8c1b6267bbbf151997c92b96c18d43d023a43fd17d7149f7303a2d",
    "build-completion CHAIN3 pret/direct": "ba8aaab24d40df48200b20a56174213d5dd355e25a83e66cf9b493a0fbfba0fe",
    "build-completion CHAIN3 lext/close": "693ca485ba2653652ce068b74b800d4133c266beed717227a343bc5e195e1f81",
    "build-completion CHAIN3 fam_f/direct": "280440d7162578fd727802dfc2faafa8e681e9b943f0368c177bdb1073a239ff",
    "verify-axioms CHAIN3 fam_f": "42cdc00864d1fded6e8a42459044fa26eea972bb5a027de55a9dd7ee13f962f1",
    "build-completion SPLIT reg/direct": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "build-completion SPLIT pret/direct": "21f714b8ab701c5eca084f744237ae74ca1ae23f5c8bc3b42a5bafe24bd6c8c0",
    "build-completion SPLIT lext/close": "6bd061a52e39ca04adb8d5ffbb0c353606125eb8b95d1b58b4098b5deb3de224",
    "build-completion SPLIT fam_f/direct": "83f17d5cee7b280d166fb54c110ee36f68a6ceb5fd4f6956a55db6627e28dd0c",
    "verify-axioms SPLIT fam_f": "a47b796b03c989d0db075d7c4b856c615cb7ba742e2d7b2161a4461d1a35d14f",
    # the battery and the closure of every other flavour at small bounds
    # (each case that took under 2 s), computed before the two listed the
    # closure operations' constructions once: together they give a witness
    # for every closure check of the battery.  ONE pret/close and Z2
    # ex/close were pinned again when close began to list quotients by
    # congruences: both note fewer hom_cap events, and Z2 ex holds the
    # quotient that capped hom-sets had hidden
    "verify-axioms ONE none max_objects=12,max_iterations=2": "3e06c24b73e030e6d45f3baaa34997b28bd06cfbc404f4bbceefedac6f2a8b3f",
    "build-completion ONE none/close max_objects=12,max_iterations=2": "ee8890cc7b6075e34d8db44ed331ed99b197f46fcc87d2e129b91d771f69f5ba",
    "verify-axioms ONE reg max_objects=12,max_iterations=2": "6c1400413c18555e5db86166e8923ec720dac7e0937e743ff11b895a4babfa0e",
    "build-completion ONE reg/close max_objects=12,max_iterations=2": "74cc4e5ed143dde09b6eac1e583b4e42adceee85ac7a00cf3ea1dae506494f30",
    "verify-axioms ONE ex max_objects=12,max_iterations=2": "a69159ba64dba322aac74823f84545617d94f15577e726fbb782879ec752a4de",
    "build-completion ONE ex/close max_objects=12,max_iterations=2": "ffefc9b60a90895ea102a82df87196f83321a292337c8fdbffae43e1b4daa148",
    "build-completion ONE lext/close max_objects=12,max_iterations=2": "6c9203ee65d727baa526a5aa8226c00324bf0df3d13a5d187e7a6f96ce980a50",
    "build-completion ONE pret/close max_objects=12,max_iterations=2": "1304f337318f071e30b96020bd895874061fee25a90f040f1c348162836c24a0",
    "verify-axioms ARROW none max_objects=12,max_iterations=2": "27725e8e7b6d0f76dbdaa28bb892518d2bc10dd2397276f0515f0054cc4d2adb",
    "build-completion ARROW none/close max_objects=12,max_iterations=2": "4849feb70891c771e93aad8863808016a50e901705481a8cf17d8b5ef67b04f1",
    "verify-axioms ARROW reg max_objects=12,max_iterations=2": "94ee3b9b39791e27f0e9e35e0382bd980eae87fbb2c4f97078eb1a22f64d0477",
    "build-completion ARROW reg/close max_objects=12,max_iterations=2": "a84628411e8eb240b4a83f8bda7c0f36f36d7e7dd05e64ff1a39a9da91304efd",
    "verify-axioms ARROW ex max_objects=12,max_iterations=2": "a9f5293f80d19edbf0001ee51c8c09caddc519d039cdb246d66017e75ed8e391",
    "build-completion ARROW ex/close max_objects=12,max_iterations=2": "dd5b40de9acc3f24c12403461d0f1f7f84e60da9cb46c3b24af734afe6c1c79c",
    "verify-axioms ARROW lext max_objects=12,max_iterations=2": "8f49419518463d11c963ebfa05a224f3fa864897c45b8c3564f93e61d6046ccb",
    "build-completion ARROW lext/close max_objects=12,max_iterations=2": "0801079c5ba67c94eba53710446568dd0d7ff7298fe6e7680e8d373d8d41c01f",
    "verify-axioms ARROW pret max_objects=12,max_iterations=2": "13fc31ab3e07ef22b2c589e63b2e9c64803226aa45c97cb4402eb3ebdab14128",
    "build-completion ARROW pret/close max_objects=12,max_iterations=2": "3f826fa4ae486f0282e02c33479e5f275e0cd27c7e5ff2b10efa800c56535057",
    "build-completion PAR none/close max_objects=12,max_iterations=2": "480c119b89feefac1e615ec1c30aa3fc198490a38150e47250e94489250a82fc",
    "build-completion PAR reg/close max_objects=12,max_iterations=2": "87d3f468b1a3414cfb5558b93f5177cd70110edc6d46f6d5d659c7efc6a2fb12",
    "verify-axioms PAR lext max_objects=12,max_iterations=2": "5aa30a8ac294780eef2f833d07ddffcb8d80b5034cb01d1b0dd1fc4c369b71a9",
    "build-completion PAR lext/close max_objects=12,max_iterations=2": "90ec98a3df69e32abd3f2811ade7f588c407ab99180957bcf7f9bc4ea9f96f5d",
    "verify-axioms PAR pret max_objects=12,max_iterations=2": "8b845a78fed413ae4621c59535a6b46f517501094c0c8fcb700706bcd67f46c2",
    "build-completion PAR pret/close max_objects=12,max_iterations=2": "81a9599e02632056ad33f8194ae6021c916b6ef576b33a4ede3aea485ba20f60",
    "verify-axioms DISC2 none max_objects=12,max_iterations=2": "0d812050046f7a041cf6dfb29361de6cc9f984dd97bb15df1aded23e4b0a060a",
    "build-completion DISC2 none/close max_objects=12,max_iterations=2": "51167b7ad46a7b9f01b4cce99a8ab983fbc68d03ce259c9c4dc5a3e8161231df",
    "verify-axioms DISC2 reg max_objects=12,max_iterations=2": "0113315ffa5905958afc1225deb2e0bb3102c1614495335886f10fe65b380839",
    "build-completion DISC2 reg/close max_objects=12,max_iterations=2": "13d7c52c14334f824c3a045e1697b64312b08722e027b05bc52a89cca7ca731b",
    "verify-axioms DISC2 ex max_objects=12,max_iterations=2": "b12d45743ccea36f0c0cf2635a22a7799f977bbab2d9303526f9af5ef8ac8433",
    "build-completion DISC2 ex/close max_objects=12,max_iterations=2": "70351124d9834ddc4fc7b8af2467f85907ff19d1cbb154c00ef0d8ea2ae0b5a2",
    "verify-axioms DISC2 lext max_objects=12,max_iterations=2": "8e9b11b413bedd80da5495b69755ecdc60012f5fb2e51ad42b0d3db821617a76",
    "build-completion DISC2 lext/close max_objects=12,max_iterations=2": "ab721c3bb08625320bfbad7be99da85ab8ee20cbc3fd00cad136f235ddfd251c",
    "build-completion DISC2 pret/close max_objects=12,max_iterations=2": "a8256fa1d4e0c4290899a3d90fdb44d2ab63536dc5c8a0a0e4f6a3984ed2381a",
    "build-completion Z2 none/close max_objects=12,max_iterations=2": "b3490f04a16d7557de287286e3b819734797420146d70d5b826e7a06045c20a1",
    "build-completion Z2 reg/close max_objects=12,max_iterations=2": "635cfe63cc497d7c99d1425435734e0bf32223a1e6d91a450514e2e8d138c6d1",
    "build-completion Z2 ex/close max_objects=12,max_iterations=2": "da0884a0173c420744c2a9fdfc4ba29ca89e754ef7824184c8711ecc0ce24319",
    "build-completion Z2 lext/close max_objects=12,max_iterations=2": "bb13f5696a639548e747d471415bd4fa9430f15cba30d845b8189a33e235d71f",
    "build-completion Z2 pret/close max_objects=12,max_iterations=2": "a387a02e82d51a3085b55743623caac8d0ca4d5cea6e74350a94fac40c5fc152",
    "verify-axioms CHAIN3 none max_objects=12,max_iterations=2": "da13ab16f23f86ba40912fd0426e721ed67d0685417d25259f9f7f32940e7444",
    "build-completion CHAIN3 none/close max_objects=12,max_iterations=2": "9f75fe8a6a35859ddb4cffed7482838c1bcb945dea497fc0826bd7aac885caef",
    "verify-axioms CHAIN3 reg max_objects=12,max_iterations=2": "c5acfb9632ae907821e82db1eac4b5f5eb13c43ece6a82814c54b01549590ed3",
    "build-completion CHAIN3 reg/close max_objects=12,max_iterations=2": "58c946464d9804b9cef13b36011ed8be0c1e37a07714a57378ffe7478245a793",
    "verify-axioms CHAIN3 ex max_objects=12,max_iterations=2": "9d228298ea954edb09221722de443dcfde11582c0df96574d5fe018ff2253c1b",
    "build-completion CHAIN3 ex/close max_objects=12,max_iterations=2": "575a2d2ae90218e47ed5f333fcb05148ba9a6589ad2260cbf4e1330c86602361",
    "verify-axioms CHAIN3 lext max_objects=12,max_iterations=2": "d970d2fc6ec7b451699ec83cb98ba696db9fcfc0d5086775a19e41d9c67076a5",
    "build-completion CHAIN3 lext/close max_objects=12,max_iterations=2": "2dcb8cb94967787e80881332b3a7a77df40200ad5672380c2583ef7698304352",
    "verify-axioms CHAIN3 pret max_objects=12,max_iterations=2": "114a1e3020af00f45fe393a0ca7835220de2ef55d34f0f5e1d76820d5df32254",
    "build-completion CHAIN3 pret/close max_objects=12,max_iterations=2": "7265df09b7e79b1f0206760d7aafcec9035e020b673e8cbbd6a88bbf5b65a0ff",
    "verify-axioms SPLIT none max_objects=12,max_iterations=2": "f9231d0f30f9f511a5c305f06a04ba87348509d2a62c62dd3fa59a82b8f353e4",
    "build-completion SPLIT none/close max_objects=12,max_iterations=2": "bd4b12d2fc118f73380f522c8c0e2d4b34f7dcc640acec2b968ba595c3a38ecf",
    "verify-axioms SPLIT reg max_objects=12,max_iterations=2": "a681ef7d261540bc09d5dace746a18e3d1869948af7cb3ef41f0c2fb4de801eb",
    "build-completion SPLIT reg/close max_objects=12,max_iterations=2": "049f225ee455b95d409902f150b37361ba0906cf8f8828dfe412e35ce4b94ada",
    "verify-axioms SPLIT ex max_objects=12,max_iterations=2": "83be1c3170b9fa4533b5e1c43c5fff5dab8d21c517d633263df703fd0d732d2a",
    "build-completion SPLIT ex/close max_objects=12,max_iterations=2": "76a725263d4de2637e5df5f0612038a5ca58b4dc46bc9225d5c3c5afb9253b8a",
    "verify-axioms SPLIT lext max_objects=12,max_iterations=2": "2e176e83b9125ddc233935c0df3847e0c88c1f6ef70699b56dd690aefeaf9086",
    "build-completion SPLIT lext/close max_objects=12,max_iterations=2": "38c8cbefc3bd18baa1bad346b2dd02256f0052496033721c6b276103e7c49eb5",
    "verify-axioms SPLIT pret max_objects=12,max_iterations=2": "ee3643e6e3f3542434c020b7f1c0ef5497bbbce4c81ac28fb34b5bf845472782",
    "build-completion SPLIT pret/close max_objects=12,max_iterations=2": "4aefc9e31e3aaff8e8c4b664e6b651bbd971d0df1ca5f9f2c95b753cf5fba6ae",
}


@pytest.mark.parametrize("case", sorted(CLI_DIGESTS))
def test_cli_completion_reports_pinned(case, capsys):
    command, name, construction, *bounds = case.split()
    flavor, _, construction = construction.partition("/")
    argv = [command, "--category", name, "--flavor", flavor]
    if construction:
        argv += ["--construction", construction]
    if bounds:
        argv += ["--bounds", *bounds]
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert hashlib.sha256(f"{code}\n{out}".encode()).hexdigest() == CLI_DIGESTS[case]


# universal-property reports of every corpus category and flavor.  The cap
# counts the candidates that survive the completion's sketch, so at a cap of
# 40 only CHAIN3 lext and CHAIN3 reg are sampled; the second block
# enumerates in full.  Its last three guard the prunes: generate-and-filter
# runs for 30 s or more on each (max_arity=2 is the default)
UNIVERSAL_PROPERTY_DIGESTS = {
    "ONE reg enumeration_cap=40,max_iterations=1": "1d352a6df4b70b59ca30e8337ebde982d4b1009c1bfa3307a4da2b19d9ee29bb",
    "ONE lext enumeration_cap=40,max_iterations=1": "81fc2ac758740c266b2400fe767ddb04d92289aa592bbc5b3857f5f5fd40b057",
    "ARROW reg enumeration_cap=40,max_iterations=1": "0ea254e53d71a5c43744490071a2f27c62eb68b02e3ec61b8f97dd71949ccf3f",
    "ARROW lext enumeration_cap=40,max_iterations=1": "9c96d6ea211c345e45a018bc8f3a6b53182a61bfc57c612c504ea36d93f87c0a",
    "PAR reg enumeration_cap=40,max_iterations=1": "fcccdd89016f940ea2382680ab183917ac7d5e8b00d117d5da228dd743996286",
    "PAR lext enumeration_cap=40,max_iterations=1": "0ad14f1d3c76b7024296e87133bfd202e5af559778fc6b6faa47e3c277430d3d",
    "DISC2 reg enumeration_cap=40,max_iterations=1": "a90c946aab8b1446322350ac4be6bc593bea68f21b889365a0da726dd6c1f4a6",
    "DISC2 lext enumeration_cap=40,max_iterations=1": "47fe70231fb3e67d92f44d19ab3ba0dcf229d2655d8fe2ed7a432a9d69ce092f",
    "Z2 reg enumeration_cap=40,max_iterations=1": "9ca86675814bbd1281a00c48802902daa7cd0c9f5ba387ac6dff243e89896ff3",
    "Z2 lext enumeration_cap=40,max_iterations=1": "c23fa3135aa9ff11cb266e78461fad88ffb578263dd971a9831cdf17fb10557b",
    "CHAIN3 reg enumeration_cap=40,max_iterations=1": "37e25b95201c11f075b9aeac5f6303bc8f64a7e031061dbb614801dd1c3c2ef3",
    "CHAIN3 lext enumeration_cap=40,max_iterations=1": "e7fb38da0a16db360fa69ec16591d6420fe82da67d56ea2111af892fc7eeee08",
    "SPLIT reg enumeration_cap=40,max_iterations=1": "028b75bbc3766581260b5f2ca66644247d8e4d3c1e713bb523334f88ff2ecced",
    "SPLIT lext enumeration_cap=40,max_iterations=1": "6d9ef6a71663aca9075b0c29283bd836fc0825e35535c889dd343a69b072b574",
    "DISC2 reg max_iterations=1": "a90c946aab8b1446322350ac4be6bc593bea68f21b889365a0da726dd6c1f4a6",
    "Z2 reg max_iterations=1": "9ca86675814bbd1281a00c48802902daa7cd0c9f5ba387ac6dff243e89896ff3",
    "CHAIN3 reg max_iterations=1": "65fc68028bec33b493e8591efdada5fb0b4090fe60e5ad76e6212195578c09fc",
    "SPLIT reg max_iterations=1": "028b75bbc3766581260b5f2ca66644247d8e4d3c1e713bb523334f88ff2ecced",
    "SPLIT lext max_iterations=1": "6d9ef6a71663aca9075b0c29283bd836fc0825e35535c889dd343a69b072b574",
    "PAR reg max_iterations=1": "fcccdd89016f940ea2382680ab183917ac7d5e8b00d117d5da228dd743996286",
    "CHAIN3 lext max_arity=2": "07c867a9058c3dccd10c3d4ee4a8baadbc01f710764b89ee31b98d45af1b27a0",
}


@pytest.mark.parametrize("case", sorted(UNIVERSAL_PROPERTY_DIGESTS))
def test_universal_property_reports_pinned(case, capsys):
    name, flavor, bounds = case.split()
    code = cli.main(["universal-property", "--category", name, "--flavor", flavor, "--bounds", bounds])
    out = capsys.readouterr().out
    assert hashlib.sha256(f"{code}\n{out}".encode()).hexdigest() == UNIVERSAL_PROPERTY_DIGESTS[case]


def test_universal_property_streams_candidates(cats, monkeypatch):
    # each candidate is tested as it is drawn: when the next one is drawn,
    # every earlier candidate but the one just tested is dead unless it was
    # kept as flat (base) or exact (completion); each enumeration still draws
    # cap + 1 candidates, one more than it tests (the completion's side draws
    # only its 4 models, so the cap is below that)
    C, cap = cats["DISC2"], 3
    E = cp.close(C, "reg", cp.Bounds(max_iterations=1))
    struct = cp.completion_structure(E, "reg")
    models = lz.models
    draws, dead = [], [0]

    def kept(G) -> bool:
        if G.base == C:
            return fl.is_flat_set_valued(G).flat
        return lz.is_sketch_model(struct, G)

    def watched(sk, n, rng=None):
        drawn = []
        draws.append(drawn)
        for G in models(sk, n, rng=rng):
            gc.collect()
            for ref in drawn[:-1]:
                H = ref()
                if H is None:
                    dead[0] += 1
                else:
                    assert kept(H)
                    del H
            drawn.append(weakref.ref(G))
            yield G

    monkeypatch.setattr(lz, "models", watched)
    report = cp.universal_property_check(C, E, 2, flavor="reg", cap=cap)
    assert report.sampled and [len(d) for d in draws] == [cap + 1, cap + 1]
    assert dead[0] > 0 and report.flats + report.exacts < 2 * cap
