from __future__ import annotations

import collections
import gc
import itertools
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from catengine import fincat as fc
from catengine import presheaf as ps
from catengine import flatness as fl
from catengine import completions as cp
from catengine import ultra
from catengine.errors import DensityUnverified, ValidationError
from conftest import hom_functor


def test_principal_ultrafilter_structure():
    U = ultra.principal_ultrafilter(("x0", "x1", "x2"), "x1")
    assert U.principal_point == "x1"
    assert all("x1" in S for S in U.members)
    assert len(U.members) == 4


def test_ultrafilter_validator_rejects_non_filters():
    with pytest.raises(ValidationError):
        ultra.validate_ultrafilter((0, 1), [frozenset({0}), frozenset({1}), frozenset({0, 1})])
    with pytest.raises(ValidationError):
        ultra.validate_ultrafilter((0, 1), [frozenset({0, 1})])  # dichotomy fails
    with pytest.raises(ValidationError):
        ultra.validate_ultrafilter((0, 1), [frozenset(), frozenset({0}), frozenset({0, 1})])


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.data())
def test_validated_ultrafilters_are_principal(n, data):
    ground = tuple(range(n))
    import itertools

    universe = [frozenset(c) for r in range(n + 1) for c in itertools.combinations(ground, r)]
    members = data.draw(st.sets(st.sampled_from(universe), max_size=len(universe)))
    try:
        U = ultra.validate_ultrafilter(ground, members)
    except ValidationError:
        return
    assert U.principal_point in ground
    assert all(U.principal_point in S for S in U.members)
    assert len(U.members) == 2 ** (n - 1)


def test_sigma_singleton_ground_is_slice(cats):
    DISC2 = cats["DISC2"]
    inst = ultra.UltraInstance(DISC2, (0,), ultra.principal_ultrafilter((0,), 0))
    sigma, pi = ultra.sigma_category(inst)
    # a terminal object: the identity triple
    term = [o for o in range(sigma.n_objects) if all(len(sigma.hom(x, o)) == 1 for x in range(sigma.n_objects))]
    assert term
    col = ultra.sigma_colimit(inst)
    assert col.apex == 0


def test_sigma_colimit_examples(cats):
    DISC2 = cats["DISC2"]
    inst = ultra.UltraInstance(DISC2, (0, 1), ultra.principal_ultrafilter((0, 1), 0))
    assert ultra.sigma_colimit(inst).apex == 0
    FS2, _ = fc.finset_category(2)
    inst2 = ultra.UltraInstance(FS2, (1, 2), ultra.principal_ultrafilter((0, 1), 0))
    assert FS2.objects[ultra.sigma_colimit(inst2).apex] == "1"


def test_universal_ultraproduct_examples(cats):
    DISC2 = cats["DISC2"]
    inst = ultra.UltraInstance(DISC2, (0, 1), ultra.principal_ultrafilter((0, 1), 0))
    uu = ultra.universal_ultraproduct(inst)
    assert uu.obj == 0
    # removing the principal component (and everything mapping onto it)
    host = fc.full_subcategory(DISC2, [1])
    inst2 = ultra.UltraInstance(host, (0, 0), ultra.principal_ultrafilter((0, 1), 0))
    assert ultra.universal_ultraproduct(inst2) is not None  # constant family still works
    # a family cannot point outside the host: validity already fails there,
    # which is why a valid principal instance always has its answer inside
    FS2, _ = fc.finset_category(2)
    no_one = fc.full_subcategory(FS2, [0, 2])  # drop the singleton
    with pytest.raises(ValidationError):
        ultra.UltraInstance(no_one, (2, 0), ultra.principal_ultrafilter((0, 1), 0))


def test_all_routes_agree_on_corpus(cats):
    for name, C in cats.items():
        if C.n_objects == 1:
            family = (0, 0)
        else:
            family = (0, C.n_objects - 1)
        for point in ("x0", "x1"):
            uf = ultra.principal_ultrafilter(("x0", "x1"), point)
            inst = ultra.UltraInstance(C, family, uf)
            expected = family[("x0", "x1").index(point)]
            uu = ultra.universal_ultraproduct(inst)
            col = ultra.sigma_colimit(inst)
            assert uu is not None and col is not None, name
            assert any(m in C.isos() for m in C.hom(uu.obj, expected)), (name, point)
            assert any(m in C.isos() for m in C.hom(col.apex, expected)), (name, point)


def test_universality_by_exhaustive_cocones(cats):
    # the returned cocone mediates every competing cocone uniquely; the search
    # already enumerates all of them, so re-run the check with raw data here
    SPLIT = cats["SPLIT"]
    inst = ultra.UltraInstance(SPLIT, (0, 1, 2), ultra.principal_ultrafilter((0, 1, 2), 1))
    uu = ultra.universal_ultraproduct(inst)
    assert uu.obj == 1
    stages = ultra._stage_presheaves(inst)
    for N in range(SPLIT.n_objects):
        for c in ultra._cocones_into(inst, stages, N):
            mediators = [
                f
                for f in SPLIT.hom(uu.obj, N)
                if all(
                    SPLIT.table[f][uu.legs[S].components[a][x]] == c[S].components[a][x]
                    for S in inst.ultrafilter.members
                    for a in range(SPLIT.n_objects)
                    for x in stages[S].apex.values[a]
                )
            ]
            assert len(mediators) == 1


def test_cocones_match_filtered_product(cats):
    # the cocone search lists exactly the compatible tuples of
    # itertools.product over each member's stage maps, in product order:
    # a stage map at S agrees with the one at every S2 below S through the
    # projection of S's stage onto S2's
    sizes = collections.Counter()
    for C in cats.values():
        family = tuple(k % C.n_objects for k in range(3))
        for point in (0, 1, 2):
            inst = ultra.UltraInstance(C, family, ultra.principal_ultrafilter((0, 1, 2), point))
            members = inst.ultrafilter.members
            stages = ultra._stage_presheaves(inst)
            below = [(i, j) for i, S in enumerate(members) for j, S2 in enumerate(members) if S2 < S]
            for N in range(C.n_objects):
                choices = [ps.hom_set(stages[S].apex, ps.yoneda(C, N)) for S in members]

                def compatible(combo):
                    for i, j in below:
                        keep = [sorted(members[i], key=repr).index(x) for x in sorted(members[j], key=repr)]
                        for a, at in enumerate(combo[i].components):
                            if any(combo[j].components[a][tuple(tup[k] for k in keep)] != y for tup, y in at.items()):
                                return False
                    return True

                want = [[t.components for t in combo] for combo in itertools.product(*choices) if compatible(combo)]
                got = ultra._cocones_into(inst, stages, N)
                assert [[c[S].components for S in members] for c in got] == want, (C.name, point, N)
                sizes[min(len(want), 2)] += 1
    assert sizes[0] > 0 and sizes[2] > 0, sizes


def test_categorical_ultraproduct_sizes(cats):
    ONE = cats["ONE"]
    F2 = ps.constant_set_functor(ONE, ("a", "b"))
    F3 = ps.constant_set_functor(ONE, ("x", "y", "z"))
    Q = ultra.categorical_ultraproduct(ONE, [F2, F3], ultra.principal_ultrafilter((0, 1), 0))
    assert Q.total_size() == 2
    Qc = ultra.categorical_ultraproduct(ONE, [F2, F2], ultra.principal_ultrafilter((0, 1), 1))
    assert ps.find_set_functor_iso(Qc, F2) is not None


def test_categorical_matches_component(cats):
    PAR = cats["PAR"]
    F = hom_functor(PAR, 0)
    G = hom_functor(PAR, 1)
    Q = ultra.categorical_ultraproduct(PAR, [F, G], ultra.principal_ultrafilter((0, 1), 1))
    assert ps.find_set_functor_iso(Q, G) is not None


def test_principal_ultraproduct_of_flat_functors_is_flat(cats):
    for name in ("PAR", "DISC2", "Z2"):
        C = cats[name]
        flats = [F for F in ps.enumerate_set_functors(C, 2) if fl.is_flat_set_valued(F).flat][:3]
        for F in flats:
            for G in flats:
                Q = ultra.categorical_ultraproduct(C, [F, G], ultra.principal_ultrafilter((0, 1), 0))
                assert fl.is_flat_set_valued(Q).flat, (name, F.values, G.values)


def test_closure_check_on_pretopos_representables(cats):
    PAR = cats["PAR"]
    E = cp.direct_pretopos(PAR, cp.Bounds(max_arity=2))
    cat = E.as_category()
    reps = [E.find_object(ps.yoneda(PAR, a)) for a in range(2)]
    inst = ultra.UltraInstance(cat, tuple(reps), ultra.principal_ultrafilter((0, 1), 0))
    rep = ultra.closure_check(cat, reps, inst)
    assert rep.passed and rep.subcategory_object == reps[0]


def test_closure_check_density_failure(cats):
    DISC2 = cats["DISC2"]
    inst = ultra.UltraInstance(DISC2, (0, 0), ultra.principal_ultrafilter((0, 1), 0))
    with pytest.raises(DensityUnverified):
        ultra.closure_check(DISC2, [0], inst)


def test_closure_check_whole_category_vacuous(cats):
    Z2 = cats["Z2"]
    inst = ultra.UltraInstance(Z2, (0, 0), ultra.principal_ultrafilter((0, 1), 0))
    rep = ultra.closure_check(Z2, [0], inst)
    assert rep.passed


def test_ultrafilter_members_sorted_on_construction():
    U = ultra.principal_ultrafilter(("x0", "x1", "x2"), "x1")
    assert U.members == ultra._sorted_members(U.members)
    assert [len(S) for S in U.members] == [1, 2, 2, 3]
    # built directly, in any order, the members come out the same
    shuffled = ultra.Ultrafilter(U.ground, tuple(reversed(U.members)), U.principal_point)
    assert shuffled.members == U.members and shuffled == U
    # so no member contains a later one, which the cocone search relies on
    assert not any(T < S for i, S in enumerate(U.members) for T in U.members[i + 1:])


def _counting_stages(monkeypatch) -> list:
    built = []
    stage_presheaves = ultra._stage_presheaves
    monkeypatch.setattr(ultra, "_stage_presheaves", lambda inst: built.append(inst) or stage_presheaves(inst))
    return built


def test_ultraproduct_computed_once_per_instance(cats, monkeypatch):
    built = _counting_stages(monkeypatch)
    # a fresh copy, whose cache no earlier test has filled
    H = fc.validate_category(fc.category_to_json(cats["SPLIT"]))
    inst = ultra.UltraInstance(H, (0, 1, 2), ultra.principal_ultrafilter((0, 1, 2), 1))
    uu = ultra.universal_ultraproduct(inst)
    assert len(built) == 1 and uu.obj == 1
    # an equal instance, and the closure check over every object in order,
    # whose full subcategory is the host itself, build no second stage
    again = ultra.UltraInstance(H, (0, 1, 2), ultra.principal_ultrafilter((0, 1, 2), 1))
    assert ultra.universal_ultraproduct(again) is uu
    rep = ultra.closure_check(H, list(range(H.n_objects)), inst)
    assert rep.passed and rep.subcategory_object == 1 and len(built) == 1
    # another family or ultrafilter is another instance
    ultra.universal_ultraproduct(ultra.UltraInstance(H, (0, 1, 2), ultra.principal_ultrafilter((0, 1, 2), 0)))
    assert len(built) == 2


def test_proper_subcategory_computes_its_own_ultraproduct(cats, monkeypatch):
    built = _counting_stages(monkeypatch)
    PAR = cats["PAR"]
    E = cp.direct_pretopos(PAR, cp.Bounds(max_arity=2))
    cat = E.as_category()
    reps = [E.find_object(ps.yoneda(PAR, a)) for a in range(2)]
    inst = ultra.UltraInstance(cat, tuple(reps), ultra.principal_ultrafilter((0, 1), 0))
    ultra.universal_ultraproduct(inst)
    rep = ultra.closure_check(cat, reps, inst)
    assert rep.passed and rep.subcategory_object == reps[0]
    assert [b.host is cat for b in built] == [True, False]
    assert built[1].host.n_objects == len(reps)


def test_ultraproduct_memo_dies_with_its_host(cats):
    H = fc.validate_category(fc.category_to_json(cats["Z2"]))
    uu = ultra.universal_ultraproduct(ultra.UltraInstance(H, (0, 0), ultra.principal_ultrafilter((0, 1), 0)))
    refs = [weakref.ref(H), weakref.ref(uu)]
    del H, uu
    gc.collect()
    assert all(ref() is None for ref in refs)
