from __future__ import annotations

import collections
import re

import pytest
from hypothesis import given, settings

from catengine import completions as cp
from catengine import fincat as fc
from catengine import presheaf as ps
from catengine import virtlim as vl
from catengine.errors import FiberCapExceeded
from test_fincat import dag_categories
import oracles


def test_virtual_limit_weights(cats):
    PAR = cats["PAR"]
    v = vl.virtual_limit(PAR, fc.empty_diagram(PAR))
    assert v.weight.fiber_sizes() == (1, 1)
    v2 = vl.virtual_limit(PAR, fc.pair_diagram(PAR, 0, 1))
    assert v2.weight.fiber_sizes() == (2, 0)
    v3 = vl.virtual_limit(PAR, fc.parallel_pair_diagram(PAR, 2, 3))
    assert v3.weight.fiber_sizes() == (0, 0)


def test_cone_index_is_bijective(cats):
    C = cats["SPLIT"]
    v = vl.virtual_limit(C, fc.pair_diagram(C, 0, 1))
    assert len(v.cone_index) == v.weight.total_size()
    for (c, w), cone in v.cone_index.items():
        assert cone.apex == c and tuple(cone.legs) == tuple(w)


def test_weak_limit_examples(cats):
    PAR = cats["PAR"]
    obj, cone = vl.weak_limit(vl.virtual_limit(PAR, fc.empty_diagram(PAR)))
    assert PAR.objects[obj] == "B"
    assert vl.weak_limit(vl.virtual_limit(PAR, fc.parallel_pair_diagram(PAR, 2, 3))) is None
    # an actual limit comes back as the weak limit
    ARROW = cats["ARROW"]
    obj, _ = vl.weak_limit(vl.virtual_limit(ARROW, fc.pair_diagram(ARROW, 0, 1)))
    assert ARROW.objects[obj] == "A"


def test_multilimit_examples(cats):
    DISC2, PAR = cats["DISC2"], cats["PAR"]
    fam = vl.multilimit(vl.virtual_limit(DISC2, fc.empty_diagram(DISC2)))
    assert [DISC2.objects[c] for c, _ in fam] == ["A", "B"]
    fam2 = vl.multilimit(vl.virtual_limit(PAR, fc.pair_diagram(PAR, 0, 1)))
    assert [PAR.objects[c] for c, _ in fam2] == ["A", "A"]
    assert vl.multilimit(vl.virtual_limit(PAR, fc.empty_diagram(PAR))) is None


def test_fc_limit_examples(cats):
    PAR = cats["PAR"]
    fam = vl.fc_limit(vl.virtual_limit(PAR, fc.empty_diagram(PAR)))
    assert [PAR.objects[c] for c, _ in fam] == ["B"]
    assert vl.fc_limit(vl.virtual_limit(PAR, fc.parallel_pair_diagram(PAR, 2, 3))) == []
    # the canonical family of all cones always covers, so search terminates
    Z2 = cats["Z2"]
    fam2 = vl.fc_limit(vl.virtual_limit(Z2, fc.pair_diagram(Z2, 0, 0)))
    assert len(fam2) == 2


def test_multi_finite_examples(cats):
    DISC2, PAR, ONE = cats["DISC2"], cats["PAR"], cats["ONE"]
    assert vl.multi_finite_limit(vl.virtual_limit(DISC2, fc.empty_diagram(DISC2))) is not None
    assert vl.multi_finite_limit(vl.virtual_limit(PAR, fc.empty_diagram(PAR))) is None
    fam = vl.multi_finite_limit(vl.virtual_limit(ONE, fc.pair_diagram(ONE, 0, 0)))
    assert [ONE.objects[c] for c, _ in fam] == ["*"]


def test_polylimit_examples(cats):
    Z2, PAR = cats["Z2"], cats["PAR"]
    fam = vl.polylimit(vl.virtual_limit(Z2, fc.pair_diagram(Z2, 0, 0)))
    assert len(fam) == 2
    assert all(len(m.automorphisms) == 1 for m in fam)  # trivial groups
    poly_t = vl.polylimit(vl.virtual_limit(Z2, fc.empty_diagram(Z2)))
    assert len(poly_t) == 1 and len(poly_t[0].automorphisms) == 2
    assert vl.polylimit(vl.virtual_limit(PAR, fc.empty_diagram(PAR))) is None


def test_polylimit_rejects_non_free_automorphisms():
    # Aut(T) = {1, s} fixes the only arrow h: E -> T, so factorizations
    # through T are not unique up to a unique automorphism
    C = fc.validate_category({
        "name": "FIXED",
        "objects": ["E", "T"],
        "morphisms": [
            {"id": "1E", "src": "E", "tgt": "E"}, {"id": "1T", "src": "T", "tgt": "T"},
            {"id": "s", "src": "T", "tgt": "T"}, {"id": "h", "src": "E", "tgt": "T"},
        ],
        "identities": {"E": "1E", "T": "1T"},
        "compose": [{"g": "s", "f": "s", "result": "1T"}, {"g": "s", "f": "h", "result": "h"}],
    })
    empty = fc.empty_diagram(C)
    assert vl.polylimit(vl.virtual_limit(C, empty)) is None
    assert not oracles.polylimit_exists(empty)


def test_multilimit_implies_trivial_polylimit(cats):
    for name, C in cats.items():
        for diagram in vl.generating_diagrams(C):
            v = vl.virtual_limit(C, diagram)
            ml = vl.multilimit(v)
            if ml is not None:
                poly = vl.polylimit(v)
                assert poly is not None, (name, diagram.describe())
                assert all(len(m.automorphisms) == 1 for m in poly)


def test_weak_iff_fc_singleton(cats):
    # a weak limit is exactly a single-cone cover; the empty cover happens
    # exactly when there are no cones at all (and then no weak limit either)
    for name, C in cats.items():
        for diagram in vl.generating_diagrams(C):
            v = vl.virtual_limit(C, diagram)
            weak = vl.weak_limit(v) is not None
            fcf = vl.fc_limit(v)
            assert weak == (len(fcf) == 1), (name, diagram.describe())
            if len(fcf) == 0:
                assert v.weight.total_size() == 0


def test_detectors_agree_with_brute_force_oracle(cats):
    for name, C in cats.items():
        for diagram in vl.generating_diagrams(C):
            v = vl.virtual_limit(C, diagram)
            assert (vl.weak_limit(v) is not None) == oracles.weak_limit_exists(diagram), (
                name, diagram.describe(), "weak",
            )
            assert (vl.multilimit(v) is not None) == oracles.multilimit_exists(diagram), (
                name, diagram.describe(), "multi",
            )
            assert len(vl.fc_limit(v)) == oracles.fc_minimum_size(diagram), (
                name, diagram.describe(), "fc",
            )
            assert (vl.polylimit(v) is not None) == oracles.polylimit_exists(diagram), (
                name, diagram.describe(), "poly",
            )


def test_detectors_agree_with_oracle_on_swept_shapes(cats):
    # beyond the generating shapes: every diagram on a free shape of size 2,
    # over the whole corpus, against all four definitional oracles
    for name, C in cats.items():
        for diagram in vl.swept_diagrams(C, 2):
            v = vl.virtual_limit(C, diagram)
            assert (vl.weak_limit(v) is not None) == oracles.weak_limit_exists(diagram), (
                name, diagram.describe(),
            )
            assert (vl.multilimit(v) is not None) == oracles.multilimit_exists(diagram), (
                name, diagram.describe(),
            )
            assert len(vl.fc_limit(v)) == oracles.fc_minimum_size(diagram), (
                name, diagram.describe(),
            )
            assert (vl.polylimit(v) is not None) == oracles.polylimit_exists(diagram), (
                name, diagram.describe(),
            )


def test_multilimit_cover_verified_against_coproduct(cats):
    # multilimit() internally verifies via find_iso; re-check one instance here
    PAR = cats["PAR"]
    v = vl.virtual_limit(PAR, fc.pair_diagram(PAR, 0, 1))
    fam = vl.multilimit(v)
    cover = ps.coproduct(PAR, [ps.yoneda(PAR, c) for c, _ in fam]).apex
    assert ps.find_iso(v.weight, cover) is not None


def test_classify_completeness(cats):
    r = vl.classify_completeness(cats["PAR"], "weak")
    assert not r.passed and r.witness == "[A,B|u,v]"
    assert any(rec[0] == "[A,B|u,v]" and not rec[1] for rec in r.records)
    assert vl.classify_completeness(cats["DISC2"], "multifinite").passed
    assert vl.classify_completeness(cats["SPLIT"], "multifinite").passed
    z2 = vl.classify_completeness(cats["Z2"], "multi")
    assert not z2.passed and z2.witness == "empty"
    # the nugget behind the headline: products and equalizers both decompose
    product_rec = [rec for rec in z2.records if rec[0] == "[*,*]" and "|" not in rec[0]]
    assert all(rec[1] for rec in product_rec)
    assert vl.classify_completeness(cats["Z2"], "poly").passed
    assert vl.classify_completeness(cats["ARROW"], "weak").passed
    assert vl.classify_completeness(cats["CHAIN3"], "weak", bound=2).passed
    for name, C in cats.items():
        assert vl.classify_completeness(C, "fc").passed, name


def test_weight_elements_category_matches_arrow_data(cats):
    PAR = cats["PAR"]
    v = vl.virtual_limit(PAR, fc.pair_diagram(PAR, 0, 1))
    El = vl.weight_elements_category(v)
    assert El.n_objects == len(v.elements())
    # arrow counts agree with the raw factorization data
    total_raw = sum(len(v.arrows(e1, e2)) for e1 in v.elements() for e2 in v.elements())
    assert El.n_morphisms == total_raw


def test_presheaf_components_match_breadth_first_search(cats):
    # presheaf.components links elements along a presheaf's actions; the
    # oracle links two elements of a weight when an arrow of its category of
    # elements joins them, and both give the components in element order
    sizes = collections.Counter()
    for name, C in cats.items():
        for diagram in vl.swept_diagrams(C, 2):
            v = vl.virtual_limit(C, diagram)
            elems = v.elements()
            linked = [(e1, e2) for e1 in elems for e2 in elems if v.arrows(e1, e2)]
            want = [sorted(comp, key=elems.index) for comp in oracles.connected_components(elems, linked)]
            got = [[(c, w) for c in range(C.n_objects) for w in keep[c]] for keep in ps.components(v.weight)]
            assert got == sorted(want, key=lambda comp: elems.index(comp[0])), (name, diagram.describe())
            sizes[min(len(want), 2)] += 1
    assert sizes[0] and sizes[1] and sizes[2], sizes


def _pairwise_components(v: vl.VirtualLimit) -> list[list[tuple[int, tuple]]]:
    # the referee pairs every two elements that an arrow of the category of
    # elements joins either way, and lists the classes in element order
    elems = v.elements()
    linked = [
        (e1, e2)
        for i, e1 in enumerate(elems)
        for e2 in elems[i + 1:]
        if v.arrows(e1, e2) or v.arrows(e2, e1)
    ]
    reps, class_of = ps._classes(elems, linked)
    comps: dict = {rep: [] for rep in reps}
    for e in elems:
        comps[class_of[e]].append(e)
    return list(comps.values())


def _check_components(C: fc.FiniteCategory, seen: collections.Counter) -> None:
    for diagram in vl.swept_diagrams(C, 2):
        try:
            v = vl.virtual_limit(C, diagram)
        except FiberCapExceeded:
            seen["over the fiber cap"] += 1
            continue
        want = _pairwise_components(v)
        assert v.components() == want, (C.name, diagram.describe())
        seen[min(len(want), 2)] += 1


def test_components_match_pairwise_referee(cats):
    # the corpus, and two completions with larger weights: fam_f(Z2, 2) has
    # two swept diagrams whose weight is over the fiber cap
    seen = collections.Counter()
    for C in [*cats.values(), cp.direct_pretopos(cats["ARROW"]).as_category(), cp.fam_f(cats["Z2"], 2).as_category()]:
        _check_components(C, seen)
    assert seen[0] and seen[1] and seen[2] and seen["over the fiber cap"] == 2, seen
    assert sum(seen.values()) == 633, seen


def test_components_match_pairwise_referee_on_random_dags():
    seen = collections.Counter()

    @settings(max_examples=25, deadline=None)
    @given(dag_categories())
    def check(C):
        _check_components(C, seen)

    check()
    assert seen[2] > 0, seen


def test_fc_and_poly_agree_with_oracle_on_swept_z2(cats):
    Z2 = cats["Z2"]
    for diagram in vl.swept_diagrams(Z2, 2):
        v = vl.virtual_limit(Z2, diagram)
        assert len(vl.fc_limit(v)) == oracles.fc_minimum_size(diagram), diagram.describe()
        assert (vl.polylimit(v) is not None) == oracles.polylimit_exists(diagram), diagram.describe()


def test_multilimit_and_fc_covers_align(cats):
    # with a multilimit present, the minimal fc family has one member per
    # component too, and the multilimit family itself is a covering family
    # whose induced map is an isomorphism (checked inside multilimit())
    for name, C in cats.items():
        for diagram in vl.swept_diagrams(C, 2):
            v = vl.virtual_limit(C, diagram)
            ml = vl.multilimit(v)
            if ml is None:
                continue
            fcf = vl.fc_limit(v)
            assert len(fcf) == len(ml) == len(v.components()), (name, diagram.describe())


MEMOISED_DETECTORS = (vl.weak_limit, vl.multilimit, vl.fc_limit, vl.polylimit)


def test_detectors_memoised_per_virtual_limit(cats, monkeypatch):
    calls = []
    find_iso = ps.find_iso
    monkeypatch.setattr(ps, "find_iso", lambda M, N: calls.append(1) or find_iso(M, N))
    DISC2 = cats["DISC2"]
    v = vl.virtual_limit(DISC2, fc.empty_diagram(DISC2))
    fresh = vl.VirtualLimit(v.diagram, v.weight, v.cone_index)
    first = vl.multilimit(fresh)
    assert first is not None and len(calls) == 1
    assert vl.multilimit(fresh) is first and vl.multi_finite_limit(fresh) is first
    assert len(calls) == 1
    for detector in MEMOISED_DETECTORS:
        assert detector(fresh) is detector(fresh), detector.__name__


def test_memoised_detectors_match_direct_computation(cats):
    # a memo keyed by anything coarser than the virtual limit would hand one
    # diagram's answer to another
    for name, C in cats.items():
        for diagram in vl.generating_diagrams(C):
            v = vl.virtual_limit(C, diagram)
            for detector in MEMOISED_DETECTORS:
                fresh = vl.VirtualLimit(v.diagram, v.weight, v.cone_index)
                assert detector(v) == detector.__wrapped__(fresh), (name, diagram.describe(), detector.__name__)


def test_sweeps_are_fresh_lists(cats):
    C = fc.validate_category(fc.category_to_json(cats["PAR"]))
    swept = vl.swept_diagrams(C, 1)
    generating = vl.generating_diagrams(C)
    expected_swept, expected_generating = list(swept), list(generating)
    assert len(expected_generating) < len(expected_swept)
    swept.clear()
    generating.append(generating[0])
    assert vl.generating_diagrams(C) == expected_generating
    assert vl.swept_diagrams(C, 1) == expected_swept
    assert vl.swept_diagrams(C, 1)[: len(expected_generating)] == expected_generating


def _check_fc_limits(C, diagrams, seen, max_elements=None):
    """``fc_limit`` returns the subset search's family, objects and cones in
    order, on every diagram whose weight has at most ``max_elements``
    elements; ``seen`` counts the weights with more than one maximal class
    and those whose family could swap a member for a peer."""
    for diagram in diagrams:
        v = vl.virtual_limit(C, diagram)
        if max_elements is not None and len(v.elements()) > max_elements:
            seen["skipped"] += 1
            continue
        family = vl.fc_limit(v)
        assert family == oracles.fc_limit_by_subsets(v), (C.name, diagram.describe())
        seen["several classes"] += len(family) > 1
        members = [(c, tuple(cone.legs)) for c, cone in family]
        seen["a class with peers"] += any(
            e != m and v.arrows(e, m) and v.arrows(m, e) for m in members for e in v.elements()
        )


def test_fc_limit_matches_subset_search_on_corpus(cats):
    seen = collections.Counter()
    for C in cats.values():
        _check_fc_limits(C, vl.swept_diagrams(C, 1), seen)
    assert seen["several classes"] > 0 and seen["a class with peers"] > 0, seen


def test_fc_limit_matches_subset_search_on_random_dags():
    seen = collections.Counter()

    @settings(max_examples=40, deadline=None)
    @given(dag_categories())
    def check(C):
        # the subset search scans up to 2**14 subsets; the free category on
        # 0->1, 0->1, 0->2, 0->2, 1->2, 1->2 has a 41-element weight whose
        # 29 classes would take it 2e12
        _check_fc_limits(C, vl.swept_diagrams(C, 1), seen, max_elements=14)

    check()
    assert seen["several classes"] > 0, seen


def test_fc_limit_matches_subset_search_on_completions(cats):
    # larger weights: up to 21 elements on the fam_f category
    seen = collections.Counter()
    for E in (cp.fam_f(cats["ONE"], 2), cp.direct_pretopos(cats["ARROW"])):
        C = E.as_category()
        _check_fc_limits(C, vl.generating_diagrams(C), seen)
    assert seen["several classes"] > 0, seen


# -- virtual limits from the composition table ---------------------------------


def _weight_or_cap(build):
    """A weight's name, values and actions in dict order, or the message of
    the ``FiberCapExceeded`` that building it raised."""
    try:
        W = build()
    except FiberCapExceeded as exc:
        return str(exc)
    return W.name, W.values, [list(act.items()) for act in W.actions]


def _check_weights(C, diagrams, seen, monkeypatch):
    """``virtual_limit`` computed afresh reproduces the presheaf-limit
    construction on every diagram, the cone index included."""
    monkeypatch.setattr(vl, "_VL_CACHE", {})
    for diagram in diagrams:
        got = _weight_or_cap(lambda: vl.virtual_limit(C, diagram).weight)
        assert got == _weight_or_cap(lambda: oracles.virtual_limit_by_presheaf_limit(C, diagram)), (
            C.name, diagram.describe())
        if isinstance(got, str):
            seen["cap"] += 1
            continue
        seen["weights"] += 1
        seen["elements"] += sum(map(len, got[1]))
        v = vl.virtual_limit(C, diagram)
        assert list(v.cone_index) == v.elements()


def test_virtual_limit_matches_presheaf_limit_on_corpus(cats, monkeypatch):
    seen = collections.Counter()
    for C in cats.values():
        _check_weights(C, vl.swept_diagrams(C, 1), seen, monkeypatch)
    assert seen["weights"] > 40 and seen["elements"] > 60, seen


def test_virtual_limit_matches_presheaf_limit_on_random_dags(monkeypatch):
    seen = collections.Counter()

    @settings(max_examples=25, deadline=None)
    @given(dag_categories())
    def check(C):
        _check_weights(C, vl.swept_diagrams(C, 1), seen, monkeypatch)

    check()
    assert seen["weights"] > 100, seen


def test_virtual_limit_matches_presheaf_limit_on_completions(cats, monkeypatch):
    # two of the pretopos hosts have a weight over the fiber cap, which must
    # raise with the same message
    seen = collections.Counter()
    builds = [cp.fam_f(cats["ONE"], 2), cp.direct_pretopos(cats["ARROW"])] + [
        cp.direct_pretopos(cats[name], cp.Bounds(max_arity=2)) for name in ("PAR", "Z2", "SPLIT")
    ]
    for E in builds:
        C = E.as_category()
        _check_weights(C, vl.generating_diagrams(C), seen, monkeypatch)
    assert seen["weights"] > 200 and seen["cap"] == 2, seen


def test_virtual_limit_over_the_fiber_cap_raises_as_before(cats, monkeypatch):
    monkeypatch.setattr(vl, "_VL_CACHE", {})
    C = cp.fam_f(cats["Z2"], 2).as_category()
    diagram = fc.pair_diagram(C, 2, 2)
    message = "value set of size 256 exceeds cap 64 in presheaf lim Y[M2,M2]"
    with pytest.raises(FiberCapExceeded, match=re.escape(message)):
        vl.virtual_limit(C, diagram)
    with pytest.raises(FiberCapExceeded, match=re.escape(message)):
        oracles.virtual_limit_by_presheaf_limit(C, diagram)
    assert diagram not in vl._VL_CACHE


# -- the sweep's fiber cap, decided before any weight is built -----------------


def _fresh(C: fc.FiniteCategory) -> fc.FiniteCategory:
    """A copy of ``C`` with nothing kept in its cache."""
    return fc.validate_category(fc.category_to_json(C))


def _classify_or_cap(classify):
    try:
        return classify().to_json()
    except FiberCapExceeded as exc:
        return str(exc)


def _classify_by_sweep(C, mode, bound):
    """``classify_completeness`` as it ran before the fiber cap was decided
    first: each diagram's weight built and classified in sweep order."""
    diagrams = vl.swept_diagrams(C, bound) if bound > 0 else vl.generating_diagrams(C)
    records = []
    for diagram in diagrams:
        ok, data = vl._detect(mode, vl.virtual_limit(C, diagram))
        records.append((diagram.describe(), ok, len(data) if isinstance(data, list) else (1 if data else 0)))
    witness = next((d for d, ok, _ in records if not ok), None)
    return vl.CompletenessReport(C.name, mode, bound, witness is None, witness, tuple(records))


def _fans() -> fc.FiniteCategory:
    """Objects A, B, C with 65 arrows A -> C listed before 65 arrows A -> B,
    and nothing else but identities: both ``Y(B)`` and ``Y(C)`` pass the
    fiber cap, and no weight does."""
    arrows = [{"id": "1A", "src": "A", "tgt": "A"}]
    arrows += [{"id": f"c{k}", "src": "A", "tgt": "C"} for k in range(65)]
    arrows += [{"id": f"b{k}", "src": "A", "tgt": "B"} for k in range(65)]
    arrows += [{"id": "1B", "src": "B", "tgt": "B"}, {"id": "1C", "src": "C", "tgt": "C"}]
    return fc.validate_category({"name": "fans", "objects": ["A", "B", "C"], "morphisms": arrows,
                                 "identities": {"A": "1A", "B": "1B", "C": "1C"}, "compose": []})


def _check_sweep_raises_as_before(C, seen, monkeypatch):
    for mode in vl.MODES:
        for bound in (0, 1):
            monkeypatch.setattr(vl, "_VL_CACHE", {})
            want = _classify_or_cap(lambda: _classify_by_sweep(_fresh(C), mode, bound))
            monkeypatch.setattr(vl, "_VL_CACHE", {})
            got = _classify_or_cap(lambda: vl.classify_completeness(_fresh(C), mode, bound))
            assert got == want, (C.name, mode, bound)
            seen["cap" if isinstance(got, str) else "report"] += 1


def test_sweep_past_the_fiber_cap_builds_no_weight(cats, monkeypatch):
    # fam_f(Z2, 2) sweeps 139 diagrams that fit before the pair [M2,M2],
    # whose weight has 16 x 16 cones at M2: none of them is built
    C = cp.fam_f(cats["Z2"], 2).as_category()
    message = "value set of size 256 exceeds cap 64 in presheaf lim Y[M2,M2]"
    for mode in vl.MODES:
        for bound in (0, 1):
            monkeypatch.setattr(vl, "_VL_CACHE", {})
            with pytest.raises(FiberCapExceeded, match=re.escape(message)):
                vl.classify_completeness(_fresh(C), mode, bound)
            assert vl._VL_CACHE == {}, (mode, bound)


def test_sweep_raises_where_the_sweep_would(cats, monkeypatch):
    # the report, or the first fiber-cap error, is the one that building and
    # classifying every diagram in order gives: on the corpus, the completion
    # hosts of the benchmark (fam_f(Z2, 2) is over the cap) and a host whose
    # representables pass the cap, where a weak-limit detector builds Y(B)
    # on the empty diagram before the first parallel pair builds Y(C)
    seen = collections.Counter()
    hosts = [*cats.values(), cp.fam_f(cats["ONE"], 2).as_category(),
             cp.direct_pretopos(cats["ARROW"]).as_category(), cp.direct_pretopos(cats["ONE"]).as_category(),
             cp.direct_regular(cats["CHAIN3"]).as_category(), cp.fam_f(cats["Z2"], 2).as_category()]
    for C in hosts:
        _check_sweep_raises_as_before(C, seen, monkeypatch)
    assert seen == {"report": 110, "cap": 10}, seen
    fans = _fans()
    errors = {mode: _classify_or_cap(lambda: vl.classify_completeness(_fresh(fans), mode)) for mode in vl.MODES}
    assert errors == {mode: "value set of size 65 exceeds cap 64 in presheaf Y" + ("B" if mode == "weak" else "C")
                      for mode in vl.MODES}
    _check_sweep_raises_as_before(fans, seen, monkeypatch)


def test_sweep_raises_where_the_sweep_would_on_random_dags(monkeypatch):
    seen = collections.Counter()

    @settings(max_examples=15, deadline=None)
    @given(dag_categories())
    def check(C):
        _check_sweep_raises_as_before(C, seen, monkeypatch)

    check()
    assert seen["report"] > 0, seen


def _cone_counts(diagram) -> list[int]:
    counts = collections.Counter(apex for apex, _ in oracles.enumerate_cones(diagram))
    return [counts[c] for c in range(diagram.target.n_objects)]


def _check_fiber_bounds(C, seen) -> None:
    n = C.n_objects
    hom_sizes = [[len(C.hom(c, x)) for x in range(n)] for c in range(n)]
    for diagram in vl.swept_diagrams(C, 2):
        bounds, counts = vl._weight_fiber_bounds(hom_sizes, diagram), _cone_counts(diagram)
        assert all(b >= k for b, k in zip(bounds, counts)), (C.name, diagram.describe())
        S = diagram.shape
        if all(S.is_identity(s) for s in range(S.n_morphisms)):
            assert bounds == counts, (C.name, diagram.describe())
            seen["discrete"] += 1
        else:
            seen["exact" if bounds == counts else "above"] += 1


def test_weight_fiber_bound_covers_every_weight(cats):
    seen = collections.Counter()
    for C in cats.values():
        _check_fiber_bounds(C, seen)
    assert seen["discrete"] and seen["exact"] and seen["above"], seen


def test_weight_fiber_bound_covers_every_weight_on_random_dags():
    seen = collections.Counter()

    @settings(max_examples=25, deadline=None)
    @given(dag_categories())
    def check(C):
        _check_fiber_bounds(C, seen)

    check()
    assert seen["discrete"] and seen["above"], seen


def test_weight_fiber_bound_on_mutually_inverse_arrows(cats):
    # every vertex of the shape d0 <-> d1 has an arrow into it, yet the
    # cones are the legs at d0; into Z2 with both arrows sent to s there are
    # two, which a bound over vertices with no incoming arrow would put at 1
    iso = fc.validate_category({
        "name": "iso", "objects": ["d0", "d1"],
        "morphisms": [{"id": "1_d0", "src": "d0", "tgt": "d0"}, {"id": "1_d1", "src": "d1", "tgt": "d1"},
                      {"id": "f", "src": "d0", "tgt": "d1"}, {"id": "g", "src": "d1", "tgt": "d0"}],
        "identities": {"d0": "1_d0", "d1": "1_d1"},
        "compose": [{"g": "g", "f": "f", "result": "1_d0"}, {"g": "f", "f": "g", "result": "1_d1"}],
    })
    Z2 = cats["Z2"]
    diagrams = vl.diagrams_of_shape(iso, Z2) + vl.diagrams_of_shape(iso, iso)
    assert len(diagrams) == 6
    for diagram in diagrams:
        C = diagram.target
        hom_sizes = [[len(C.hom(c, x)) for x in range(C.n_objects)] for c in range(C.n_objects)]
        bounds = vl._weight_fiber_bounds(hom_sizes, diagram)
        assert bounds == _cone_counts(diagram) == list(vl.virtual_limit(C, diagram).weight.fiber_sizes())
    assert [vl.virtual_limit(Z2, D).weight.fiber_sizes() for D in diagrams[:2]] == [(2,), (2,)]
