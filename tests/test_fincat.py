from __future__ import annotations

import collections
import dataclasses
import gc
import hashlib
import itertools
import json
import random
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from catengine import completions as cp
from catengine import corpus
from catengine import fincat as fc
from catengine import ultra
from catengine import virtlim as vl
from catengine.errors import (
    AssociativityViolation,
    IdentityViolation,
    MissingComposite,
    ValidationError,
)
from conftest import hom_functor


def test_validate_one_and_par(cats):
    assert cats["ONE"].n_morphisms == 1
    assert cats["PAR"].hom(0, 1) == (2, 3)


def test_missing_composite_reported():
    raw = {
        "objects": ["A", "B"],
        "morphisms": [
            {"id": "1A", "src": "A", "tgt": "A"},
            {"id": "1B", "src": "B", "tgt": "B"},
            {"id": "u", "src": "A", "tgt": "B"},
            {"id": "v", "src": "A", "tgt": "B"},
        ],
        "identities": {"A": "1A", "B": "1B"},
        "compose": [],
    }
    with pytest.raises(MissingComposite) as exc:
        fc.validate_category(raw, infer_identities=False)
    assert "1A" in exc.value.witness or "1B" in exc.value.witness


def test_missing_nonidentity_composite():
    raw = corpus.load("CHAIN3")
    data = fc.category_to_json(raw)
    data["compose"] = []  # drop f12∘f01
    with pytest.raises(MissingComposite) as exc:
        fc.validate_category(data)
    assert exc.value.witness == ("f12", "f01")


def test_identity_violation_reported():
    raw = {
        "objects": ["A", "B"],
        "morphisms": [
            {"id": "1A", "src": "A", "tgt": "A"},
            {"id": "1B", "src": "B", "tgt": "B"},
            {"id": "u", "src": "A", "tgt": "B"},
            {"id": "v", "src": "A", "tgt": "B"},
        ],
        "identities": {"A": "1A", "B": "1B"},
        "compose": [{"g": "1B", "f": "u", "result": "v"}],
    }
    with pytest.raises((IdentityViolation, ValidationError)):
        fc.validate_category(raw)


def test_associativity_violation_reported():
    # x∘x = y, y∘x = e, x∘y = x makes (x∘x)∘x ≠ x∘(x∘x)
    raw = {
        "objects": ["*"],
        "morphisms": [
            {"id": "e", "src": "*", "tgt": "*"},
            {"id": "x", "src": "*", "tgt": "*"},
            {"id": "y", "src": "*", "tgt": "*"},
        ],
        "identities": {"*": "e"},
        "compose": [
            {"g": "x", "f": "x", "result": "y"},
            {"g": "y", "f": "x", "result": "e"},
            {"g": "x", "f": "y", "result": "x"},
            {"g": "y", "f": "y", "result": "y"},
        ],
    }
    with pytest.raises(AssociativityViolation) as exc:
        fc.validate_category(raw)
    assert len(exc.value.witness) == 3


def test_reverification_matches_validator(cats):
    # brute-force re-check of all composable triples, independently
    for C in cats.values():
        for f in range(C.n_morphisms):
            for g in range(C.n_morphisms):
                if C.table[g][f] < 0:
                    continue
                for h in range(C.n_morphisms):
                    if C.table[h][g] < 0:
                        continue
                    assert C.table[h][C.table[g][f]] == C.table[C.table[h][g]][f]


def test_opposite_involution(cats):
    for name, C in cats.items():
        op = fc.opposite(C)
        assert fc.opposite(op) == C
        assert fc.opposite(op).name == C.name
    PAR = cats["PAR"]
    op = fc.opposite(PAR)
    assert len(op.hom(1, 0)) == 2


def test_opposite_one_self_dual(cats):
    assert fc.opposite(cats["ONE"]) == cats["ONE"]


def test_opposite_built_once_per_category(cats, monkeypatch):
    C = fc.validate_category(fc.category_to_json(cats["SPLIT"]))
    checked = []
    check = fc.FiniteCategory.check
    monkeypatch.setattr(fc.FiniteCategory, "check", lambda cat: checked.append(cat.name) or check(cat))
    op = fc.opposite(C)
    assert checked == ["SPLIT^op"]  # the first build is validated in full
    assert fc.opposite(C) is op and fc.opposite(op) is C and checked == ["SPLIT^op"]
    assert hom_functor(C, 0).as_presheaf().base is op
    refs = [weakref.ref(C), weakref.ref(op)]
    del C, op
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_elements_category_of_hom_on_par(cats):
    PAR = cats["PAR"]
    El = fc.elements_category(hom_functor(PAR, 0))
    assert El.n_objects == 3
    non_id = [m for m in range(El.n_morphisms) if not El.is_identity(m)]
    assert len(non_id) == 2
    assert all(El.objects[El.src[m]] == "(A,0)" for m in non_id)


def test_elements_of_constant_singleton(cats):
    from catengine import presheaf as ps

    El = fc.elements_category(ps.constant_set_functor(cats["ONE"]))
    assert El.n_objects == 1 and El.n_morphisms == 1
    El2 = fc.elements_category(ps.constant_set_functor(cats["DISC2"]))
    assert El2.n_objects == 2 and El2.n_morphisms == 2


def test_cofiltered_examples(cats):
    assert fc.is_cofiltered(cats["ONE"])
    verdict = fc.is_cofiltered(cats["DISC2"])
    assert not verdict and verdict.witness == ("A", "B")
    El = fc.elements_category(hom_functor(cats["PAR"], 0))
    assert fc.is_cofiltered(El)


def test_representable_elements_cofiltered_everywhere(cats):
    for name, C in cats.items():
        for a in range(C.n_objects):
            assert fc.is_cofiltered(fc.elements_category(hom_functor(C, a))), (name, a)


def test_corpus_cauchy_complete(cats):
    for C in cats.values():
        assert fc.is_cauchy_complete(C)


def _check_trusted_bodies(C: fc.FiniteCategory) -> int:
    """Rebuild with every check the body of each bound-1 sweep diagram and
    of each cospan of ``C``, all built unchecked; returns how many."""
    diagrams = vl.swept_diagrams(C, 1) + [
        fc.cospan_diagram(C, l, r)
        for l in range(C.n_morphisms) for r in range(C.n_morphisms) if C.tgt[l] == C.tgt[r]
    ]
    for D in diagrams:
        assert not D.body.check
        dataclasses.replace(D.body, check=True)
    return len(diagrams)


def test_trusted_diagram_bodies_revalidate_on_corpus(cats):
    assert sum(_check_trusted_bodies(C) for C in cats.values()) == 88
    # the endpoint checks stay
    PAR, ARROW = cats["PAR"], cats["ARROW"]
    with pytest.raises(ValidationError, match="parallel pair"):
        fc.parallel_pair_diagram(PAR, 2, PAR.identity[0])
    with pytest.raises(ValidationError, match="cospan"):
        fc.cospan_diagram(ARROW, 0, 1)


def test_limit_search(cats):
    ARROW, CHAIN3, PAR = cats["ARROW"], cats["CHAIN3"], cats["PAR"]
    assert fc.limit_in_category(fc.pair_diagram(ARROW, 0, 1)).apex == 0
    assert fc.limit_in_category(fc.empty_diagram(CHAIN3)).apex == 2
    assert fc.limit_in_category(fc.parallel_pair_diagram(PAR, 2, 3)) is None


def test_finset_category_counts():
    FS3, decode = fc.finset_category(3)
    assert FS3.n_morphisms == 60
    assert len(list(fc.enumerate_functors(corpus.load("ARROW"), FS3))) == 60


def test_enumerate_functors_respects_functoriality(cats):
    FS2, _ = fc.finset_category(2)
    for F in fc.enumerate_functors(cats["Z2"], FS2):
        assert F.morphism_map[1] != -1  # involution assigned
    # involutions on sets of size <= 2: sizes 0,1 trivial; size 2: id and swap
    assert len(list(fc.enumerate_functors(cats["Z2"], FS2))) == 4


@st.composite
def dag_categories(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mults = draw(st.lists(st.integers(min_value=0, max_value=2), min_size=len(slots), max_size=len(slots)))
    edges = tuple(s for s, m in zip(slots, mults) for _ in range(m))
    from catengine.virtlim import _free_dag_category

    return _free_dag_category(n, edges)


@settings(max_examples=25, deadline=None)
@given(dag_categories())
def test_random_free_categories_validate_and_dualize(C):
    C.check()
    assert fc.opposite(fc.opposite(C)) == C


@settings(max_examples=25, deadline=None)
@given(dag_categories())
def test_trusted_diagram_bodies_revalidate_on_random_dags(C):
    _check_trusted_bodies(C)


@settings(max_examples=15, deadline=None)
@given(dag_categories(), st.integers(min_value=0, max_value=2))
def test_functor_enumeration_images_are_functors(C, n):
    FS, _ = fc.finset_category(n)
    count = 0
    for F in fc.enumerate_functors(C, FS):
        count += 1
        if count > 200:
            break
        # FunctorData with check=False: re-validate explicitly
        fc.FunctorData(C, FS, F.object_map, F.morphism_map)


def test_generator_fallback_for_idempotents():
    # a non-identity idempotent is only expressible through itself, so the
    # generator search must fall back to including it
    raw = {
        "objects": ["*"],
        "morphisms": [
            {"id": "1", "src": "*", "tgt": "*"},
            {"id": "x", "src": "*", "tgt": "*"},
        ],
        "identities": {"*": "1"},
        "compose": [{"g": "x", "f": "x", "result": "x"}],
    }
    M = fc.validate_category(raw)
    FS2, _ = fc.finset_category(2)
    # functors = (set of size <= 2, idempotent endomap): 1 + 1 + 3
    assert len(list(fc.enumerate_functors(M, FS2))) == 5


# -- the universality search -------------------------------------------------


def _opposite_diagram(D: fc.Diagram) -> fc.Diagram:
    shape, target = fc.opposite(D.shape), fc.opposite(D.target)
    return fc.Diagram(shape, fc.FunctorData(shape, target, D.body.object_map, D.body.morphism_map))


def _check_universality(C: fc.FiniteCategory) -> tuple[int, int]:
    """Check every generating diagram of ``C`` against the oracle; returns
    how many diagrams have a limit and how many have none."""
    found = missing = 0
    for D in vl.generating_diagrams(C):
        cones = oracles.enumerate_cones(D)
        expected = next(
            (c for c in cones if all(len(oracles._factorizations(C, e, c)) == 1 for e in cones)), None
        )
        lim = fc.limit_in_category(D)
        assert (lim and (lim.apex, lim.legs)) == expected, (C.name, D.describe())
        colim = fc.colimit_in_category(D)
        dual = fc.limit_in_category(_opposite_diagram(D))
        assert (colim and (colim.apex, colim.legs)) == (dual and (dual.apex, dual.legs)), (C.name, D.describe())
        found += lim is not None
        missing += lim is None
    return found, missing


def test_universality_search_matches_oracle(cats):
    hosts = list(cats.values()) + vl.dag_shapes(2) + [fc.finset_category(2)[0]]
    counts = [_check_universality(C) for C in hosts]
    # both outcomes occur, so neither comparison passes vacuously
    assert sum(f for f, _ in counts) > 0 and sum(m for _, m in counts) > 0


@settings(max_examples=15, deadline=None)
@given(dag_categories())
def test_universality_search_matches_oracle_on_free_categories(C):
    _check_universality(C)


def test_cone_search_order_matches_oracle(cats):
    # all_cones lists cones in the oracle's order: apexes ascending, then
    # itertools.product over the legs; all_cocones lists the cones of the
    # opposite diagram in the same order
    hosts = list(cats.values()) + vl.dag_shapes(2) + [fc.finset_category(2)[0]]
    sizes = collections.Counter()
    for C in hosts:
        for D in vl.generating_diagrams(C):
            cones = [(c.apex, c.legs) for c in fc.all_cones(D)]
            assert cones == oracles.enumerate_cones(D), (C.name, D.describe())
            cocones = [(c.apex, c.legs) for c in fc.all_cocones(D)]
            assert cocones == oracles.enumerate_cones(_opposite_diagram(D)), (C.name, D.describe())
            sizes[min(len(cones), 2)] += 1
            sizes[min(len(cocones), 2)] += 1
    assert sizes[0] > 0 and sizes[2] > 0, sizes


def test_enumerate_functors_order_matches_recursive_oracle(cats):
    # the same functors in the same order as the recursive search it
    # replaced, in order and with the pools shuffled by equally seeded
    # generators, so sampled enumerations draw the same sequence
    targets = list(cats.values()) + [fc.finset_category(2)[0], fc.finset_category(3)[0], fc.EMPTY_SHAPE]
    sizes = collections.Counter()
    for source in list(cats.values()) + [fc.EMPTY_SHAPE]:
        for target in targets:
            for seed in (None, 0, 1, 2):
                rng, oracle_rng = (None, None) if seed is None else (random.Random(seed), random.Random(seed))
                got = [(F.object_map, F.morphism_map) for F in fc.enumerate_functors(source, target, rng=rng)]
                assert got == list(oracles.enumerate_functors_recursive(source, target, oracle_rng)), (
                    source.name, target.name, seed,
                )
                if rng is not None:
                    assert rng.random() == oracle_rng.random()  # both drew the same number of times
                sizes[min(len(got), 2)] += 1
    assert sizes[0] > 0 and sizes[2] > 0, sizes


# -- the search kernel ---------------------------------------------------------


def _brute_force_search(domains, rules, decided):
    """The tuples of ``itertools.product`` over the domains, in its order,
    that meet every pre-decided pair and, for each of their pairs, the
    forcing rule: ``None`` forbids the pair, a list names pairs that must hold."""
    out = []
    for t in itertools.product(*domains):
        if all(t[v] == x for v, x in decided) and all(
            rules.get((v, x), ()) is not None and all(t[w] == y for w, y in rules.get((v, x), ()))
            for v, x in enumerate(t)
        ):
            out.append(t)
    return out


def _kernel_search(domains, rules, decided, limit=None):
    order = range(len(domains))
    found = fc.backtrack(order, domains.__getitem__, lambda v, x, _: rules.get((v, x), ()), decided)
    return [tuple(a[v] for v in order) for a in itertools.islice(found, limit)]


@st.composite
def search_problems(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    domains = [draw(st.lists(st.integers(min_value=0, max_value=2), unique=True, max_size=3)) for _ in range(n)]
    pairs = [(v, x) for v in range(n) for x in domains[v]]
    rules = {}
    for pair in pairs:
        kind = draw(st.sampled_from(("free", "force", "forbid")))
        if kind == "forbid":
            rules[pair] = None
        elif kind == "force":
            rules[pair] = draw(st.lists(st.sampled_from(pairs), max_size=2))
    decided = draw(st.lists(st.sampled_from(pairs), max_size=2)) if pairs else []
    return domains, rules, decided


@settings(max_examples=300, deadline=None)
@given(search_problems(), st.integers(min_value=0, max_value=3))
# zero variables: one empty solution
@example(([], {}, []), 0)
# a forced chain 0=0 -> 1=1 -> 2=0, pruning the product to two solutions
@example(([[0, 1], [0, 1], [0, 1]], {(0, 0): [(1, 1)], (1, 1): [(2, 0)]}, []), 1)
# a clash: 0=0 forces 1 to both values
@example(([[0, 1], [0, 1]], {(0, 0): [(1, 0), (1, 1)]}, []), 0)
# a pre-decided variable that forces another, and clashing pre-decisions
@example(([[0, 1], [0, 1], [0, 1]], {(1, 0): [(2, 1)]}, [(1, 0)]), 1)
@example(([[0, 1], [0, 1]], {}, [(0, 0), (0, 1)]), 0)
def test_backtrack_matches_filtered_product(problem, limit):
    # the kernel lists exactly the consistent tuples of the product of the
    # domains, in product order, and stops early when drawn no further
    domains, rules, decided = problem
    want = _brute_force_search(domains, rules, decided)
    assert _kernel_search(domains, rules, decided) == want
    assert _kernel_search(domains, rules, decided, limit) == want[:limit]


def test_backtrack_examples_are_not_vacuous():
    assert _kernel_search([], {}, []) == [()]
    assert _kernel_search([[0, 1], [0, 1], [0, 1]], {(0, 0): [(1, 1)], (1, 1): [(2, 0)]}, []) == [
        (0, 1, 0), (1, 0, 0), (1, 0, 1), (1, 1, 0),
    ]
    assert _kernel_search([[0, 1], [0, 1]], {(0, 0): [(1, 0), (1, 1)]}, []) == [(1, 0), (1, 1)]
    assert _kernel_search([[0, 1], [0, 1], [0, 1]], {(1, 0): [(2, 1)]}, [(1, 0)]) == [(0, 0, 1), (1, 0, 1)]
    assert _kernel_search([[0, 1], [0, 1]], {}, [(0, 0), (0, 1)]) == []
    # variables decided by propagation may lie outside the order
    found = fc.backtrack([0], lambda v: [0, 1], lambda v, x, _: [("aux", x)] if v == 0 else ())
    assert [dict(a) for a in found] == [{0: 0, "aux": 0}, {0: 1, "aux": 1}]


# -- categories built from arrow tables --------------------------------------

# sha256 of the sorted-key JSON of one fixed output per constructor built on
# fincat.category_from_arrows, recorded before the constructors shared it
ARROW_TABLE_OUTPUTS = {
    "elements_category": (
        lambda cats: fc.elements_category(hom_functor(cats["PAR"], 0)),
        "8acbaf2e18f097a7a083716d6f147e69b89afb86bebaf595b176c7fb72b620a6",
    ),
    "finset_category": (
        lambda cats: fc.finset_category(2)[0],
        "bc312b0f8dabf02d224cdaa7c79c9679c85b3d8205e3f6bbe276dd1a152492ae",
    ),
    "sigma_category": (
        lambda cats: ultra.sigma_category(
            ultra.UltraInstance(cats["PAR"], (0, 1), ultra.principal_ultrafilter((0, 1), 1))
        )[0],
        "338624d232d2ce377335ee5a83a09544a8409cbfdda538383d8157311458b759",
    ),
    "member_poset": (
        lambda cats: ultra._member_poset(ultra.principal_ultrafilter((0, 1, 2), 1)),
        "456a566b7c686d8f2b48141fee3621bc7f5d48c36acfe8d78edd0544400c6051",
    ),
    "comma_diagram": (
        lambda cats: ultra._comma_diagram(cats["PAR"], (0, 1), 1)[0].shape,
        "b2d60029c7d463a8c760f4c4571ca7c5d2ad27b1e32d58ccc2a3d8cb7dc175b7",
    ),
    "as_category": (
        lambda cats: cp.fam_f(cats["ARROW"], 2).as_category(),
        "042e0adf711cfb6a757e846d2206bbfa0f1f7f637167ea012f3127f24f534b5a",
    ),
    "free_dag_category": (
        lambda cats: vl._free_dag_category(3, ((0, 1), (0, 1), (1, 2), (0, 2))),
        "ba63c46f31c653c452b16962281712ed25fcf236c9c5f00e6256199920bea21c",
    ),
}


@pytest.mark.parametrize("constructor", sorted(ARROW_TABLE_OUTPUTS))
def test_arrow_table_constructors_pinned(cats, constructor):
    build, digest = ARROW_TABLE_OUTPUTS[constructor]
    data = json.dumps(fc.category_to_json(build(cats)), sort_keys=True).encode()
    assert hashlib.sha256(data).hexdigest() == digest


def _assert_dataclass_hash(C: fc.FiniteCategory) -> None:
    # set and dict orders over categories, and so report bytes, rest on it
    assert hash(C) == hash((C.objects, C.morphisms, C.src, C.tgt, C.identity, C.table)) == hash(C)
    twin = fc.FiniteCategory.build(C.objects, C.morphisms, C.src, C.tgt, C.identity, C.table, name="twin")
    assert twin is not C and twin == C and hash(twin) == hash(C)


def test_cached_hash_is_the_dataclass_hash_on_corpus(cats):
    for C in cats.values():
        _assert_dataclass_hash(C)


@settings(max_examples=25, deadline=None)
@given(dag_categories())
def test_cached_hash_is_the_dataclass_hash_on_random_dags(C):
    _assert_dataclass_hash(C)


def _assert_diagram_hashes(C: fc.FiniteCategory) -> None:
    # the flatness memos and the virtual-limit cache are keyed by diagrams
    for d in vl.swept_diagrams(C, 1):
        assert hash(d) == hash((d.shape, d.body)) == hash(d)
        twin = fc.Diagram(d.shape, d.body)
        assert twin is not d and twin == d and hash(twin) == hash(d)


def test_cached_diagram_hash_is_the_dataclass_hash_on_corpus(cats):
    for C in cats.values():
        _assert_diagram_hashes(C)


@settings(max_examples=25, deadline=None)
@given(dag_categories())
def test_cached_diagram_hash_is_the_dataclass_hash_on_random_dags(C):
    _assert_diagram_hashes(C)
