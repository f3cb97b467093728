from __future__ import annotations

import collections
import dataclasses
import gc
import hashlib
import json
import sys
import weakref

import pytest

from catengine import cli
from catengine import fincat as fc
from catengine import presheaf as ps
from catengine import flatness as fl
from catengine import virtlim as vl
from catengine.errors import NoMultiFiniteLimit, NoMultilimit, NoWeakLimit
from conftest import hom_functor
import oracles


def test_representables_flat_both_methods(cats):
    for name, C in cats.items():
        for a in range(C.n_objects):
            F = hom_functor(C, a)
            assert fl.is_flat_set_valued(F).flat, (name, a)
            assert fl.is_flat_via_elements(F).flat, (name, a)


def test_constant_singleton_examples(cats):
    d1 = ps.constant_set_functor(cats["DISC2"])
    v = fl.is_flat_set_valued(d1)
    assert not v.flat and v.failing_weight.diagram == "empty"
    assert not fl.is_flat_via_elements(d1).flat
    assert fl.is_flat_set_valued(ps.constant_set_functor(cats["ONE"])).flat


def test_definitional_comparison_matches_naive_oracle(cats):
    # the recorded comparison sizes replay against independent computations
    DISC2 = cats["DISC2"]
    d1 = ps.constant_set_functor(DISC2)
    diagram = fc.empty_diagram(DISC2)
    v = vl.virtual_limit(DISC2, diagram)
    coend = oracles.coend_classes(v.weight, d1)
    lim = oracles.finset_limit(diagram, d1)
    assert len(coend) == 2 and len(lim) == 1


def test_flat_methods_agree_full_enumeration(cats):
    for name, C in cats.items():
        for F in ps.enumerate_set_functors(C, 2):
            a = fl.is_flat_set_valued(F).flat
            b = fl.is_flat_via_elements(F).flat
            c = fl.fc_continuous(F).flat
            assert a == b == c, (name, F.values)


def test_flat_iff_left_covering_on_weakly_lex(cats, weakly_lex_names):
    for name in weakly_lex_names:
        C = cats[name]
        for F in ps.enumerate_set_functors(C, 2):
            assert fl.is_flat_set_valued(F).flat == fl.left_covering(F).flat, (name, F.values)


def test_left_covering_raises_without_weak_limits(cats):
    with pytest.raises(NoWeakLimit):
        fl.left_covering(ps.constant_set_functor(cats["PAR"]))


def test_left_covering_on_restricted_diagrams(cats):
    PAR = cats["PAR"]
    F = ps.constant_set_functor(PAR)
    diagrams = [fc.empty_diagram(PAR)]
    assert fl.left_covering(F, diagrams=diagrams).flat


def test_flat_iff_multicontinuous_on_multilimit_corpus(cats, multifinite_names):
    for name in multifinite_names:
        C = cats[name]
        for F in ps.enumerate_set_functors(C, 2):
            a = fl.is_flat_set_valued(F).flat
            m = fl.finitely_multicontinuous(F).flat
            mm = fl.merges_multi_finite(F).flat
            assert a == m == mm, (name, F.values)


def test_multicontinuous_raises_without_multilimits(cats):
    with pytest.raises(NoMultilimit):
        fl.finitely_multicontinuous(hom_functor(cats["Z2"], 0))


def test_z2_hom_decomposes_at_the_product(cats):
    Z2 = cats["Z2"]
    F = hom_functor(Z2, 0)
    diag = [fc.pair_diagram(Z2, 0, 0)]
    assert fl.finitely_multicontinuous(F, diagrams=diag).flat  # 2+2 = 2x2


def test_fc_continuous_examples(cats):
    DISC2 = cats["DISC2"]
    d1 = ps.constant_set_functor(DISC2)
    v = fl.fc_continuous(d1)
    assert not v.flat and v.failing_weight.diagram == "[A,B]"
    assert fl.fc_continuous(ps.constant_set_functor(cats["ONE"])).flat
    v2 = fl.merges_multi_finite(d1)
    assert not v2.flat and v2.failing_weight.diagram == "empty"


def test_flat_iff_lex_on_lex_domains(cats):
    for name in ("ARROW", "CHAIN3"):
        C = cats[name]
        for F in ps.enumerate_set_functors(C, 2):
            assert fl.is_flat_set_valued(F).flat == fl.is_lex_set_valued(F).flat, (name, F.values)


def test_general_flatness_agrees_on_point_targets(cats):
    for name in ("PAR", "Z2", "SPLIT"):
        C = cats[name]
        for F in ps.enumerate_set_functors(C, 2):
            assert fl.is_flat_set_valued(F).flat == fl.is_flat(F).flat, (name, F.values)


def test_bounded_sweep_flag(cats):
    # the exhaustive bounded sweep agrees with the generating-shape decision
    # over the whole corpus and every functor at value bound 2
    for name, C in cats.items():
        for F in ps.enumerate_set_functors(C, 2):
            assert fl.is_flat_set_valued(F).flat == fl.is_flat_set_valued(F, bound=2).flat, (
                name, F.values,
            )


def test_constant_at_terminal_into_completion_not_flat(cats):
    # the constant functor at the terminal of the pretopos-style completion
    # of PAR fails flatness at the equalizer weight, just like into sets
    from catengine import completions as cp

    PAR = cats["PAR"]
    E = cp.direct_pretopos(PAR, cp.Bounds(max_arity=2))
    term = E.find_object(ps.terminal_presheaf(PAR))
    T = E.objects[term]
    objs = (T, T)
    ident = ps.identity_nat(T)
    mors = tuple(ident for _ in range(PAR.n_morphisms))
    F = fl.ConcreteFunctor(PAR, PAR, objs, mors, name="const-terminal")
    v = fl.is_flat(F)
    assert not v.flat and v.failing_weight.diagram == "[A,B|u,v]"


# -- the flat census ------------------------------------------------------------

CENSUS_ROUTES = {
    "definitional": fl.is_flat_set_valued,
    "concrete": fl.is_flat,
    "covering": fl.left_covering,
    "multi": fl.finitely_multicontinuous,
    "fc": fl.fc_continuous,
    "merge": fl.merges_multi_finite,
    "lex": fl.is_lex_set_valued,
}


def census_digest(C: fc.FiniteCategory, value_bound: int) -> str:
    """sha256 of every route's verdicts (or the error a route raises) on
    every set functor of ``C`` up to ``value_bound``, at sweeps 0 and 1."""
    functors = list(ps.enumerate_set_functors(C, value_bound))
    record = {"elements/0": [fl.is_flat_via_elements(F).to_json() for F in functors]}
    for sweep in (0, 1):
        for route, fn in CENSUS_ROUTES.items():
            try:
                record[f"{route}/{sweep}"] = [fn(F, bound=sweep).to_json() for F in functors]
            except (NoWeakLimit, NoMultilimit, NoMultiFiniteLimit) as exc:
                record[f"{route}/{sweep}"] = f"{type(exc).__name__}: {exc}"
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


def census_value_bound(name: str) -> int:
    return 3 if name in ("ONE", "ARROW", "DISC2", "Z2") else 2


# equal under PYTHONHASHSEED 0, 1 and 2, and unchanged since set-functor
# conversions and composite diagrams stopped being re-validated
CENSUS_DIGESTS = {
    "ONE": "4087c8719b1fb26ae25673beafe0f2932bfe9377cac5b581f0ec8594c032979c",
    "ARROW": "8babe3b3622029cd872b0017b8b1d386694bf8216d834d6527132f4475a4d47c",
    "PAR": "ef52bb740f7c8dfdab6fc7d0b8736f66b6d7c6774b7f839171eedb1b01760efe",
    "DISC2": "314492edbefd7cc60c9194ab921ca0fa47fd9fb00c7c68e1d56233ac422a89cc",
    "Z2": "4603f038504db3fa816d50e16ce5f461d47feaac56b69970315d888da56e00b2",
    "CHAIN3": "8fb01a677fafd1fdad6a004bb4ef0110a41709b5be81a4be17777b6c406f2ee3",
    "SPLIT": "3a0186da810bf91950c4b701811763d37bca426365ec9f57c1290cbd11228f74",
}


def test_flat_census_pinned(cats):
    got = {name: census_digest(C, census_value_bound(name)) for name, C in cats.items()}
    assert got == CENSUS_DIGESTS


def _maker(frame) -> str:
    """The function that built an object, past ``__init__`` and comprehensions."""
    while frame.f_code.co_name.startswith("<") or frame.f_code.co_name == "__init__":
        frame = frame.f_back
    return frame.f_code.co_name


@pytest.fixture()
def trusted_built(monkeypatch):
    """Rebuild every presheaf, set functor and transformation that the
    engine builds with ``check=False`` with ``check=True`` (the full check),
    and count them by type and by the function that built them."""
    made = collections.Counter()

    def revalidating(post_init):
        def wrapper(self):
            post_init(self)
            if not self.check:
                dataclasses.replace(self, check=True)
                made[type(self).__name__, _maker(sys._getframe(1))] += 1
        return wrapper

    for cls in (ps.Presheaf, ps.SetFunctor, ps.NatTransformation):
        monkeypatch.setattr(cls, "__post_init__", revalidating(cls.__post_init__))
    return made


def test_trusted_images_revalidate(cats, monkeypatch, trusted_built):
    # every functor, composite diagram, presheaf and transformation built
    # without re-validation during the census passes the full check when
    # rebuilt with check=True, and each set functor is converted once, the
    # lex route included
    functors, converted, lex_calls, composites = {}, collections.Counter(), collections.Counter(), [0]
    from_set_functor = fl.ConcreteFunctor.from_set_functor
    composite_limit = fl.composite_limit
    is_lex_set_valued = fl.is_lex_set_valued

    def checked_from_set_functor(cls, F):
        out = from_set_functor(F)
        assert not out.check
        dataclasses.replace(out, check=True)
        functors[id(F)] = F  # kept alive, so that no two functors share an id
        converted[id(F)] += 1
        return out

    def counted_is_lex_set_valued(F, **kwargs):
        lex_calls[id(F)] += 1
        return is_lex_set_valued(F, **kwargs)

    def checked_composite_limit(F, diagram):
        cone = composite_limit(F, diagram)
        assert not cone.diagram.check
        dataclasses.replace(cone.diagram, check=True)
        composites[0] += 1
        return cone

    monkeypatch.setattr(fl.ConcreteFunctor, "from_set_functor", classmethod(checked_from_set_functor))
    monkeypatch.setattr(fl, "composite_limit", checked_composite_limit)
    monkeypatch.setitem(CENSUS_ROUTES, "lex", counted_is_lex_set_valued)
    for name, C in cats.items():
        census_digest(C, census_value_bound(name))
    # the census enumerates 193 set functors and runs every route on each;
    # every route reads the one conversion kept on the functor, except the
    # lex route (230 calls), which decides on the finite sets themselves
    assert len(functors) == 193 and sum(converted.values()) == 193 and sum(lex_calls.values()) == 230
    assert all(converted[f] == 1 for f in functors)
    assert composites[0] > 1000, composites
    # each composite limit and family coproduct is built once per functor
    # and kept in its memo, so (co)limits count in hundreds, not thousands;
    # the exact counts depend on which virtual limits earlier tests cached
    floors = {
        ("Presheaf", "limit"): 500, ("Presheaf", "colimit"): 400,
        ("NatTransformation", "limit"): 600, ("NatTransformation", "colimit"): 400,
        ("Presheaf", "from_set_functor"): 300, ("Presheaf", "weighted_colimit_concrete"): 500,
        ("NatTransformation", "from_set_functor"): 300, ("NatTransformation", "identity_nat"): 1000,
        ("NatTransformation", "is_flat"): 500,
        ("NatTransformation", "comparison_from_cone"): 100, ("NatTransformation", "canonical_from_family"): 1000,
    }
    assert all(trusted_built[kind] >= n for kind, n in floors.items()), trusted_built


def test_preserves_limit_on_sets_matches_concrete_comparison(cats):
    # every census functor against every limit cone the domain has over its
    # bound-1 sweep, with both verdicts seen
    verdicts = collections.Counter()
    for name, C in cats.items():
        cones = [c for c in map(fc.limit_in_category, vl.swept_diagrams(C, 1)) if c is not None]
        for F in ps.enumerate_set_functors(C, census_value_bound(name)):
            for cone in cones:
                got = fl.preserves_limit(F, cone)
                assert got == oracles.preserves_limit_concrete(F, cone), (name, F.values, cone)
                verdicts[got] += 1
            assert F._concrete is None  # the set route converts nothing
    assert verdicts[True] > 500 and verdicts[False] > 500, verdicts


# -- the memo of composite limits and family coproducts ---------------------------


def _fresh_limit(F: fl.ConcreteFunctor, diagram: fc.Diagram) -> ps.PresheafCone:
    """The limit of ``F`` composed with ``diagram``, built with every check."""
    S = diagram.shape
    composite = ps.PresheafDiagram(
        S,
        tuple(F.objects[diagram.vertex(d)] for d in range(S.n_objects)),
        tuple(F.morphisms[diagram.body.morphism_map[s]] for s in range(S.n_morphisms)),
    )
    return ps.limit(composite, base=F.target_base)


def _cone_data(cone: ps.PresheafCone):
    return cone.apex.values, cone.apex.actions, tuple(leg.components for leg in cone.legs)


def test_composite_limit_memo_is_per_functor(cats):
    PAR = cats["PAR"]
    F = hom_functor(PAR, 0)
    d = fc.pair_diagram(PAR, 0, 1)
    conc = fl.ConcreteFunctor.from_set_functor(F)
    lim = fl.composite_limit(conc, d)
    assert fl.composite_limit(conc, d) is lim
    assert fl.composite_limit(conc, fc.pair_diagram(PAR, 0, 1)) is lim  # an equal diagram
    family = [(0, fc.Cone(d, 0, (0, 2))), (0, fc.Cone(d, 0, (0, 3)))]
    assert fl.canonical_from_family(conc, family, lim).source is fl.canonical_from_family(conc, family, lim).source
    # an equal functor keeps a memo of its own
    twin = fl.ConcreteFunctor.from_set_functor(F)
    assert fl.composite_limit(twin, d) is not lim and twin._shared is not conc._shared
    assert _cone_data(fl.composite_limit(twin, d)) == _cone_data(lim)
    # and the memo dies with its functor
    refs = [weakref.ref(conc), weakref.ref(lim), weakref.ref(lim.apex)]
    del conc, lim
    gc.collect()
    assert all(r() is None for r in refs)


def test_census_memo_matches_fresh_limits(cats, monkeypatch):
    # after every census route has run at sweep 1, each functor's memoised
    # composite limits equal limits built afresh with every check, and the
    # routes read limits and coproducts from the memo instead of rebuilding them
    hits = collections.Counter()
    composite_limit, canonical_from_family = fl.composite_limit, fl.canonical_from_family

    def counted_composite_limit(F, diagram):
        hits["limit"] += F._shared is not None and diagram in F._shared
        return composite_limit(F, diagram)

    def counted_canonical_from_family(F, family, lim):
        hits["coproduct"] += F._shared is not None and tuple(c for (c, _) in family) in F._shared
        return canonical_from_family(F, family, lim)

    monkeypatch.setattr(fl, "composite_limit", counted_composite_limit)
    monkeypatch.setattr(fl, "canonical_from_family", counted_canonical_from_family)
    compared = 0
    for name, C in cats.items():
        diagrams = vl.swept_diagrams(C, 1)
        for F in ps.enumerate_set_functors(C, census_value_bound(name)):
            for fn in CENSUS_ROUTES.values():
                try:
                    fn(F, bound=1)
                except (NoWeakLimit, NoMultilimit, NoMultiFiniteLimit):
                    pass
            conc = fl._as_concrete(F)
            for d in diagrams:
                if d in conc._shared:
                    assert _cone_data(conc._shared[d]) == _cone_data(_fresh_limit(conc, d)), (name, d.describe())
                    compared += 1
    assert compared > 500 and hits["limit"] > 1000 and hits["coproduct"] > 500, (compared, hits)


def test_trusted_completion_objects_revalidate(capsys, trusted_built):
    # the completion-side twin: the CHAIN3 fam_f battery builds subpresheaves
    # and relabelled copies and searches hom-sets and isomorphisms; the SPLIT
    # Barr-exact battery takes images and quotients
    assert cli.main(["verify-axioms", "--category", "CHAIN3", "--flavor", "fam_f"]) == 0
    assert cli.main(["verify-axioms", "--category", "SPLIT", "--flavor", "ex"]) == 0
    capsys.readouterr()
    floors = {
        ("Presheaf", "subpresheaf"): 1000, ("Presheaf", "relabel"): 10, ("Presheaf", "quotient_presheaf"): 10,
        ("NatTransformation", "quotient_presheaf"): 10, ("NatTransformation", "epi_mono_factorize"): 10,
        ("NatTransformation", "_nat_search"): 1000,  # the results of hom_set and find_iso
    }
    assert all(trusted_built[kind] >= n for kind, n in floors.items()), trusted_built
