"""Acceptance battery.

One test per criterion; each prints a single pass/fail line (visible with
``pytest -s`` or in the captured output).  All checks are exact: structural
equalities, verified bijections, and isomorphism searches, with no numeric
tolerances anywhere.
"""
from __future__ import annotations

import itertools

from catengine import cli
from catengine import corpus
from catengine import fincat as fc
from catengine import presheaf as ps
from catengine import virtlim as vl
from catengine import flatness as fl
from catengine import completions as cp
from catengine import ultra
from catengine import localize as lz
from catengine.errors import NotWeaklyLex
from conftest import hom_functor

CATS = corpus.all_categories()
WEAKLY_LEX = ("ONE", "ARROW", "CHAIN3")
LEX = ("ARROW", "CHAIN3")


def _verdict(num: int, label: str, ok: bool) -> None:
    print(f"[criterion {num:2d}] {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label}) failed"


def test_criterion_01_representable_flatness():
    ok = True
    for name, C in CATS.items():
        for a in range(C.n_objects):
            F = hom_functor(C, a)
            ok = ok and fl.is_flat_set_valued(F).flat and fl.is_flat_via_elements(F).flat
    _verdict(1, "representables are flat by both tests, all corpus objects", ok)


def test_criterion_02_flat_equals_lex_on_lex_domains():
    ok = True
    for name in LEX:
        C = CATS[name]
        flats, lexes = set(), set()
        for i, F in enumerate(ps.enumerate_set_functors(C, 3)):
            if fl.is_flat_set_valued(F).flat:
                flats.add(i)
            if fl.is_lex_set_valued(F).flat:
                lexes.add(i)
        ok = ok and flats == lexes and len(flats) > 0
    _verdict(2, "flat set equals lex set under full enumeration at bound 3", ok)


def test_criterion_03_flat_equals_left_covering_on_weakly_lex():
    ok = True
    for name in WEAKLY_LEX:
        C = CATS[name]
        for F in ps.enumerate_set_functors(C, 3):
            if fl.is_flat_set_valued(F).flat != fl.left_covering(F).flat:
                ok = False
                break
    _verdict(3, "flat coincides with left covering on weakly lex corpus at bound 3", ok)


def test_criterion_04a_regular_build_iff_weakly_lex():
    ok = True
    for name, C in CATS.items():
        classified = vl.classify_completeness(C, "weak")
        try:
            cp.direct_regular(C, cp.Bounds(max_objects=16))
            built = True
            witness = None
        except NotWeaklyLex as exc:
            built = False
            witness = exc.witness
        ok = ok and built == classified.passed
        if name == "PAR":
            ok = ok and not built and "u,v" in witness
        if name == "ARROW":
            ok = ok and built
    _verdict(4, "regular build succeeds exactly on weakly lex bases (a)", ok)


def test_criterion_04b_lextensive_battery_iff_multifinite():
    ok = True
    for name, C in CATS.items():
        E = cp.fam_f(C, 4, cp.Bounds(max_objects=80))
        scope = [
            i for i, p in enumerate(E.provenance)
            if p.detail == "(empty)" or len(p.detail.split(",")) <= 2
        ]
        battery = cp.verify_axioms(E, scope=scope, flavor="lext")
        classified = vl.classify_completeness(C, "multifinite")
        ok = ok and battery.passed == classified.passed
        if name == "PAR":
            ok = ok and battery.checks["limits"]["witness"] == "terminal"
        if name in ("DISC2", "SPLIT"):
            ok = ok and battery.passed
    _verdict(4, "coproduct completion battery matches multi-finite classification (b)", ok)


def test_criterion_04c_pretopos_build_always_succeeds():
    ok = True
    for name, C in CATS.items():
        E = cp.direct_pretopos(C, cp.Bounds(max_objects=40, max_arity=2))
        ok = ok and len(E.objects) >= C.n_objects
        ok = ok and vl.classify_completeness(C, "fc").passed
    _verdict(4, "pretopos-style build succeeds on every corpus category (c)", ok)


def test_criterion_05_universal_property_instances():
    E1 = cp.fam_f(CATS["ONE"], 2)
    r1 = cp.universal_property_check(CATS["ONE"], E1, 2, flavor="lext")
    E2 = cp.close(CATS["ARROW"], "reg", cp.Bounds(max_objects=12))
    r2 = cp.universal_property_check(CATS["ARROW"], E2, 2, flavor="reg")
    ok = all(
        (
            r.correspondence,
            r.extensions_exact,
            r.restrictions_flat,
            r.round_trips_ok,
            not r.sampled,
            r.flat_iso_classes == r.exact_iso_classes,
        )
        for r in (r1, r2)
    )
    _verdict(5, "extension/restriction equivalence is bijective on both instances", ok)


def test_criterion_06_no_free_completion_without_colimit_generators():
    PAR = CATS["PAR"]
    E, idx = cp.nonrepresentable_limit_witness(PAR, cp.Bounds(max_objects=8, max_iterations=2))
    ok = idx is not None and E.provenance[idx].kind == "limit"
    witness = E.objects[idx] if idx is not None else None
    if ok:
        for a in range(PAR.n_objects):
            ok = ok and ps.find_iso(witness, ps.yoneda(PAR, a)) is None
    ok = ok and fc.is_cauchy_complete(PAR)
    ok = ok and not vl.classify_completeness(PAR, "weak").passed
    _verdict(6, "limit-only closure of PAR leaves the representables", ok)


def test_criterion_07_ultraproducts_agree_and_are_universal():
    ok = True
    for name, C in CATS.items():
        family = (0, C.n_objects - 1)
        for point in ("x0", "x1"):
            uf = ultra.principal_ultrafilter(("x0", "x1"), point)
            inst = ultra.UltraInstance(C, family, uf)
            expected = family[("x0", "x1").index(point)]
            uu = ultra.universal_ultraproduct(inst)  # universality checked inside
            col = ultra.sigma_colimit(inst)
            ok = ok and uu is not None and col is not None
            ok = ok and any(m in C.isos() for m in C.hom(uu.obj, expected))
            ok = ok and any(m in C.isos() for m in C.hom(col.apex, expected))
        # the filtered-colimit-of-products formula, in the functor category
        F0, F1 = hom_functor(C, 0), ps.constant_set_functor(C)
        Q = ultra.categorical_ultraproduct(C, [F0, F1], ultra.principal_ultrafilter((0, 1), 0))
        ok = ok and ps.find_set_functor_iso(Q, F0) is not None
    # the dense-subcategory transfer instance
    PAR = CATS["PAR"]
    E = cp.direct_pretopos(PAR, cp.Bounds(max_arity=2))
    cat = E.as_category()
    reps = [E.find_object(ps.yoneda(PAR, a)) for a in range(2)]
    inst = ultra.UltraInstance(cat, tuple(reps), ultra.principal_ultrafilter((0, 1), 0))
    ok = ok and ultra.closure_check(cat, reps, inst).passed
    _verdict(7, "all ultraproduct routes agree with the principal component", ok)


def test_criterion_08_fractions():
    ok = True
    for name, C in CATS.items():
        frac = lz.fractions(lz.validate_congruence(C, C.isos(), "pullback"))
        ok = ok and frac.projection.is_equivalence()
    ARROW = CATS["ARROW"]
    frac_all = lz.fractions(lz.validate_congruence(ARROW, range(3), "pullback"))
    to_one = fc.FunctorData(
        frac_all.category, CATS["ONE"], (0, 0),
        tuple(0 for _ in range(frac_all.category.n_morphisms)),
    )
    ok = ok and to_one.is_equivalence()
    small_targets = [CATS[n] for n in ("ONE", "ARROW", "PAR", "DISC2", "Z2")]
    ok = ok and lz.localization_universal_check(frac_all, small_targets).passed
    frac_iso = lz.fractions(lz.validate_congruence(CATS["Z2"], range(2), "pullback"))
    ok = ok and lz.localization_universal_check(frac_iso, small_targets).passed
    _verdict(8, "inverting isomorphisms is an equivalence; the arrow collapses", ok)


def test_criterion_09_orthogonality_implies_injectivity():
    pairs = violations = 0
    hosts = []
    FS1, dec = fc.finset_category(1)
    DISC2 = CATS["DISC2"]
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
    hosts.append(
        fc.FiniteCategory.build(
            tuple(f"F{i}" for i in range(len(pres))),
            tuple(f"n{k}" for k in range(len(mors))),
            tuple(i for (i, _, _) in mors),
            tuple(j for (_, j, _) in mors),
            tuple(idt), table, name="[DISC2,FinSet<=1]",
        )
    )
    for name in ("PAR", "Z2", "SPLIT", "ARROW"):
        hosts.append(cp.direct_pretopos(CATS[name], cp.Bounds(max_arity=2)).as_category())
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
    ok = pairs >= 100 and violations == 0
    print(f"    ({pairs} cone/object pairs checked)")
    _verdict(9, "orthogonality implies injectivity with zero exceptions", ok)


def test_criterion_10_determinism(capsys):
    outputs = []
    for _ in range(2):
        cli.main(["report", "--seed", "11"])
        outputs.append(capsys.readouterr().out)
        cli.main(["analyze-limits", "Z2", "--seed", "11"])
        outputs[-1] += capsys.readouterr().out
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 100
    _verdict(10, "identical seeds give byte-identical reports", ok)
