"""Time the engine's backtracking searches, two cold-host layers, the
flatness routes, the completions' closure, check-flat into a completion and
the completions' universal property in two source trees, side by side.

    python tools/searchbench.py OLD_SRC NEW_SRC [--rounds 15] [--only NAME[,NAME]]

``OLD_SRC`` and ``NEW_SRC`` are ``src/`` directories, for instance one in a
``git archive`` of the parent commit and this checkout's own.  Each tree's
``catengine`` package is copied under its own name (``catengine_old``,
``catengine_new``) into a temporary directory and both are imported into
this one process, so the two sides share the interpreter, the machine's
state and the time of day.  perfbench runs each side in its own processes,
minutes apart, and on a machine whose speed swings by a third between runs
it cannot resolve a 10-20 % change in one layer; this can.

Five workloads are the searches that share ``fincat.backtrack``:

- ``cones``: ``all_cones`` and ``all_cocones`` over the bound-2 diagram sweep
  of every corpus category, the free categories on at most two nodes and
  FinSet<=2;
- ``find_iso``: ``find_iso`` between representables, their binary products
  and relabelled copies of them, on every corpus category;
- ``hom_set``: ``hom_set`` between the same presheaves where the
  brute-force product has at most 10,000 points;
- ``ultra_cocones``: ``ultra._cocones_into`` for principal ultrafilters on
  three points over every corpus category;
- ``functors``: ``enumerate_functors`` from every corpus category into
  FinSet<=3, in order and shuffled by a seeded ``random.Random``.

Three more time what a freshly named host costs the first time it is asked
about its limits, as every perfbench universal-search job is:

- ``virtual_limits``: ``virtual_limit`` over the bound-1 sweep of renamed
  copies of the corpus categories, the free categories on at most two nodes
  and five completion hosts, with the host's cache and the virtual-limit
  cache emptied before each run (a weight over the fiber cap counts by its
  message);
- ``classify``: ``classify_completeness`` in all five modes at sweep bound
  1 on renamed copies of the corpus categories and the five completion
  hosts, with the caches emptied before each run as for ``virtual_limits``;
  a sweep that meets a weight over the fiber cap counts by its message;
- ``sketch_models``: ``localize.sketch_models`` at value bound 2 for the
  sketch of every corpus category's generating limits on at most two
  objects, end to end: the enumeration with the sketch's prunes and the
  model check of each survivor.

One more times the flatness routes as the flat census asks them:

- ``flatness_routes``: ``is_flat`` and the four structural routes at sweep
  bound 1 on every set functor of every corpus category up to the census
  value bound (3 on ONE, ARROW, DISC2 and Z2, else 2), enumerated afresh in
  each run as a census job does, and on the pretopos inclusion of every
  corpus category, copied afresh in each run; each verdict is reduced to its
  ``to_json()``, or to the error a route raises when its limits are missing.

One more times the free completions' closure and their axiom batteries:

- ``completion_closure``: ``close`` for every corpus category and flavour
  but ``fam_f`` at ``max_objects=12, max_iterations=2``, ``verify_axioms``
  on each result, and the ``fam_f`` battery of every corpus category on the
  scope that ``verify-axioms`` gives it, each reduced to its ``to_json()``;
  the cases in ``SLOW_BUILDS`` and ``SLOW_BATTERIES`` take over 2 s in
  some tree and are left out.

One more times ``check-flat --target`` as completion-battery runs it:

- ``check_flat_target``: in-process ``cli.main`` check-flat of the inclusion
  of every corpus category into its ``pret/direct`` completion, both read
  from files written at set-up, with each of the five methods that take a
  concrete functor; each run is reduced to its exit code, stdout and
  stderr.

One more times the check of the completions' universal property:

- ``universal_property``: ``universal_property_check`` at value bound 2 on
  the ``reg`` completion (``close``) and the ``lext`` completion (``fam_f``
  at family arity ``max_arity``), built as the ``universal-property``
  command builds them at ``max_iterations=1`` and the default enumeration
  cap, each reduced to its ``to_json()``: ONE, ARROW, DISC2 and Z2 with both
  flavours, CHAIN3 and SPLIT with ``reg``.  These enumerate in full, so the
  report does not depend on how many candidates a tree draws.

Inputs are built outside the timed region.  Each workload's outputs,
reduced to plain tuples, must be equal on both sides, or the run stops;
that first run also warms both sides and sets how often one timed sample
repeats the workload, so that it takes about 0.1 s on the old side.  Rounds
alternate which side runs first.  Prints the median seconds per run of each
side and the ratio new / old per workload (below 1: the new tree is faster).
``--only`` sets up and times just the named workloads.
"""
from __future__ import annotations

import argparse
import collections
import contextlib
import dataclasses
import importlib
import io
import json
import itertools
import math
import random
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("old", "new")
SAMPLE_S = 0.1


def load(src: str, side: str, into: Path):
    """Import the ``catengine`` package of ``src`` as ``catengine_<side>``."""
    name = f"catengine_{side}"
    shutil.copytree(Path(src) / "catengine", into / name, ignore=shutil.ignore_patterns("__pycache__"))
    return {mod: importlib.import_module(f"{name}.{mod}")
            for mod in ("cli", "completions", "corpus", "errors", "fincat", "flatness", "localize", "presheaf", "ultra",
                        "virtlim")}


def _presheaves(ps, C):
    reps = [ps.yoneda(C, a) for a in range(C.n_objects)]
    prods = [ps.product(C, [M, N]).apex for M, N in itertools.combinations_with_replacement(reps, 2)]
    return reps + prods + [ps.relabel(P)[0] for P in reps + prods]


def _components(t):
    return tuple(tuple(sorted(c.items(), key=repr)) for c in t.components)


# each workload: (setup(pkg) -> inputs, run(pkg, inputs) -> plain, comparable output)


def cones_setup(pkg):
    cats = list(pkg["corpus"].all_categories().values())
    hosts = cats + pkg["virtlim"].dag_shapes(2) + [pkg["fincat"].finset_category(2)[0]]
    return [D for C in hosts for D in pkg["virtlim"].swept_diagrams(C, 2)]


def cones_run(pkg, diagrams):
    fc = pkg["fincat"]
    return [
        tuple((c.apex, c.legs) for c in fc.all_cones(D)) + tuple((c.apex, c.legs) for c in fc.all_cocones(D))
        for D in diagrams
    ]


def pairs_setup(pkg):
    return [list(itertools.product(_presheaves(pkg["presheaf"], C), repeat=2))
            for C in pkg["corpus"].all_categories().values()]


def find_iso_run(pkg, pairs):
    ps = pkg["presheaf"]
    out = []
    for per_cat in pairs:
        for M, N in per_cat:
            t = ps.find_iso(M, N)
            out.append(t and _components(t))
    return out


def hom_set_setup(pkg):
    return [
        [(M, N) for M, N in per_cat
         if math.prod(len(N.values[a]) ** len(M.values[a]) for a in range(M.base.n_objects)) <= 10 ** 4]
        for per_cat in pairs_setup(pkg)
    ]


def hom_set_run(pkg, pairs):
    ps = pkg["presheaf"]
    return [tuple(_components(t) for t in ps.hom_set(M, N)) for per_cat in pairs for M, N in per_cat]


def ultra_setup(pkg):
    ultra = pkg["ultra"]
    out = []
    for C in pkg["corpus"].all_categories().values():
        family = tuple(k % C.n_objects for k in range(3))
        inst = ultra.UltraInstance(C, family, ultra.principal_ultrafilter((0, 1, 2), 1))
        out.append((inst, ultra._stage_presheaves(inst)))
    return out


def ultra_run(pkg, insts):
    ultra = pkg["ultra"]
    return [
        tuple(tuple((tuple(sorted(S)), _components(t)) for S, t in cocone.items())
              for cocone in ultra._cocones_into(inst, stages, N))
        for inst, stages in insts
        for N in range(inst.host.n_objects)
    ]


def functors_setup(pkg):
    return list(pkg["corpus"].all_categories().values()), pkg["fincat"].finset_category(3)[0]


def functors_run(pkg, inputs):
    cats, FS3 = inputs
    fc = pkg["fincat"]
    out = []
    for C in cats:
        for rng in (None, random.Random(1), random.Random(2)):
            out.append(tuple((F.object_map, F.morphism_map) for F in fc.enumerate_functors(C, FS3, rng=rng)))
    return out


def _renamed(fc, C):
    """A copy of ``C`` with every object and morphism name prefixed by ``fresh.``."""
    raw = fc.category_to_json(C)
    return fc.validate_category({
        "name": raw["name"],
        "objects": ["fresh." + o for o in raw["objects"]],
        "morphisms": [{k: "fresh." + v for k, v in r.items()} for r in raw["morphisms"]],
        "identities": {"fresh." + o: "fresh." + m for o, m in raw["identities"].items()},
        "compose": [{k: "fresh." + v for k, v in r.items()} for r in raw["compose"]],
    })


def _completion_hosts(pkg):
    """The categories of the five completions that perfbench's
    universal-search asks about as hosts."""
    cp, cats = pkg["completions"], pkg["corpus"].all_categories()
    completions = [cp.fam_f(cats["ONE"], 2), cp.direct_pretopos(cats["ARROW"]), cp.direct_pretopos(cats["ONE"]),
                   cp.direct_regular(cats["CHAIN3"]), cp.fam_f(cats["Z2"], 2)]
    return [E.as_category() for E in completions]


def virtual_limits_setup(pkg):
    fc, vl = pkg["fincat"], pkg["virtlim"]
    cats = list(pkg["corpus"].all_categories().values())
    hosts = [_renamed(fc, C) for C in cats + vl.dag_shapes(2) + _completion_hosts(pkg)]
    return [(H, vl.swept_diagrams(H, 1)) for H in hosts]


def virtual_limits_run(pkg, inputs):
    vl, cap = pkg["virtlim"], pkg["errors"].FiberCapExceeded
    vl._VL_CACHE.clear()
    out = []
    for H, diagrams in inputs:
        H._cache.clear()  # no representables, hom-sets or opposite yet
        for D in diagrams:
            try:
                W = vl.virtual_limit(H, D).weight
                out.append((W.name, W.values, W.actions))
            except cap as exc:
                out.append(str(exc))
    return out


def classify_setup(pkg):
    cats = list(pkg["corpus"].all_categories().values())
    return [_renamed(pkg["fincat"], C) for C in cats + _completion_hosts(pkg)]


def classify_run(pkg, hosts):
    vl, cap = pkg["virtlim"], pkg["errors"].FiberCapExceeded
    vl._VL_CACHE.clear()
    reports, errors = [], collections.Counter()
    for H in hosts:
        H._cache.clear()  # no sweep, representables or hom-sets yet
        for mode in vl.MODES:
            try:
                reports.append(vl.classify_completeness(H, mode, 1).to_json())
            except cap as exc:
                errors[str(exc)] += 1
    return reports, errors


def sketch_setup(pkg):
    fc, lz, vl = pkg["fincat"], pkg["localize"], pkg["virtlim"]
    out = []
    for C in pkg["corpus"].all_categories().values():
        cones = map(fc.limit_in_category, vl.generating_diagrams(C))
        out.append(lz.Sketch(C, tuple(c for c in cones if c is not None and c.diagram.shape.n_objects <= 2)))
    return out


def sketch_run(pkg, sketches):
    lz = pkg["localize"]
    return [
        tuple((F.values, tuple(tuple(a.items()) for a in F.actions)) for F in lz.sketch_models(sk, 2))
        for sk in sketches
    ]


def flatness_setup(pkg):
    cats = pkg["corpus"].all_categories()
    census = [(C, 3 if name in ("ONE", "ARROW", "DISC2", "Z2") else 2) for name, C in cats.items()]
    return census, [pkg["completions"].direct_pretopos(C).inclusion_concrete() for C in cats.values()]


def flatness_run(pkg, inputs):
    fl, ps, errors = pkg["flatness"], pkg["presheaf"], pkg["errors"]
    census, inclusions = inputs
    routes = (fl.is_flat, fl.left_covering, fl.finitely_multicontinuous, fl.fc_continuous, fl.merges_multi_finite)
    missing = (errors.NoWeakLimit, errors.NoMultilimit, errors.NoMultiFiniteLimit)
    # fresh functors in every run, so that nothing one run keeps on them serves the next
    functors = [F for C, vb in census for F in ps.enumerate_set_functors(C, vb)]
    functors += [dataclasses.replace(K) for K in inclusions]
    out = []
    for F in functors:
        for route in routes:
            try:
                out.append(route(F, bound=1).to_json())
            except missing as exc:
                out.append(f"{type(exc).__name__}: {exc}")
    return out


CLOSURE_FLAVORS = ("none", "reg", "ex", "lext", "pret")
# a build and the batteries that ran for seconds to minutes while the
# battery listed every morphism of the completion before its first check
SLOW_BUILDS = {"PAR ex"}
SLOW_BATTERIES = SLOW_BUILDS | {"ONE lext", "ONE pret", "PAR none", "PAR reg", "DISC2 pret",
                                "Z2 none", "Z2 reg", "Z2 ex", "Z2 lext", "Z2 pret"}


def closure_setup(pkg):
    return pkg["corpus"].all_categories(), pkg["completions"].Bounds(max_objects=12, max_iterations=2)


def closure_run(pkg, inputs):
    cp = pkg["completions"]
    cats, bounds = inputs
    out = []
    for name, C in cats.items():
        for flavor in CLOSURE_FLAVORS:
            case = f"{name} {flavor}"
            if case in SLOW_BUILDS:
                continue
            E = cp.close(C, flavor, bounds)
            out.append(E.to_json())
            if case not in SLOW_BATTERIES:
                out.append(cp.verify_axioms(E).to_json())
        E = cp.fam_f(C, 2 * bounds.max_arity, bounds)
        scope = [i for i, p in enumerate(E.provenance)
                 if p.detail == "(empty)" or len(p.detail.split(",")) <= bounds.max_arity]
        out.append(cp.verify_axioms(E, scope=scope).to_json())
    return out


CHECK_FLAT_METHODS = ("def", "covering", "multi", "fc", "merge")


def check_flat_setup(pkg):
    """Per corpus category, its pret/direct completion and its inclusion as
    files, named as perfbench's completion-battery names them."""
    cp = pkg["completions"]
    tmp = tempfile.TemporaryDirectory()
    cases = []
    for name, C in pkg["corpus"].all_categories().items():
        E = cp.direct_pretopos(C)
        fd, _ = E.inclusion()
        Ec = E.as_category()
        target, functor = Path(tmp.name) / f"{name}.json", Path(tmp.name) / f"K{name}.json"
        target.write_text(json.dumps(E.to_json()))
        functor.write_text(json.dumps({
            "name": "K",
            "objects": {C.objects[a]: Ec.objects[fd.object_map[a]] for a in range(C.n_objects)},
            "morphisms": {C.morphisms[m]: Ec.morphisms[fd.morphism_map[m]] for m in range(C.n_morphisms)},
        }))
        cases.append((name, str(target), str(functor)))
    return tmp, cases


def check_flat_run(pkg, inputs):
    _, cases = inputs
    out = []
    for name, target, functor in cases:
        for method in CHECK_FLAT_METHODS:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = pkg["cli"].main(["check-flat", "--category", name, "--functor", functor,
                                        "--target", target, "--method", method])
            out.append((code, stdout.getvalue(), stderr.getvalue()))
    return out


UNIVERSAL_CASES = ("ONE reg", "ONE lext", "ARROW reg", "ARROW lext", "DISC2 reg", "DISC2 lext", "Z2 reg",
                   "Z2 lext", "CHAIN3 reg", "SPLIT reg")


def universal_setup(pkg):
    cp, cats = pkg["completions"], pkg["corpus"].all_categories()
    bounds = cp.Bounds(max_iterations=1)
    cases = []
    for name, flavor in map(str.split, UNIVERSAL_CASES):
        C = cats[name]
        E = cp.close(C, flavor, bounds) if flavor == "reg" else cp.fam_f(C, bounds.max_arity, bounds)
        cases.append((C, E, flavor))
    return cases


def universal_run(pkg, cases):
    cp = pkg["completions"]
    return [cp.universal_property_check(C, E, 2, flavor=flavor, cap=E.bounds.enumeration_cap).to_json()
            for C, E, flavor in cases]


WORKLOADS = {
    "cones": (cones_setup, cones_run),
    "find_iso": (pairs_setup, find_iso_run),
    "hom_set": (hom_set_setup, hom_set_run),
    "ultra_cocones": (ultra_setup, ultra_run),
    "functors": (functors_setup, functors_run),
    "virtual_limits": (virtual_limits_setup, virtual_limits_run),
    "classify": (classify_setup, classify_run),
    "sketch_models": (sketch_setup, sketch_run),
    "flatness_routes": (flatness_setup, flatness_run),
    "completion_closure": (closure_setup, closure_run),
    "check_flat_target": (check_flat_setup, check_flat_run),
    "universal_property": (universal_setup, universal_run),
}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("old_src")
    p.add_argument("new_src")
    p.add_argument("--rounds", type=int, default=15)
    p.add_argument("--only", metavar="NAME[,NAME]", help="time only these workloads")
    args = p.parse_args(argv)
    names = args.only.split(",") if args.only else list(WORKLOADS)
    unknown = [w for w in names if w not in WORKLOADS]
    if unknown:
        p.error(f"unknown workload {', '.join(unknown)}; choose from {', '.join(WORKLOADS)}")
    workloads = {w: WORKLOADS[w] for w in names}
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        pkgs = {side: load(src, side, Path(tmp)) for side, src in zip(SIDES, (args.old_src, args.new_src))}
        inputs = {(w, side): setup(pkgs[side]) for w, (setup, _) in workloads.items() for side in SIDES}
        reps = {}
        for w, (_, run) in workloads.items():
            outputs = {side: run(pkgs[side], inputs[w, side]) for side in SIDES}  # also warms both sides
            if outputs["old"] != outputs["new"]:
                raise SystemExit(f"{w}: the two trees give different outputs")
            t0 = time.perf_counter()
            run(pkgs["old"], inputs[w, "old"])
            reps[w] = max(1, round(SAMPLE_S / (time.perf_counter() - t0)))
        times = {(w, side): [] for w in workloads for side in SIDES}
        for r in range(args.rounds):
            order = SIDES if r % 2 == 0 else SIDES[::-1]
            for w, (_, run) in workloads.items():
                for side in order:
                    t0 = time.perf_counter()
                    for _ in range(reps[w]):
                        run(pkgs[side], inputs[w, side])
                    times[w, side].append((time.perf_counter() - t0) / reps[w])
    print(f"{'workload':<18} {'old_s':>9} {'new_s':>9} {'new/old':>8}   ({args.rounds} alternating rounds, medians)")
    for w in workloads:
        old, new = (statistics.median(times[w, side]) for side in SIDES)
        print(f"{w:<18} {old:9.4f} {new:9.4f} {new / old:8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
