"""The three job streams: seeded input draws, the timed questions, their checks.

A job is one question a user asks the engine.  ``call`` is the timed part;
``check`` runs afterwards, untimed, and turns the raw answer into the bytes
that are digested plus the list of oracle disagreements.  Checks that
compare two jobs of the same pass (two routes to one answer) read the
earlier job's answer from the pass's shared ``state``.

Draw distributions are fixed per workload from input properties only
(object and morphism counts, thinness, value bound, sweep bound); see
README.md in this directory for the tables.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from pathlib import Path

import gen
import oracles

from catengine import cli, completions as cp, corpus, fincat as fc, flatness as fl
from catengine import localize as lz, presheaf as ps, ultra, virtlim as vl
from catengine.errors import BoundExceeded, EnumerationTooLarge, FiberCapExceeded
from catengine.errors import NoMultiFiniteLimit, NoMultilimit, NoWeakLimit, NotCongruence

BOUND_ERRORS = (BoundExceeded, EnumerationTooLarge, FiberCapExceeded)
HYPOTHESIS_ERRORS = (NoWeakLimit, NoMultilimit, NoMultiFiniteLimit)
CORPUS = corpus.NAMES
SUB_FINSETS = ((0,), (1,), (2,), (0, 1), (0, 2))

# Jobs that fail at the seed code for a reason recorded in ROADMAP.md.  They
# stay in the stream and count in failed_share; they are not unexpected.
KNOWN_DEFECTS = {
    "completion-battery/universal-property/DISC2/lext":
        "ROADMAP item 1: fam_f truncation makes the lext universal-property check exit 1 falsely",
    "completion-battery/verify-axioms/PAR/pret":
        "ROADMAP item 2: ConcreteCompletion.homs enumerates 784,537 transformations; runs past the deadline",
    "completion-battery/verify-axioms/ARROW+ARROW/fam_f":
        "ROADMAP item 1: fam_f stops at 64 of the 70 families of a 4-object base, still claims saturation, "
        "and the battery reports the missing products and coproducts as exit 1 (passes with max_objects=100)",
}


class Job:
    """``kind`` names the question the job asks, the same in every pass;
    ``id`` names this instance of it (the two differ only where a pass asks
    the question of freshly generated inputs)."""

    __slots__ = ("id", "kind", "call", "check")

    def __init__(self, job_id, call, check, kind=None):
        self.id = job_id
        self.kind = kind or job_id
        self.call = call
        self.check = check


def canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def hom_functor(C, a: int) -> ps.SetFunctor:
    values = tuple(C.hom(a, b) for b in range(C.n_objects))
    actions = tuple({m: C.table[f][m] for m in values[C.src[f]]} for f in range(C.n_morphisms))
    return ps.SetFunctor(C, values, actions, name=f"hom({C.objects[a]},-)")


# every type in these strata appears once per pass; the seed picks the labelling
CORPUS_PAIRS = (("sum", "ONE", "ARROW"), ("sum", "Z2", "ONE"), ("sum", "PAR", "ONE"),
                ("product", "Z2", "Z2"), ("product", "ARROW", "ONE"))
MONOIDS = gen.monoid_catalogue(3)


def stratified_draws(tables):
    """(label, raw) for every 3-point order, every monoid generated by one
    self-map of 3 points, every small full subcategory of finite sets, and a
    fixed list of sums and products of corpus entries."""
    out = [(f"poset{i}", gen.poset(3, rel, name=f"PO3.{i}")) for i, rel in enumerate(gen.POSETS_3)]
    out += [(f"monoid{i}", gen.monoid(3, [f], name=f"TM.{i}")) for i, f in enumerate(MONOIDS)]
    out += [(f"finset{''.join(map(str, s))}", gen.finset_subcategory(s)) for s in SUB_FINSETS]
    for kind, a, b in CORPUS_PAIRS:
        make = gen.corpus_sum if kind == "sum" else gen.corpus_product
        out.append((f"{kind}-{a}-{b}", make(tables[a], tables[b])))
    return out


# -- flat-census -------------------------------------------------------------------


class FlatCensus:
    """Which set functors on this base are flat?  Every route whose
    hypotheses hold is asked, at sweep bound 0 and at sweep bound 1."""

    name = "flat-census"
    SWEEPS = (0, 1)

    def __init__(self, seed: int, root: Path, workdir: Path):
        rng = random.Random(f"{self.name}:{seed}")
        tables = gen.load_corpus(root / "src" / "catengine" / "corpus", CORPUS)
        draws = [(n, tables[n].raw(), 3 if n in ("ONE", "ARROW", "DISC2", "Z2") else 2) for n in CORPUS]
        draws += [(label, gen.permuted(raw, rng), 2) for label, raw in stratified_draws(tables)]
        rng.shuffle(draws)
        self.inputs = [gen.dumps(raw) for (_, raw, _) in draws]
        self.jobs = []
        for (label, raw, vb) in draws:
            C = fc.validate_category(raw)
            for sweep in self.SWEEPS:
                self.jobs.append(self._job(label, C, vb, sweep))

    def warmup(self):
        return self.jobs

    def pass_jobs(self, k: int, twin: bool = False):
        return self.jobs

    def _job(self, label, C, vb, sweep):
        job_id = f"{self.name}/{label}/vb{vb}/sweep{sweep}"

        def call():
            functors = list(ps.enumerate_set_functors(C, vb))
            routes = {
                "definitional": lambda F: fl.is_flat_set_valued(F, bound=sweep),
                "concrete": lambda F: fl.is_flat(F, bound=sweep),
                "covering": lambda F: fl.left_covering(F, bound=sweep),
                "multi": lambda F: fl.finitely_multicontinuous(F, bound=sweep),
                "fc": lambda F: fl.fc_continuous(F, bound=sweep),
                "merge": lambda F: fl.merges_multi_finite(F, bound=sweep),
                "lex": lambda F: fl.is_lex_set_valued(F, bound=sweep),
            }
            if sweep == 0:
                routes["elements"] = fl.is_flat_via_elements
            verdicts = {}
            for route, fn in routes.items():
                try:
                    verdicts[route] = [fn(F).flat for F in functors]
                except HYPOTHESIS_ERRORS:
                    verdicts[route] = None
            sizes = [[len(v) for v in F.values] for F in functors]
            return {"functors": len(functors), "sizes": sizes, "verdicts": verdicts}

        def check(raw, state):
            problems = []
            flat = raw["verdicts"]["definitional"]
            for route, got in raw["verdicts"].items():
                if got is not None and got != flat:
                    problems.append(f"route {route} disagrees with the definitional verdicts")
            first = state.setdefault(("census", label), flat)
            if first != flat:
                problems.append("the sweep-1 verdicts differ from the sweep-0 verdicts")
            n_flat = sum(flat)
            if oracles.max_representable_fiber(C) <= vb and n_flat == 0:
                problems.append("no flat functor found although a representable fits the value bound")
            if oracles.is_thin(C):
                if n_flat != C.n_objects:
                    problems.append(f"{n_flat} flat functors on a poset with {C.n_objects} points")
                const = [i for i, s in enumerate(raw["sizes"]) if all(k == 1 for k in s)]
                if len(const) != 1 or flat[const[0]] != oracles.thin_has_minimum(C):
                    problems.append("constant-singleton verdict differs from having a least element")
            if label == "Z2" and n_flat != 1:
                problems.append("Z2 must have exactly its regular representation as flat functor")
            return canonical(raw), problems, False

        return Job(job_id, call, check)


# -- completion-battery ------------------------------------------------------------


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def _report(out: str):
    try:
        return json.loads(out) if out.startswith("{") else None
    except json.JSONDecodeError:
        return None


class CompletionBattery:
    """CLI commands on completions, run in-process through ``cli.main``."""

    name = "completion-battery"
    METHODS = ("def", "covering", "multi", "fc", "merge")

    def __init__(self, seed: int, root: Path, workdir: Path):
        rng = random.Random(f"{self.name}:{seed}")
        tables = gen.load_corpus(root / "src" / "catengine" / "corpus", CORPUS)
        # a 3-point order the corpus lacks (two points below a third) and a 4-point sum
        drawn = [gen.poset(3, gen.POSETS_3[4], name="PO3.4"), gen.corpus_sum(tables["ARROW"], tables["ARROW"])]
        drawn = [gen.permuted(raw, rng) for raw in drawn]
        self.inputs = [gen.dumps(raw) for raw in drawn]
        specs = list(CORPUS)
        for i, text in enumerate(self.inputs):
            path = workdir / f"base{i}.json"
            path.write_text(text)
            specs.append(str(path))
        self.bases = []
        for spec, label in zip(specs, list(CORPUS) + [raw["name"] for raw in drawn]):
            C = cli.load_category(spec)
            thin = oracles.is_thin(C)
            facts = {
                "thin": thin,
                "n": C.n_objects,
                "weakly_lex": oracles.thin_weakly_lex(C) if thin else oracles.CORPUS_WEAKLY_LEX[spec],
                "multifinite": oracles.thin_multifinite(C) if thin else oracles.CORPUS_MULTIFINITE[spec],
            }
            self.bases.append((label, spec, facts, self._target_files(spec, C, workdir, len(self.bases))))
        self.jobs = self._pass()

    def _target_files(self, spec, C, workdir, i):
        """The pretopos-style completion of the base and its inclusion, as files."""
        _, out, _ = run_cli(["build-completion", "--category", spec, "--flavor", "pret", "--construction", "direct"])
        E = cp.completion_from_json(json.loads(out))
        fd, _ = E.inclusion()
        Ec = E.as_category()
        target, functor = workdir / f"target{i}.json", workdir / f"inclusion{i}.json"
        target.write_text(out)
        functor.write_text(json.dumps({
            "name": "K",
            "objects": {C.objects[a]: Ec.objects[fd.object_map[a]] for a in range(C.n_objects)},
            "morphisms": {C.morphisms[m]: Ec.morphisms[fd.morphism_map[m]] for m in range(C.n_morphisms)},
        }, sort_keys=True))
        return str(target), str(functor)

    def warmup(self):
        # the known-defect jobs and the slowest other job are left out: one
        # runs until the deadline, ONE lext/close alone would be half of the
        # warm-up, and the commands they use are warmed by the same commands on
        # other bases (ONE lext/close takes as long warm as cold)
        skip = set(KNOWN_DEFECTS) | {f"{self.name}/build-completion/ONE/lext/close"}
        return [job for job in self.jobs if job.id not in skip]

    def pass_jobs(self, k: int, twin: bool = False):
        return self.jobs

    def _pass(self):
        jobs = []
        for i, (label, spec, facts, (target, functor)) in enumerate(self.bases):
            jobs.append(self._build(label, spec, facts, "reg", "direct"))
            if facts["thin"]:
                jobs.append(self._build(label, spec, facts, "reg", "close"))
            jobs.append(self._build(label, spec, facts, "pret", "direct"))
            jobs.append(self._build(label, spec, facts, "lext", "close"))
            jobs.append(self._build(label, spec, facts, "fam_f", "direct"))
            jobs.append(self._verify(label, spec, facts, "fam_f"))
            if facts["weakly_lex"]:
                jobs.append(self._universal(label, spec, "reg"))
            for method in self.METHODS:
                jobs.append(self._check_flat(label, spec, target, functor, method))
            if i == 2:
                jobs.append(self._universal("ONE", "ONE", "lext"))
                jobs.append(self._universal("DISC2", "DISC2", "lext"))
        jobs.append(self._verify("PAR", "PAR", {}, "pret"))
        return jobs

    def _job(self, parts, argv, oracle):
        job_id = "/".join((self.name,) + parts)

        def check(raw, state):
            rc, out, err = raw
            payload = out.encode() + f"\nexit {rc}\n".encode()
            if rc == cli.EXIT_BOUND:
                return payload, [], True
            if rc == cli.EXIT_INPUT:
                return payload, [f"exit 2 on a valid input: {err.strip()[:200]}"], False
            if "Traceback" in err:
                return payload, ["traceback on stderr"], False
            return payload, oracle(rc, _report(out), err, state), False

        return Job(job_id, lambda: run_cli(argv), check)

    def _build(self, label, spec, facts, flavor, construction):
        argv = ["build-completion", "--category", spec, "--flavor", flavor, "--construction", construction]

        def oracle(rc, report, err, state):
            if flavor == "reg" and construction == "direct":
                # criterion 4a: the direct regular build succeeds iff the base is weakly lex
                if (rc == 0) != facts["weakly_lex"]:
                    return [f"direct regular build exit {rc} on a base with weakly_lex={facts['weakly_lex']}"]
                if rc == 1:
                    return [] if "not weakly lex" in err else ["exit 1 without a weak-lex witness"]
            elif rc != 0:
                return [f"build exited {rc}"]
            state[(label, flavor, construction)] = report
            problems = []
            other = state.get((label, flavor, "direct" if construction == "close" else "close"))
            if report and other and report["saturated"] and other["saturated"]:
                if len(report["objects"]) != len(other["objects"]):
                    problems.append(
                        f"saturated close and direct {flavor} builds differ: "
                        f"{len(report['objects'])} vs {len(other['objects'])} iso classes"
                    )
            if flavor == "fam_f" and facts["thin"]:
                expected = min(math.comb(facts["n"] + 3, 3), 64)
                if len(report["objects"]) != expected:
                    problems.append(f"fam_f has {len(report['objects'])} iso classes, expected {expected}")
            return problems

        return self._job(("build-completion", label, flavor, construction), argv, oracle)

    def _verify(self, label, spec, facts, flavor):
        argv = ["verify-axioms", "--category", spec, "--flavor", flavor]

        def oracle(rc, report, err, state):
            if flavor == "fam_f" and (rc == 0) != facts["multifinite"]:
                # criterion 4b: the coproduct-completion battery passes iff multi-finite limits exist
                return [f"lext battery exit {rc} on a base with multifinite={facts['multifinite']}"]
            return []

        return self._job(("verify-axioms", label, flavor), argv, oracle)

    def _universal(self, label, spec, flavor):
        argv = ["universal-property", "--category", spec, "--flavor", flavor]

        def oracle(rc, report, err, state):
            # the extension/restriction equivalence holds on these bases
            return [] if rc == 0 else [f"universal-property exit {rc}: {report and report.get('failures')}"]

        return self._job(("universal-property", label, flavor), argv, oracle)

    def _check_flat(self, label, spec, target, functor, method):
        argv = ["check-flat", "--category", spec, "--functor", functor, "--target", target, "--method", method]

        def oracle(rc, report, err, state):
            if report is None:
                # a structural route whose hypothesis fails on this base
                return [] if rc == 1 and method != "def" and "check failed" in err else [f"no verdict, exit {rc}"]
            flat = report["verdict"]["flat"]
            if (rc == 0) != flat:
                return [f"exit {rc} with flat={flat}"]
            if method == "def":
                state[(label, "inclusion-flat")] = flat
                return []
            if state.get((label, "inclusion-flat")) != flat:
                return [f"route {method} disagrees with the definitional verdict"]
            return []

        return self._job(("check-flat", label, method), argv, oracle)


# -- universal-search --------------------------------------------------------------


COMPLETION_HOSTS = (("fam_f", "ONE"), ("pret", "ARROW"), ("pret", "ONE"), ("reg", "CHAIN3"), ("fam_f", "Z2"))
PREGEN_PASSES = 12


class UniversalSearch:
    """Does this host have these limits, this ultraproduct, these fractions?
    Every job is a fresh host, so the module caches are written, not read."""

    name = "universal-search"

    def __init__(self, seed: int, root: Path, workdir: Path):
        self.seed = seed
        tables = gen.load_corpus(root / "src" / "catengine" / "corpus", CORPUS)
        self.kinds = [(n, tables[n].raw()) for n in CORPUS] + stratified_draws(tables)
        for flavor, base in COMPLETION_HOSTS:
            C = corpus.load(base)
            if flavor == "fam_f":
                E = cp.fam_f(C, 2)
            elif flavor == "pret":
                E = cp.direct_pretopos(C)
            else:
                E = cp.direct_regular(C)
            self.kinds.append((f"{flavor}({base})", fc.category_to_json(E.as_category())))
        self.inputs = []
        self._passes: dict[tuple[int, bool], list] = {}
        for k in range(PREGEN_PASSES):
            self.pass_jobs(k)
        self._warm = self._make_pass("warm", "w", random.Random(f"{self.name}:{seed}:warm"))

    def warmup(self):
        return self._warm

    def pass_jobs(self, k: int, twin: bool = False):
        """Pass k: every host kind once, freshly named.  The twin pass has the
        same draws under other names, so it is just as cold."""
        key = (k, twin)
        if key not in self._passes:
            rng = random.Random(f"{self.name}:{self.seed}:{k}")
            self._passes[key] = self._make_pass(str(k), f"{'t' if twin else 'u'}{k}", rng)
        return self._passes[key]

    def _make_pass(self, k: str, tag: str, rng):
        jobs = []
        for i in rng.sample(range(len(self.kinds)), len(self.kinds)):
            label, raw = self.kinds[i]
            raw = gen.retag(gen.permuted(raw, rng), f"{tag}.")
            self.inputs.append(gen.dumps(raw))
            H = fc.validate_category(raw)
            a, b, point = rng.randrange(H.n_objects), rng.randrange(H.n_objects), rng.randrange(2)
            jobs.append(Job(
                f"{self.name}/{k}/{label}",
                lambda H=H, a=a, b=b, point=point: self._ask(H, a, b, point),
                lambda out, state, H=H, label=label, a=a, b=b, point=point: self._check(H, label, a, b, point, out),
                kind=f"{self.name}/{label}",
            ))
        return jobs

    @staticmethod
    def _ask(H, a, b, point):
        out = {}
        reports = {m: vl.classify_completeness(H, m, 1) for m in vl.MODES}
        out["classify"] = {m: r.to_json() for m, r in reports.items()}
        diagrams = vl.generating_diagrams(H)
        limits = [fc.limit_in_category(d) for d in diagrams]
        colimits = [fc.colimit_in_category(d) for d in diagrams]
        out["limits"] = [(d.describe(), c is not None, c is not None and c.apex) for d, c in zip(diagrams, limits)]
        out["colimits"] = [(d.describe(), c is not None, c is not None and c.apex) for d, c in zip(diagrams, colimits)]
        uf = ultra.principal_ultrafilter(("x0", "x1"), ("x0", "x1")[point])
        inst = ultra.UltraInstance(H, (a, b), uf)
        uu = ultra.universal_ultraproduct(inst)
        sc = ultra.sigma_colimit(inst)
        q = ultra.categorical_ultraproduct(H, [hom_functor(H, a), hom_functor(H, b)],
                                           ultra.principal_ultrafilter((0, 1), point))
        member = hom_functor(H, (a, b)[point])
        out["ultra"] = {
            "universal": uu and uu.obj,
            "sigma": sc and sc.apex,
            "formula_iso": ps.find_set_functor_iso(q, member) is not None,
            "closure": ultra.closure_check(H, list(range(H.n_objects)), inst).to_json(),
        }
        iso_frac = lz.fractions(lz.validate_congruence(H, H.isos()))
        out["fractions_isos_equivalence"] = iso_frac.projection.is_equivalence()
        try:
            frac = lz.fractions(lz.validate_congruence(H, range(H.n_morphisms)))
            out["fractions_all"] = [
                [bool(frac.category.hom(x, y)) for y in range(H.n_objects)] for x in range(H.n_objects)
            ]
        except NotCongruence as exc:
            out["fractions_all"] = f"not a congruence: {exc}"
        pairs = []
        for v in range(H.n_objects):
            outs = [m for m in range(H.n_morphisms) if H.src[m] == v]
            cones = list(itertools.chain(itertools.combinations(outs, 1), itertools.combinations(outs, 2)))[:8]
            for legs in cones:
                cone = lz.FcCone(H, v, legs)
                pairs.extend(
                    (lz.is_fc_orthogonal(cone, o), lz.is_fc_injective(cone, o)) for o in range(H.n_objects)
                )
        out["orthogonality"] = pairs
        specs = tuple(c for c in limits if c is not None and c.diagram.shape.n_objects <= 2)
        models = lz.sketch_models(lz.Sketch(H, specs), 2)
        out["sketch_models"] = len(models)
        out["_models"] = (specs, models)
        return out

    @staticmethod
    def _check(H, label, a, b, point, out):
        problems = []
        specs, models = out.pop("_models")
        modes = {m: r["passed"] for m, r in out["classify"].items()}
        if modes["multi"] != modes["multifinite"]:
            problems.append("multilimits and multi-finite limits disagree on a finite base")
        if not modes["fc"]:
            problems.append("a finite category always has fc-limits")
        if modes["multi"] and not modes["poly"]:
            problems.append("a multilimit is a polylimit with trivial automorphisms")
        weak_records = {r["diagram"]: r["ok"] for r in out["classify"]["weak"]["records"]}
        multi_records = {r["diagram"]: (r["ok"], r["family_size"]) for r in out["classify"]["multi"]["records"]}
        for desc, found, _ in out["limits"]:
            if found and (not weak_records.get(desc) or multi_records.get(desc) != (True, 1)):
                problems.append(f"a limit of {desc} exists but the detectors miss it")
        if oracles.is_thin(H):
            expect = oracles.thin_limits(H)
            n = H.n_objects
            keys = ["terminal"] + [f"meet {x},{y}" for x in range(n) for y in range(x, n)]
            if [found for _, found, _ in out["limits"]] != [expect[k] for k in keys]:
                problems.append("limits differ from the meets of the order")
            keys = ["initial"] + [f"join {x},{y}" for x in range(n) for y in range(x, n)]
            if [found for _, found, _ in out["colimits"]] != [expect[k] for k in keys]:
                problems.append("colimits differ from the joins of the order")
            if modes["weak"] != oracles.thin_weakly_lex(H) or modes["multi"] != oracles.thin_multifinite(H):
                problems.append("completeness verdicts differ from the order's meets")
        elif label in oracles.CORPUS_WEAKLY_LEX:
            if modes["weak"] != oracles.CORPUS_WEAKLY_LEX[label]:
                problems.append("weak-limit verdict differs from corpus/README.md")
            if modes["multifinite"] != oracles.CORPUS_MULTIFINITE[label]:
                problems.append("multi-finite verdict differs from corpus/README.md")
            if label in oracles.CORPUS_POLY and not modes["poly"]:
                problems.append("polylimit verdict differs from corpus/README.md")
        principal = (a, b)[point]
        u = out["ultra"]
        for route in ("universal", "sigma"):
            if u[route] is None or u[route] is False or not oracles.isomorphic_objects(H, u[route], principal):
                problems.append(f"the {route} ultraproduct is not the principal member")
        if not u["formula_iso"]:
            problems.append("the filtered-colimit formula is not the principal member")
        if not u["closure"]["passed"]:
            problems.append("closure check failed for the host itself")
        if not out["fractions_isos_equivalence"]:
            problems.append("inverting the isomorphisms is not an equivalence")
        if isinstance(out["fractions_all"], list):
            comp = oracles.connected(H)
            n = H.n_objects
            expect = [[comp[x] == comp[y] for y in range(n)] for x in range(n)]
            if out["fractions_all"] != expect:
                problems.append("inverting every morphism does not connect exactly the zigzag components")
        if any(orth and not inj for orth, inj in out["orthogonality"]):
            problems.append("fc-orthogonal but not fc-injective")
        if out["sketch_models"] < 1:
            problems.append("the constant singleton is a model of every limit sketch")
        if not all(oracles.preserves_cone(F, cone) for F in models for cone in specs):
            problems.append("a sketch model does not preserve a specified limit")
        return canonical(out), problems, False


WORKLOADS = {w.name: w for w in (FlatCensus, CompletionBattery, UniversalSearch)}
