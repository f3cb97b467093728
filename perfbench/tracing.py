"""Benchmark-side tracing of the engine's public functions.

Wrappers are installed only in the traced run.  Each wrapped call records a
span (name, start, end, parent, job id) in flat arrays; self time is the
span's duration minus the time covered by its direct children.  A handful
of hot functions are counted only, with no span.

Installing a wrapper rebinds every module-level name in ``catengine`` that
refers to the wrapped object, so calls made through ``from .x import y``
bindings and through class attributes are seen as well as calls through
the defining module.
"""
from __future__ import annotations

import functools
import gzip
import sys
from array import array
from collections import defaultdict
from time import perf_counter

# layer -> wrapped public names, as "module:attribute" or "module:Class.method".
# Generators are timed per resumption; "count" names get a counter, no span.
SPANS = {
    "cli": [
        "cli:main", "cli:load_category", "cli:load_host", "cli:parse_bounds", "cli:output",
    ],
    "fincat": [
        "fincat:FiniteCategory.check", "fincat:validate_category", "fincat:full_subcategory",
        "fincat:opposite", "fincat:enumerate_functors", "fincat:all_cones", "fincat:all_cocones",
        "fincat:limit_in_category", "fincat:colimit_in_category",
    ],
    "presheaf": [
        "presheaf:find_iso", "presheaf:find_set_functor_iso", "presheaf:hom_set",
        "presheaf:colimit", "presheaf:weighted_colimit", "presheaf:quotient_presheaf",
        "presheaf:epi_mono_factorize", "presheaf:limit", "presheaf:product",
        "presheaf:equalizer", "presheaf:pullback", "presheaf:Presheaf.__post_init__",
        "presheaf:SetFunctor.__post_init__", "presheaf:NatTransformation.__post_init__",
        "presheaf:enumerate_set_functors",
    ],
    "virtlim": [
        "virtlim:virtual_limit", "virtlim:weak_limit", "virtlim:multilimit",
        "virtlim:multi_finite_limit", "virtlim:polylimit", "virtlim:fc_limit",
        "virtlim:generating_diagrams", "virtlim:swept_diagrams", "virtlim:classify_completeness",
    ],
    "flatness": [
        "flatness:is_flat_set_valued", "flatness:is_flat_via_elements", "flatness:is_flat",
        "flatness:left_covering", "flatness:finitely_multicontinuous", "flatness:fc_continuous",
        "flatness:merges_multi_finite", "flatness:is_lex_set_valued", "flatness:preserves_limit",
        "flatness:ConcreteFunctor.from_set_functor",
    ],
    "completions": [
        "completions:close", "completions:direct_regular", "completions:direct_pretopos",
        "completions:fam_f", "completions:ConcreteCompletion.as_category",
        "completions:verify_axioms", "completions:universal_property_check",
        "completions:completion_structure",
    ],
    "ultra": [
        "ultra:universal_ultraproduct", "ultra:sigma_category", "ultra:sigma_colimit",
        "ultra:categorical_ultraproduct", "ultra:closure_check",
    ],
    "localize": [
        "localize:validate_congruence", "localize:fractions", "localize:localization_universal_check",
        "localize:is_fc_orthogonal", "localize:is_fc_injective", "localize:sketch_models",
    ],
}
COUNTS = ["presheaf:NatTransformation.key"]
GENERATORS = {"fincat:enumerate_functors", "presheaf:enumerate_set_functors"}

# per-layer metric -> the wrapped names whose self time it sums
SELF_TIME = {
    "cli.self_s": SPANS["cli"],
    "fincat.check_s": ["fincat:FiniteCategory.check"],
    "fincat.enumerate_s": ["fincat:enumerate_functors"],
    "fincat.cone_search_s": [
        "fincat:all_cones", "fincat:all_cocones", "fincat:limit_in_category", "fincat:colimit_in_category",
    ],
    "presheaf.find_iso_s": ["presheaf:find_iso", "presheaf:find_set_functor_iso"],
    "presheaf.hom_set_s": ["presheaf:hom_set"],
    "presheaf.quotient_s": [
        "presheaf:colimit", "presheaf:weighted_colimit", "presheaf:quotient_presheaf",
        "presheaf:epi_mono_factorize",
    ],
    "presheaf.limit_s": ["presheaf:limit", "presheaf:product", "presheaf:equalizer", "presheaf:pullback"],
    "presheaf.construct_s": [
        "presheaf:Presheaf.__post_init__", "presheaf:SetFunctor.__post_init__",
        "presheaf:NatTransformation.__post_init__",
    ],
    "virtlim.detect_s": [
        "virtlim:weak_limit", "virtlim:multilimit", "virtlim:multi_finite_limit", "virtlim:polylimit",
    ],
    "virtlim.fc_limit_s": ["virtlim:fc_limit"],
    "flatness.self_s": [n for n in SPANS["flatness"] if n.split(":")[1] not in (
        "preserves_limit", "ConcreteFunctor.from_set_functor")],
    "completions.build_s": [
        "completions:close", "completions:direct_regular", "completions:direct_pretopos", "completions:fam_f",
    ],
    "completions.as_category_s": ["completions:ConcreteCompletion.as_category"],
    "completions.verify_axioms_s": ["completions:verify_axioms"],
    "completions.universal_property_s": [
        "completions:universal_property_check", "completions:completion_structure",
    ],
    "ultra.universal_s": ["ultra:universal_ultraproduct"],
    "ultra.sigma_s": ["ultra:sigma_category", "ultra:sigma_colimit"],
    "ultra.formula_s": ["ultra:categorical_ultraproduct", "ultra:closure_check"],
    "localize.fractions_s": [
        "localize:validate_congruence", "localize:fractions", "localize:localization_universal_check",
    ],
    "localize.orthogonality_s": ["localize:is_fc_orthogonal", "localize:is_fc_injective"],
    "localize.sketch_s": ["localize:sketch_models"],
}


def _resolve(modules: dict, name: str):
    mod, _, path = name.partition(":")
    owner = modules[mod]
    parts = path.split(".")
    for p in parts[:-1]:
        owner = getattr(owner, p)
    return owner, parts[-1]


def engine_modules() -> dict:
    return {
        name.split(".", 1)[1]: mod
        for name, mod in sys.modules.items()
        if name.startswith("catengine.") and mod is not None
    }


def originals() -> dict:
    """The currently bound object of every wrapped name, unwrapped."""
    modules = engine_modules()
    out = {}
    for name in [n for names in SPANS.values() for n in names] + COUNTS:
        owner, attr = _resolve(modules, name)
        out[name] = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return out


def assert_untraced() -> None:
    """Fail unless every wrapped name is bound to the engine's own object."""
    for name, obj in originals().items():
        fn = obj.__func__ if isinstance(obj, classmethod) else obj
        if hasattr(fn, "__perfbench_wrapped__"):
            raise RuntimeError(f"{name} is still wrapped in an untraced run")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.name = array("l")
        self.job = array("l")
        self.stack = [-1]
        self.job_id = -1
        self.busy = False  # True while the arrays are being updated; see child._on_alarm
        self.counts: dict[str, int] = defaultdict(int)
        self._installed: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _open(self, nid: int) -> int:
        self.busy = True
        i = len(self.start)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.parent.append(self.stack[-1])
        self.name.append(nid)
        self.job.append(self.job_id)
        self.stack.append(i)
        self.busy = False
        return i

    def _close(self, i: int) -> None:
        self.busy = True
        self.end[i] = perf_counter()
        self.stack.pop()
        self.busy = False

    def start_job(self, job_id: int) -> None:
        """Begin a job's spans; a job cut off by the deadline may have left
        its stack unbalanced, so it starts afresh."""
        self.job_id = job_id
        self.stack[:] = [-1]

    def _duration(self, i: int) -> float:
        # a span cut off between opening and its try block never closed
        return self.end[i] - self.start[i] if self.end[i] else 0.0

    def _wrap(self, name: str, fn, observer):
        nid = len(self.names)
        self.names.append(name)
        tracer = self

        if name in GENERATORS:
            def wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    i = tracer._open(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(i)
                    tracer.counts[name + "#items"] += 1
                    yield item
        else:
            before, after = observer or (None, None)

            def wrapper(*args, **kwargs):
                seen = before(args) if before is not None else None
                i = tracer._open(nid)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer._close(i)
                tracer.counts[name] += 1
                if after is not None:
                    after(seen, args, out)
                return out

        functools.update_wrapper(wrapper, fn)
        wrapper.__perfbench_wrapped__ = fn
        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        functools.update_wrapper(wrapper, fn)
        wrapper.__perfbench_wrapped__ = fn
        return wrapper

    # -- installing -----------------------------------------------------------

    def install(self, observers: dict) -> None:
        """Wrap every listed name.  ``observers[name]`` is a pair
        ``(before(args), after(seen, args, result))``; ``seen`` is what
        ``before`` returned for the same call.  Either may be None."""
        modules = engine_modules()
        for name, obj in originals().items():
            owner, attr = _resolve(modules, name)
            is_cm = isinstance(obj, classmethod)
            fn = obj.__func__ if is_cm else obj
            if name in COUNTS:
                wrapped = self._counter(name, fn)
            else:
                wrapped = self._wrap(name, fn, observers.get(name))
            new = classmethod(wrapped) if is_cm else wrapped
            if isinstance(owner, type):
                self._installed.append((owner, attr, obj))
                setattr(owner, attr, new)
                continue
            # rebind the name in every engine module that imported it
            for mod in modules.values():
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._installed.append((mod, key, fn))
                        setattr(mod, key, new)

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._installed):
            setattr(owner, attr, obj)
        self._installed.clear()

    # -- analysis ---------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        n = len(self.start)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self._duration(i)
        out: dict[str, float] = defaultdict(float)
        for i in range(n):
            out[self.names[self.name[i]]] += self._duration(i) - child[i]
        return out

    def write(self, path) -> int:
        """Write every span as a tab-separated row; returns the span count."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span\tjob\tparent\tname\tstart\tend\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.job[i]}\t{self.parent[i]}\t{self.names[self.name[i]]}"
                    f"\t{self.start[i]:.9f}\t{self.end[i]:.9f}\n"
                )
        return len(self.start)
