"""Command-line entry point.

Exit codes: 0 all checks passed; 1 a mathematical check failed (the report
carries a witness); 2 input or validation error; 3 a bound tripped.
Reports are plain JSON with sorted keys and no timestamps, so identical
configurations produce byte-identical output.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

from . import corpus
from .errors import (
    BoundExceeded,
    EngineError,
    EnumerationTooLarge,
    FiberCapExceeded,
    ValidationError,
)
from . import fincat as fc
from . import presheaf as ps
from . import virtlim as vl
from . import flatness as fl
from . import completions as cp
from . import ultra
from . import localize as lz

EXIT_OK, EXIT_MATH, EXIT_INPUT, EXIT_BOUND = 0, 1, 2, 3


def load_category(spec: str, read=fc.validate_category) -> fc.FiniteCategory:
    """A corpus name, or a file whose JSON ``read`` turns into a category."""
    if spec in corpus.NAMES:
        return corpus.load(spec)
    path = Path(spec)
    if not path.exists():
        raise ValidationError(f"no corpus category or file named {spec!r}")
    return read(json.loads(path.read_text()))


def load_host(spec: str) -> fc.FiniteCategory:
    """A corpus name, a category file, or a completion file as a category."""

    def read(data) -> fc.FiniteCategory:
        if "flavor" in data and "objects" in data and "base" in data:
            return cp.completion_from_json(data).as_category()
        return fc.validate_category(data)

    return load_category(spec, read)


def _labels(xs) -> bool:
    return all(isinstance(x, (str, int)) for x in xs)


def load_set_functor(path: str, cat: fc.FiniteCategory) -> ps.SetFunctor:
    """A functor file: ``values`` maps object names to lists of strings or
    integers, and ``maps`` maps morphism names to objects whose values are
    such labels.  Anything else is an input error."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValidationError("a functor file is a JSON object")
    given, maps = data["values"], data.get("maps", {})
    if not isinstance(given, dict) or not all(isinstance(v, list) and _labels(v) for v in given.values()):
        raise ValidationError("functor values must map object names to lists of strings or integers")
    if not isinstance(maps, dict) or not all(isinstance(t, dict) and _labels(t.values()) for t in maps.values()):
        raise ValidationError("functor maps must map morphism names to objects of strings or integers")
    values = tuple(tuple(given.get(o, [])) for o in cat.objects)
    actions = []
    for m in range(cat.n_morphisms):
        table = maps.get(cat.morphisms[m])
        if table is None:
            if cat.is_identity(m):
                table = {x: x for x in values[cat.src[m]]}
            else:
                raise ValidationError(f"functor file missing the action of {cat.morphisms[m]}")
        actions.append(dict(table))
    return ps.SetFunctor(cat, values, tuple(actions), name=data.get("name", "F"))


def parse_bounds(text: str | None) -> cp.Bounds:
    """``key=int,...`` over the fields of ``Bounds``; anything else is an input error."""
    kwargs = {}
    names = [f.name for f in dataclasses.fields(cp.Bounds)]
    if text:
        for part in text.split(","):
            k, eq, v = part.partition("=")
            k = k.strip()
            if not eq:
                raise ValidationError(f"bound {part!r} is not of the form key=value")
            if k not in names:
                raise ValidationError(f"unknown bound {k!r}; known: {', '.join(names)}")
            try:
                kwargs[k] = int(v)
            except ValueError:
                raise ValidationError(f"bound {k} needs an integer, got {v!r}") from None
    return cp.Bounds(**kwargs)


def emit_dot(cat: fc.FiniteCategory) -> str:
    lines = [f'digraph "{cat.name}" {{']
    for o in sorted(cat.objects):
        lines.append(f'  "{o}";')
    edges = sorted(
        (cat.objects[cat.src[m]], cat.objects[cat.tgt[m]], cat.morphisms[m])
        for m in range(cat.n_morphisms)
        if not cat.is_identity(m)
    )
    for (a, b, name) in edges:
        lines.append(f'  "{a}" -> "{b}" [label="{name}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def output(args, payload, text=None):
    if args.format in ("dot", "text") and text is not None:
        sys.stdout.write(text)
    else:
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    if getattr(args, "out", None):
        Path(args.out).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


# -- commands -------------------------------------------------------------------


def cmd_validate(args) -> int:
    cat = load_category(args.category)
    payload = {
        "category": cat.name,
        "objects": len(cat.objects),
        "morphisms": len(cat.morphisms),
        "valid": True,
        "cauchy_complete": fc.is_cauchy_complete(cat),
        "seed": args.seed,
    }
    output(args, payload, emit_dot(cat) if args.format == "dot" else None)
    return EXIT_OK


def _parse_diagram(cat: fc.FiniteCategory, text: str) -> fc.Diagram:
    kind, _, rest = text.partition(":")
    if kind == "empty":
        return fc.empty_diagram(cat)
    if kind == "pair":
        a, b = rest.split(",")
        return fc.pair_diagram(cat, cat.object_index(a), cat.object_index(b))
    if kind == "parallel":
        u, v = rest.split(",")
        return fc.parallel_pair_diagram(cat, cat.morphism_index(u), cat.morphism_index(v))
    raise ValidationError(f"unknown diagram spec {text!r}; use empty | pair:A,B | parallel:u,v")


def cmd_analyze_limits(args) -> int:
    cat = load_category(args.category)
    modes = vl.MODES if args.mode == "all" else (args.mode,)
    reports = {m: vl.classify_completeness(cat, m, args.sweep_bound).to_json() for m in modes}
    payload = {"category": cat.name, "seed": args.seed, "reports": reports}
    text = None
    if args.diagram:
        v = vl.virtual_limit(cat, _parse_diagram(cat, args.diagram))
        payload["weight_fibers"] = list(v.weight.fiber_sizes())
        if args.format == "dot":
            text = emit_dot(vl.weight_elements_category(v))
    output(args, payload, text)
    return EXIT_OK


def cmd_check_flat(args) -> int:
    cat = load_category(args.category)
    data = json.loads(Path(args.functor).read_text())
    target = None
    if args.target:
        target = cp.completion_from_json(json.loads(Path(args.target).read_text()))
    if "objects" in data and target is not None:
        # a functor into the completion, given by object/morphism names
        Ecat = target.as_category()
        omap = tuple(Ecat.object_index(data["objects"][o]) for o in cat.objects)
        mmap = []
        for m in range(cat.n_morphisms):
            if cat.morphisms[m] in data.get("morphisms", {}):
                mmap.append(Ecat.morphism_index(data["morphisms"][cat.morphisms[m]]))
            elif cat.is_identity(m):
                mmap.append(Ecat.identity[omap[cat.src[m]]])
            else:
                raise ValidationError(f"functor file missing the image of {cat.morphisms[m]}")
        fd = fc.FunctorData(cat, Ecat, omap, tuple(mmap))
        F = target.concrete_functor(fd, name=data.get("name", "F"))
    else:
        F = load_set_functor(args.functor, cat)
    method = args.method
    fns = {
        "def": fl.is_flat,
        "elements": fl.is_flat_via_elements,
        "covering": fl.left_covering,
        "multi": fl.finitely_multicontinuous,
        "fc": fl.fc_continuous,
        "merge": fl.merges_multi_finite,
    }
    if method == "elements" and not isinstance(F, ps.SetFunctor):
        raise ValidationError("the elements-category test needs a set-valued functor")
    if method == "elements":
        verdict = fns[method](F)
    else:
        verdict = fns[method](F, bound=args.sweep_bound)
    payload = {
        "category": cat.name,
        "functor": F.name,
        "method": method,
        "seed": args.seed,
        "verdict": verdict.to_json(),
    }
    text = None
    if args.format == "dot":
        if not isinstance(F, ps.SetFunctor):
            raise ValidationError("the elements rendering needs a set-valued functor")
        text = emit_dot(fc.elements_category(F))
    output(args, payload, text)
    return EXIT_OK if verdict.flat else EXIT_MATH


def cmd_build_completion(args) -> int:
    cat = load_category(args.category)
    bounds = parse_bounds(args.bounds)
    if args.flavor == "fam_f":
        E = cp.fam_f(cat, bounds.max_arity + 1, bounds)
    elif args.construction == "direct" and args.flavor == "reg":
        E = cp.direct_regular(cat, bounds)
    elif args.construction == "direct" and args.flavor == "pret":
        E = cp.direct_pretopos(cat, bounds)
    else:
        E = cp.close(cat, args.flavor, bounds)
    payload = E.to_json()
    payload["seed"] = args.seed
    output(args, payload)
    return EXIT_OK


def cmd_verify_axioms(args) -> int:
    if args.completion:
        E = cp.completion_from_json(json.loads(Path(args.completion).read_text()))
    else:
        cat = load_category(args.category)
        bounds = parse_bounds(args.bounds)
        if args.flavor == "fam_f":
            E = cp.fam_f(cat, 2 * bounds.max_arity, bounds)
        else:
            E = cp.close(cat, args.flavor, bounds)
    scope = [int(s) for s in args.scope.split(",")] if args.scope else None
    if scope is None and E.flavor == "fam_f":
        # judge the battery on the region whose limits stay within bounds
        arity = parse_bounds(args.bounds).max_arity
        scope = [
            i
            for i, p in enumerate(E.provenance)
            if p.detail == "(empty)" or len(p.detail.split(",")) <= arity
        ]
    report = cp.verify_axioms(E, scope=scope, flavor=args.flavor or None)
    payload = report.to_json()
    payload["seed"] = args.seed
    output(args, payload)
    return EXIT_OK if report.passed else EXIT_MATH


def cmd_universal_property(args) -> int:
    cat = load_category(args.category)
    bounds = parse_bounds(args.bounds)
    if args.flavor == "lext" or args.flavor == "fam_f":
        E = cp.fam_f(cat, bounds.max_arity, bounds)
        flavor = "lext"
    else:
        E = cp.close(cat, args.flavor, bounds)
        flavor = args.flavor
    report = cp.universal_property_check(
        cat, E, args.value_bound, flavor=flavor, cap=bounds.enumeration_cap, seed=args.seed
    )
    payload = report.to_json()
    payload["seed"] = args.seed
    output(args, payload)
    return EXIT_OK if report.correspondence else EXIT_MATH


def cmd_ultraproduct(args) -> int:
    host = load_host(args.host)
    entries = [kv.split(":") for kv in args.family.split(",")]
    points = [k for k, _ in entries]
    family = tuple(host.object_index(v) for _, v in entries)
    kind, _, point = args.ultrafilter.partition(":")
    if kind != "principal":
        raise ValidationError("only principal ultrafilters exist on a finite ground set")
    uf = ultra.principal_ultrafilter(points, point)
    order = [points.index(x) for x in uf.ground]
    inst = ultra.UltraInstance(host, tuple(family[i] for i in order), uf)
    uu = ultra.universal_ultraproduct(inst)
    col = ultra.sigma_colimit(inst)
    agree = uu is not None and col is not None and any(
        m in host.isos() for m in host.hom(uu.obj, col.apex)
    )
    payload = {
        "host": host.name,
        "seed": args.seed,
        "ultrafilter": {"ground": [repr(x) for x in uf.ground], "principal_point": repr(uf.principal_point)},
        "universal_ultraproduct": host.objects[uu.obj] if uu else None,
        "sigma_colimit": host.objects[col.apex] if col else None,
        "cross_checks": {"sigma_agrees": bool(agree)},
    }
    output(args, payload)
    if uu is None:
        return EXIT_MATH
    return EXIT_OK if agree else EXIT_MATH


def cmd_localize(args) -> int:
    cat = load_category(args.category)
    data = json.loads(Path(args.congruence).read_text())
    members = [cat.morphism_index(m) for m in data["members"]]
    cong = lz.validate_congruence(cat, members, data.get("kind", "pullback"))
    frac = lz.fractions(cong)
    payload = {
        "category": cat.name,
        "kind": cong.kind,
        "notes": list(cong.notes),
        "localized_objects": len(frac.category.objects),
        "localized_morphisms": len(frac.category.morphisms),
        "projection_is_equivalence": frac.projection.is_equivalence(),
        "seed": args.seed,
    }
    if args.check_universal:
        targets = [load_category(t) for t in args.targets.split(",")]
        rep = lz.localization_universal_check(frac, targets)
        payload["universal_check"] = rep.to_json()
        output(args, payload)
        return EXIT_OK if rep.passed else EXIT_MATH
    output(args, payload)
    return EXIT_OK


def cmd_orthogonality(args) -> int:
    host = load_host(args.host)
    data = json.loads(Path(args.cone).read_text())
    cone = lz.FcCone(
        host,
        host.object_index(data["vertex"]),
        tuple(host.morphism_index(m) for m in data["legs"]),
    )
    objs = (
        [host.object_index(o) for o in args.objects.split(",")]
        if args.objects
        else list(range(host.n_objects))
    )
    results = {}
    violations = 0
    for o in objs:
        orth = lz.is_fc_orthogonal(cone, o)
        inj = lz.is_fc_injective(cone, o)
        if orth and not inj:
            violations += 1
        results[host.objects[o]] = {"orthogonal": orth, "injective": inj}
    payload = {"host": host.name, "seed": args.seed, "results": results}
    output(args, payload)
    return EXIT_OK if violations == 0 else EXIT_MATH


def _cone_from_spec(cat: fc.FiniteCategory, spec: dict) -> fc.Cone:
    kind = spec["kind"]
    apex = cat.object_index(spec["apex"])
    if kind == "terminal":
        return fc.Cone(fc.empty_diagram(cat), apex, ())
    if kind == "product":
        legs = tuple(cat.morphism_index(m) for m in spec["legs"])
        diagram = fc.pair_diagram(cat, cat.tgt[legs[0]], cat.tgt[legs[1]])
        return fc.Cone(diagram, apex, legs)
    if kind == "equalizer":
        u, v = (cat.morphism_index(m) for m in spec["parallel"])
        into = cat.morphism_index(spec["into"])
        diagram = fc.parallel_pair_diagram(cat, u, v)
        return fc.Cone(diagram, apex, (into, cat.table[u][into]))
    raise ValidationError(f"unknown limit spec kind {kind!r}")


def cmd_sketch_models(args) -> int:
    cat = load_category(args.category)
    data = json.loads(Path(args.sketch).read_text())
    limit_specs = tuple(_cone_from_spec(cat, s) for s in data.get("limits", []))
    coproduct_specs = []
    for s in data.get("coproducts", []):
        legs = tuple(cat.morphism_index(m) for m in s["legs"])
        diagram = fc.pair_diagram(cat, cat.src[legs[0]], cat.src[legs[1]])
        coproduct_specs.append(fc.Cocone(diagram, cat.object_index(s["apex"]), legs))
    fc_epis = tuple(
        tuple(cat.morphism_index(m) for m in fam) for fam in data.get("fc_epis", [])
    )
    sk = lz.Sketch(cat, limit_specs, tuple(coproduct_specs), fc_epis)
    models = lz.sketch_models(sk, args.value_bound)
    payload = {
        "category": cat.name,
        "seed": args.seed,
        "value_bound": args.value_bound,
        "models": [
            {cat.objects[a]: [repr(x) for x in F.values[a]] for a in range(cat.n_objects)}
            for F in models
        ],
        "count": len(models),
    }
    output(args, payload)
    return EXIT_OK


def cmd_report(args) -> int:
    payload = {"seed": args.seed, "corpus": {}}
    for name in corpus.NAMES:
        cat = corpus.load(name)
        entry = {
            "objects": len(cat.objects),
            "morphisms": len(cat.morphisms),
            "cauchy_complete": fc.is_cauchy_complete(cat),
            "completeness": {
                mode: vl.classify_completeness(cat, mode).to_json() for mode in vl.MODES
            },
            "representables_flat": all(
                fl.is_flat(_hom_functor(cat, a)).flat for a in range(cat.n_objects)
            ),
            "constant_singleton_flat": fl.is_flat(ps.constant_set_functor(cat)).flat,
            "iso_localization_is_equivalence": lz.fractions(
                lz.validate_congruence(cat, cat.isos(), "pullback")
            ).projection.is_equivalence(),
        }
        payload["corpus"][name] = entry
    output(args, payload)
    return EXIT_OK


def _hom_functor(cat: fc.FiniteCategory, a: int) -> ps.SetFunctor:
    values = tuple(cat.hom(a, b) for b in range(cat.n_objects))
    actions = tuple(
        {m: cat.table[f][m] for m in values[cat.src[f]]} for f in range(cat.n_morphisms)
    )
    return ps.SetFunctor(cat, values, actions, name=f"hom({cat.objects[a]},-)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and each call of ``main`` gets a fresh namespace."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--format", choices=["json", "dot", "text"], default="json")
    common.add_argument("--out", help="also write the JSON report to this path")

    p = argparse.ArgumentParser(prog="catengine", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True, parser_class=type(p))

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    s = add_parser("validate", help="validate a category description")
    s.add_argument("category")
    s.set_defaults(fn=cmd_validate)

    s = add_parser("analyze-limits", help="classify virtual limits")
    s.add_argument("category")
    s.add_argument("--mode", choices=("all",) + vl.MODES, default="all")
    s.add_argument("--sweep-bound", type=int, default=0)
    s.add_argument("--diagram", help="empty | pair:A,B | parallel:u,v (with --format dot, renders the cone category)")
    s.set_defaults(fn=cmd_analyze_limits)

    s = add_parser("check-flat", help="decide flatness of a functor")
    s.add_argument("--category", required=True)
    s.add_argument("--functor", required=True)
    s.add_argument("--target")
    s.add_argument("--method", choices=["def", "elements", "covering", "multi", "fc", "merge"], default="def")
    s.add_argument("--sweep-bound", type=int, default=0)
    s.set_defaults(fn=cmd_check_flat)

    s = add_parser("build-completion", help="materialize a completion")
    s.add_argument("--category", required=True)
    s.add_argument("--flavor", choices=cp.FLAVORS, default="pret")
    s.add_argument("--construction", choices=["close", "direct"], default="direct")
    s.add_argument("--bounds")
    s.set_defaults(fn=cmd_build_completion)

    s = add_parser("verify-axioms", help="run the exactness battery")
    s.add_argument("--completion")
    s.add_argument("--category")
    s.add_argument("--flavor", choices=cp.FLAVORS, default=None)
    s.add_argument("--bounds")
    s.add_argument("--scope")
    s.set_defaults(fn=cmd_verify_axioms)

    s = add_parser("universal-property", help="extension/restriction equivalence")
    s.add_argument("--category", required=True)
    s.add_argument("--flavor", choices=cp.FLAVORS, default="lext")
    s.add_argument("--value-bound", type=int, default=2)
    s.add_argument("--bounds")
    s.set_defaults(fn=cmd_universal_property)

    s = add_parser("ultraproduct", help="universal ultraproduct of a family")
    s.add_argument("--host", required=True)
    s.add_argument("--family", required=True, help="x0:objA,x1:objB")
    s.add_argument("--ultrafilter", required=True, help="principal:x0")
    s.set_defaults(fn=cmd_ultraproduct)

    s = add_parser("localize", help="category of fractions")
    s.add_argument("--category", required=True)
    s.add_argument("--congruence", required=True)
    s.add_argument("--check-universal", action="store_true")
    s.add_argument("--targets", default="ONE,DISC2")
    s.set_defaults(fn=cmd_localize)

    s = add_parser("orthogonality", help="fc-orthogonality and injectivity")
    s.add_argument("--host", required=True)
    s.add_argument("--cone", required=True)
    s.add_argument("--objects")
    s.set_defaults(fn=cmd_orthogonality)

    s = add_parser("sketch-models", help="bounded models of a sketch")
    s.add_argument("--category", required=True)
    s.add_argument("--sketch", required=True)
    s.add_argument("--value-bound", type=int, default=2)
    s.set_defaults(fn=cmd_sketch_models)

    s = add_parser("report", help="deterministic corpus battery")
    s.set_defaults(fn=cmd_report)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (BoundExceeded, EnumerationTooLarge, FiberCapExceeded) as exc:
        sys.stderr.write(f"bound exceeded: {exc}\n")
        return EXIT_BOUND
    except (ValidationError, FileNotFoundError, json.JSONDecodeError, KeyError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except EngineError as exc:
        sys.stderr.write(f"check failed: {exc}\n")
        return EXIT_MATH


if __name__ == "__main__":
    sys.exit(main())
