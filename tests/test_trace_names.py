"""The benchmark's tracer wraps engine functions by name; every name it
lists must still resolve on the engine, or a traced run would fail."""
from __future__ import annotations

import importlib.util
import inspect
import sys
from pathlib import Path

import catengine.cli  # noqa: F401  (imports every engine module the tracer names)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(name: str):
    mod, _, path = name.partition(":")
    owner = sys.modules[f"catengine.{mod}"]
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_trace_name_resolves():
    tracing = load_tracing()
    names = [n for ns in tracing.SPANS.values() for n in ns] + tracing.COUNTS + sorted(tracing.GENERATORS)
    missing = []
    for name in names:
        try:
            resolve(name)
        except (KeyError, AttributeError):
            missing.append(name)
    assert not missing
    assert all(callable(resolve(n)) for n in names)
    assert all(inspect.isgeneratorfunction(resolve(n)) for n in tracing.GENERATORS)
    # names the engine keeps in part because the tracer wraps them
    assert {
        "flatness:is_flat_set_valued", "presheaf:weighted_colimit",
        "flatness:ConcreteFunctor.from_set_functor", "cli:parse_bounds",
    } <= set(names)
