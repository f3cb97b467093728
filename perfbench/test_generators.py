"""Checks of the seeded input generators.

    python3 -m pytest -q perfbench/test_generators.py
    python3 perfbench/test_generators.py

One seed must give byte-identical JSON, and no generated input may be
rejected by ``fincat.validate_category``.
"""
from __future__ import annotations

import json
import random
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import workloads  # noqa: E402
from catengine import corpus, fincat  # noqa: E402

TABLES = gen.load_corpus(ROOT / "src" / "catengine" / "corpus", corpus.NAMES)


def _draws(seed: int) -> list[str]:
    rng = random.Random(seed)
    raws = [gen.permuted(raw, rng) for _, raw in workloads.stratified_draws(TABLES)]
    raws += [gen.poset(4, [(0, 1), (1, 2), (0, 3)]), gen.monoid(3, [(1, 0, 0), (0, 2, 1)])]
    raws += [gen.permuted(gen.finset_subcategory((1, 2)), rng)]
    for a in corpus.NAMES:
        b = rng.choice(corpus.NAMES)
        raws += [gen.corpus_sum(TABLES[a], TABLES[b]), gen.corpus_product(TABLES[a], TABLES[b])]
    raws += [gen.retag(raw, f"x{i}.") for i, raw in enumerate(raws[:5])]
    return [gen.dumps(raw) for raw in raws]


def test_same_seed_same_bytes():
    for seed in range(5):
        assert _draws(seed) == _draws(seed)
    assert _draws(0) != _draws(1)


def test_every_draw_validates():
    for seed in range(5):
        for text in _draws(seed):
            raw = json.loads(text)
            cat = fincat.validate_category(raw)
            assert (cat.n_objects, cat.n_morphisms) == gen.sizes(raw)


def test_workload_inputs_are_reproducible():
    work = Path(tempfile.mkdtemp(dir=ROOT))
    try:
        for cls in (workloads.FlatCensus, workloads.CompletionBattery):
            first = cls(3, ROOT, work).inputs
            assert first == cls(3, ROOT, work).inputs
            assert first != cls(4, ROOT, work).inputs
        first = workloads.UniversalSearch(3, ROOT, work)
        second = workloads.UniversalSearch(3, ROOT, work)
        assert first.inputs == second.inputs
        assert [j.id for j in first.pass_jobs(0)] == [j.id for j in first.pass_jobs(0, twin=True)]
    finally:
        shutil.rmtree(work)


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"{name}: ok")
