from __future__ import annotations

import contextlib
import signal

import pytest

from catengine import corpus
from catengine import fincat as fc
from catengine import presheaf as ps


@pytest.fixture(scope="session")
def cats():
    return corpus.all_categories()


def hom_functor(cat: fc.FiniteCategory, a: int) -> ps.SetFunctor:
    """The covariant functor of maps out of ``a``."""
    values = tuple(cat.hom(a, b) for b in range(cat.n_objects))
    actions = tuple(
        {m: cat.table[f][m] for m in values[cat.src[f]]} for f in range(cat.n_morphisms)
    )
    return ps.SetFunctor(cat, values, actions, name=f"hom({cat.objects[a]},-)")


@contextlib.contextmanager
def deadline(seconds: float, what: str):
    """Raise ``TimeoutError`` in the body if it still runs after ``seconds``."""

    def timeout(signum, frame):
        raise TimeoutError(f"{what} still runs after {seconds} s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def weakly_lex_names():
    return ("ONE", "ARROW", "CHAIN3")


@pytest.fixture(scope="session")
def multifinite_names():
    return ("ONE", "ARROW", "CHAIN3", "DISC2", "SPLIT")
