"""Seeded generators of finite categories, emitted as composition-table JSON.

Every generator builds its category from an explicit model (maps between
finite sets, an order relation, corpus tables), never from engine code, so
the engine sees only the emitted JSON and has to validate it like any user
input.  The seed enters through ``permuted`` (the order in which objects
and morphisms are listed, hence the engine's integer ids); the same
``random.Random`` state always yields byte-identical JSON.

Object and morphism names carry a ``tag`` prefix when one is given: two
draws that differ only in their tag are the same category up to renaming,
but the engine's module caches (keyed by the exact tables) treat them as
different inputs.
"""
from __future__ import annotations

import itertools
import json
from pathlib import Path


def _emit(name, objects, morphisms, identities, compose, tag=""):
    """Composition-table JSON in the layout ``fincat.validate_category`` reads.

    ``morphisms`` is a list of ``(id, src, tgt)``; ``compose(g, f)`` gives the
    id of ``g∘f`` for composable pairs.  Composites with an identity factor
    are left implicit, as in the shipped corpus.
    """
    p = tag
    idents = set(identities.values())
    rows = []
    for (g, gs, _) in morphisms:
        for (f, _, ft) in morphisms:
            if ft == gs and g not in idents and f not in idents:
                rows.append({"g": p + g, "f": p + f, "result": p + compose(g, f)})
    return {
        "name": name,
        "objects": [p + o for o in objects],
        "morphisms": [{"id": p + m, "src": p + s, "tgt": p + t} for (m, s, t) in morphisms],
        "identities": {p + o: p + m for o, m in identities.items()},
        "compose": rows,
    }


def dumps(raw: dict) -> str:
    return json.dumps(raw, sort_keys=True)


# -- parsing the corpus tables (benchmark-side, independent of the engine) ----


class Table:
    """A composition table read straight from JSON; identities made explicit."""

    def __init__(self, raw: dict):
        self.name = raw.get("name", "C")
        self.objects = list(raw["objects"])
        self.morphisms = [(r["id"], r["src"], r["tgt"]) for r in raw["morphisms"]]
        self.identities = dict(raw["identities"])
        self.comp = {(r["g"], r["f"]): r["result"] for r in raw.get("compose", [])}
        for (m, s, t) in self.morphisms:
            self.comp[(m, self.identities[s])] = m
            self.comp[(self.identities[t], m)] = m

    def compose(self, g, f):
        return self.comp[(g, f)]

    def raw(self, tag="", name=None):
        return _emit(name or self.name, self.objects, self.morphisms, self.identities, self.compose, tag)


def load_corpus(corpus_dir: Path, names) -> dict:
    return {n: Table(json.loads((corpus_dir / f"{n}.json").read_text())) for n in names}


# -- generators ----------------------------------------------------------------


def poset(n: int, relations, tag="", name="PO"):
    """The thin category of the order generated by ``relations`` on n points."""
    le = {(i, i) for i in range(n)} | set(relations)
    changed = True
    while changed:
        changed = False
        for (a, b), (c, d) in itertools.product(list(le), list(le)):
            if b == c and (a, d) not in le:
                le.add((a, d))
                changed = True
    objects = [f"p{i}" for i in range(n)]
    morphisms = [
        (("1" if a == b else "r") + f"{a}{b}", f"p{a}", f"p{b}") for (a, b) in sorted(le)
    ]
    name_of = {(s, t): m for (m, s, t) in morphisms}
    src_of = {m: s for (m, s, _) in morphisms}
    tgt_of = {m: t for (m, _, t) in morphisms}

    def compose(g, f):
        return name_of[(src_of[f], tgt_of[g])]

    return _emit(name, objects, morphisms, {f"p{i}": f"1{i}{i}" for i in range(n)}, compose, tag)


# every order on three points up to isomorphism
POSETS_3 = ((), ((0, 1),), ((0, 1), (1, 2)), ((0, 1), (0, 2)), ((0, 2), (1, 2)))


def monoid_catalogue(n: int):
    """One representative map per conjugacy class of self-maps of n points:
    the monoids they generate are, up to isomorphism, every monoid
    generated by one self-map of n points."""
    out = []
    perms = list(itertools.permutations(range(n)))
    for f in itertools.product(range(n), repeat=n):
        canon = min(tuple(p[f[p.index(i)]] for i in range(n)) for p in perms)
        if canon not in out:
            out.append(canon)
    return out


def _generated(n, gens):
    ident = tuple(range(n))
    elems, frontier = {ident}, [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = tuple(g[x[i]] for i in range(n))
                if y not in elems:
                    elems.add(y)
                    nxt.append(y)
        frontier = nxt
    return elems


def monoid(n: int, gens, tag="", name="TM"):
    """The submonoid of End({0..n-1}) generated by the given maps."""
    ident = tuple(range(n))
    order = sorted(_generated(n, gens), key=lambda t: (t != ident, t))
    label = {t: ("e" if t == ident else "m" + "".join(map(str, t))) for t in order}
    by_label = {label[t]: t for t in order}

    def compose(g, f):
        tg, tf = by_label[g], by_label[f]
        return label[tuple(tg[tf[i]] for i in range(n))]

    return _emit(name, ["*"], [(label[t], "*", "*") for t in order], {"*": "e"}, compose, tag)


def permuted(raw: dict, rng) -> dict:
    """The same category with its objects and morphisms listed in a seeded
    random order, so the engine assigns them different integer ids."""
    out = dict(raw)
    out["objects"] = rng.sample(raw["objects"], len(raw["objects"]))
    out["morphisms"] = rng.sample(raw["morphisms"], len(raw["morphisms"]))
    return out


def finset_subcategory(sizes, tag="", name=None):
    """The full subcategory of finite sets on the given cardinalities."""
    sizes = sorted(sizes)
    objects = [f"s{k}" for k in sizes]
    morphisms = []
    fn = {}
    for a in sizes:
        for b in sizes:
            for t in itertools.product(range(b), repeat=a):
                m = f"{a}>{b}:" + "".join(map(str, t))
                morphisms.append((m, f"s{a}", f"s{b}"))
                fn[m] = (a, b, t)

    def compose(g, f):
        (a, _, tf), (_, c, tg) = fn[f], fn[g]
        return f"{a}>{c}:" + "".join(str(tg[i]) for i in tf)

    identities = {f"s{k}": f"{k}>{k}:" + "".join(map(str, range(k))) for k in sizes}
    return _emit(name or f"FS{''.join(map(str, sizes))}", objects, morphisms, identities, compose, tag)


def corpus_sum(A: Table, B: Table, tag="", name=None):
    """The disjoint union of two corpus categories."""
    objects = [f"L{o}" for o in A.objects] + [f"R{o}" for o in B.objects]
    morphisms = [(f"L{m}", f"L{s}", f"L{t}") for (m, s, t) in A.morphisms]
    morphisms += [(f"R{m}", f"R{s}", f"R{t}") for (m, s, t) in B.morphisms]
    identities = {f"L{o}": f"L{m}" for o, m in A.identities.items()}
    identities.update({f"R{o}": f"R{m}" for o, m in B.identities.items()})

    def compose(g, f):
        side = A if g[0] == "L" else B
        return g[0] + side.compose(g[1:], f[1:])

    return _emit(name or f"{A.name}+{B.name}", objects, morphisms, identities, compose, tag)


def corpus_product(A: Table, B: Table, tag="", name=None):
    """The product of two corpus categories, composed componentwise."""
    objects = [f"{a}.{b}" for a in A.objects for b in B.objects]
    morphisms = [
        (f"{f}.{g}", f"{sa}.{sb}", f"{ta}.{tb}")
        for (f, sa, ta) in A.morphisms
        for (g, sb, tb) in B.morphisms
    ]
    pair = {m: (m.split(".")[0], m.split(".")[1]) for (m, _, _) in morphisms}
    identities = {f"{a}.{b}": f"{A.identities[a]}.{B.identities[b]}" for a in A.objects for b in B.objects}

    def compose(g, f):
        (g1, g2), (f1, f2) = pair[g], pair[f]
        return f"{A.compose(g1, f1)}.{B.compose(g2, f2)}"

    return _emit(name or f"{A.name}x{B.name}", objects, morphisms, identities, compose, tag)


def retag(raw: dict, tag: str) -> dict:
    """The same table with every object and morphism name prefixed by ``tag``."""
    return {
        "name": raw["name"],
        "objects": [tag + o for o in raw["objects"]],
        "morphisms": [{"id": tag + r["id"], "src": tag + r["src"], "tgt": tag + r["tgt"]} for r in raw["morphisms"]],
        "identities": {tag + o: tag + m for o, m in raw["identities"].items()},
        "compose": [{k: tag + v for k, v in r.items()} for r in raw.get("compose", [])],
    }


def sizes(raw: dict) -> tuple[int, int]:
    return len(raw["objects"]), len(raw["morphisms"])
