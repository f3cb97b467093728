"""Exception hierarchy shared by the engine.

Every error that reports a mathematical failure carries a ``witness``:
a small, replayable piece of data (ids of the offending morphisms,
the diagram that broke, the bound that tripped).
"""


class EngineError(Exception):
    """Base class for all engine errors."""


class ValidationError(EngineError):
    """Malformed or law-violating input data."""


class MissingComposite(ValidationError):
    def __init__(self, g, f):
        self.witness = (g, f)
        super().__init__(f"composite undefined for composable pair (g={g}, f={f})")


class IdentityViolation(ValidationError):
    def __init__(self, identity, other, got):
        self.witness = (identity, other)
        super().__init__(
            f"identity law broken: composing {identity} with {other} gave {got}"
        )


class AssociativityViolation(ValidationError):
    def __init__(self, h, g, f):
        self.witness = (h, g, f)
        super().__init__(f"associativity broken on triple (h={h}, g={g}, f={f})")


class FiberCapExceeded(EngineError):
    def __init__(self, size, cap, where=""):
        self.size, self.cap, self.where = size, cap, where
        super().__init__(f"value set of size {size} exceeds cap {cap} {where}".strip())


class BoundExceeded(EngineError):
    def __init__(self, kind, detail=""):
        self.kind = kind
        super().__init__(f"{kind} {detail}".strip())


class EnumerationTooLarge(EngineError):
    def __init__(self, count, cap):
        self.count, self.cap = count, cap
        super().__init__(f"enumeration of {count} candidates exceeds cap {cap}")


class NoWeakLimit(EngineError):
    def __init__(self, diagram_desc):
        self.witness = diagram_desc
        super().__init__(f"no weak limit for diagram {diagram_desc}")


class NoMultilimit(EngineError):
    def __init__(self, diagram_desc):
        self.witness = diagram_desc
        super().__init__(f"no multilimit for diagram {diagram_desc}")


class NoMultiFiniteLimit(EngineError):
    def __init__(self, diagram_desc):
        self.witness = diagram_desc
        super().__init__(f"no multi-finite limit for diagram {diagram_desc}")


class NotWeaklyLex(EngineError):
    def __init__(self, diagram_desc):
        self.witness = diagram_desc
        super().__init__(f"category is not weakly lex; witness diagram {diagram_desc}")


class NotCongruence(ValidationError):
    def __init__(self, axiom, witness):
        self.axiom, self.witness = axiom, witness
        super().__init__(f"congruence axiom '{axiom}' fails at {witness}")


class MissingPullback(EngineError):
    def __init__(self, along, of):
        self.witness = (along, of)
        super().__init__(f"required pullback missing: of {of} along {along}")


class DensityUnverified(EngineError):
    def __init__(self, obj):
        self.witness = obj
        super().__init__(f"subcategory not verified dense: object {obj} not a canonical colimit")
