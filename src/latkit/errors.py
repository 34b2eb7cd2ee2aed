"""Exception types shared across latkit."""


class LatkitError(Exception):
    """Base class for all latkit errors."""


class NotAPartialOrder(LatkitError):
    """The input relation has a cycle (violates antisymmetry)."""

    def __init__(self, cycle=None):
        self.cycle = cycle
        super().__init__(f"cover relation contains a cycle: {cycle}")


class NotALattice(LatkitError):
    """Some pair of elements lacks a unique lub or glb."""

    def __init__(self, pair, kind):
        self.pair = pair
        self.kind = kind  # "lub" | "glb"
        super().__init__(f"pair {pair} has no unique {kind}")


class SizeCapExceeded(LatkitError):
    """A construction or an enumeration request exceeds its size cap."""


class BadConfiguration(LatkitError):
    """A gadget triple violates one of its defining relations."""

    def __init__(self, relation):
        self.relation = relation
        super().__init__(f"gadget configuration violates: {relation}")


class UniversalityFailure(LatkitError):
    """A generator assignment failed to extend to a homomorphism."""

    def __init__(self, triple):
        self.triple = triple
        super().__init__(f"no surjective homomorphism for triple {triple}")


class M3N5Disagreement(LatkitError):
    """Equational and forbidden-sublattice verdicts disagree (bug sentinel)."""


class TheoremDisagreement(LatkitError):
    """The two sides of the structure-theorem check disagree (bug sentinel)."""


class InvariantViolated(LatkitError):
    """A result the construction guarantees did not hold (bug sentinel).

    Raised where a proof or a transcription forces a fact, so it signals
    a bug in latkit, never a property of the input.
    """


class PreconditionFailed(LatkitError):
    """A named precondition of a constructive procedure does not hold."""

    def __init__(self, name):
        self.name = name
        super().__init__(f"precondition failed: {name}")


class NotACover(LatkitError):
    """The given pair is not a covering pair."""


class BadAttachment(LatkitError):
    """A decoration or extension references an invalid configuration."""


class ChainExhausted(LatkitError):
    """Witness chains are too short to extract a ladder step."""


class SplitObstruction(LatkitError):
    """Ladder splitting hit an input outside the theorem's hypotheses."""

    def __init__(self, reason, witness=None):
        self.reason = reason
        self.witness = witness
        super().__init__(f"ladder split obstruction ({reason}): {witness}")


class UnboundGenerator(LatkitError):
    """A term evaluation met a generator without an assignment."""

    def __init__(self, name):
        self.name = name
        super().__init__(f"unbound generator: {name}")


class TermSyntaxError(LatkitError):
    """Term text failed to parse."""

    def __init__(self, message, position):
        self.position = position
        super().__init__(f"{message} (at position {position})")
