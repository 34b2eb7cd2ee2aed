"""Jonsson's D-sequence: join covers, refinement, the layered subsets
D_0 <= D_1 <= ..., their duals, and the four-quadrant verdict.

Definitions (standard, since the source material uses but does not
state them): a join cover of x is a nonempty X with x <= join(X); it is
nontrivial if no member is >= x.  X' refines X (X' << X) iff every
member of X' lies below some member of X.  A nontrivial join cover X is
minimal if every nontrivial join cover Y << X contains X.  Minimal
covers are antichains of join-irreducible elements, and on a finite
lattice that characterization is local: X is minimal iff dropping any
member, or replacing it by its unique lower cover, breaks the cover.

D_0 is the set of join-prime elements (x <= join(X) implies x <= some
member, over nonempty X).  By that quantifier reading the bottom
element is join prime: it lies below every member of every cover.
D_{k+1} is the set of x whose every nontrivial join cover refines to a
cover inside D_k; on a finite lattice this holds iff every minimal
nontrivial join cover of x is contained in D_k.
"""

from dataclasses import dataclass

from .core import dual


def refines(L, xp, x):
    """X' << X: every member of X' is below some member of X."""
    return all(any(L.le(a, b) for b in x) for a in xp)


def min_join_covers(L, x):
    """All minimal nontrivial join covers of x.

    Searching antichains of join-irreducibles is complete: any
    nontrivial cover refines to a minimal one and minimal covers have
    join-irreducible members.  The antichains grow depth-first in index
    order with a running join, and one that covers x is not extended: a
    proper superset of a cover has a redundant member.  Every proper
    subset of a minimal cover fails to cover x, so the search reaches
    each minimal cover through its prefixes.
    """
    jis = [j for j in L.join_irreducibles() if not L.le(x, j)]
    lower_star = {j: L.lower_covers[j][0] for j in jis}
    covers = []

    def minimal(X):
        for drop in X:
            rest = [y for y in X if y != drop]
            if rest and L.le(x, L.join_all(rest)):
                return False  # member is redundant
            if L.le(x, L.join_all(rest + [lower_star[drop]])):
                return False  # member can be lowered
        return True

    def extend(prefix, joined, rest):
        for pos, cand in enumerate(rest):
            if all(L.incomparable(cand, p) for p in prefix):
                X, up = prefix + [cand], L.join(joined, cand)
                if not L.le(x, up):
                    extend(X, up, rest[pos + 1 :])
                elif minimal(X):
                    covers.append(tuple(X))

    extend([], L.bottom, jis)
    covers.sort()
    return covers


def join_primes(L):
    """Elements with no nontrivial join cover at all."""
    return tuple(x for x in range(L.n) if not min_join_covers(L, x))


@dataclass(frozen=True)
class DSequence:
    layers: tuple  # increasing tuple of sorted element tuples
    stabilized_at: int
    d_full: tuple
    dual_layers: tuple
    dual_stabilized_at: int
    dual_full: tuple
    quadrant: str  # "(=,=)" etc., ASCII "!=" for the negative case

    def to_json_dict(self):
        return {
            "layers": [list(layer) for layer in self.layers],
            "stabilized_at": self.stabilized_at,
            "d_full": list(self.d_full),
            "dual_layers": [list(layer) for layer in self.dual_layers],
            "dual_stabilized_at": self.dual_stabilized_at,
            "dual_full": list(self.dual_full),
            "quadrant": self.quadrant,
        }


def _layers(L):
    covers_of = {x: min_join_covers(L, x) for x in range(L.n)}
    current = frozenset(x for x in range(L.n) if not covers_of[x])
    layers = [current]
    while True:
        nxt = frozenset(
            x
            for x in range(L.n)
            if all(set(X) <= current for X in covers_of[x])
        )
        if nxt == current:
            break
        layers.append(nxt)
        current = nxt
    return layers


def d_sequence(L):
    """Compute D(L), its dual, and the quadrant verdict."""
    layers = _layers(L)
    dual_layers = _layers(dual(L))
    full = layers[-1]
    dual_full = dual_layers[-1]
    everything = frozenset(range(L.n))
    left = "=" if full == everything else "!="
    right = "=" if dual_full == everything else "!="
    return DSequence(
        layers=tuple(tuple(sorted(layer)) for layer in layers),
        stabilized_at=len(layers) - 1,
        d_full=tuple(sorted(full)),
        dual_layers=tuple(tuple(sorted(layer)) for layer in dual_layers),
        dual_stabilized_at=len(dual_layers) - 1,
        dual_full=tuple(sorted(dual_full)),
        quadrant=f"({left},{right})",
    )

