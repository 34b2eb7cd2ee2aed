"""Named lattices and combinators.

Product numbering is lexicographic: element (x1, x2) of product(L1, L2)
gets index x1 * L2.n + x2.  boolean(k) numbers subsets by bitmask.
"""

import numpy as np

from .core import FiniteLattice, check_size


def chain(k):
    """The k-element chain 0 < 1 < ... < k-1."""
    if k < 1:
        raise ValueError("chain needs k >= 1")
    return FiniteLattice.from_covers(k, [(i, i + 1) for i in range(k - 1)])


def product(L1, L2):
    """Direct product with lexicographic numbering."""
    n = L1.n * L2.n
    check_size(n)
    leq = np.kron(L1.leq, L2.leq).astype(bool)
    names = None
    if L1.names or L2.names:
        names = [
            f"({L1.name_of(i)},{L2.name_of(j)})"
            for i in range(L1.n)
            for j in range(L2.n)
        ]
    return FiniteLattice(leq, names=names, _validated=True)


def linear_sum(L1, L2):
    """Stack L1 below L2: every element of L1 lies below all of L2."""
    n = L1.n + L2.n
    check_size(n)
    leq = np.zeros((n, n), dtype=bool)
    leq[: L1.n, : L1.n] = L1.leq
    leq[L1.n :, L1.n :] = L2.leq
    leq[: L1.n, L1.n :] = True
    names = None
    if L1.names or L2.names:
        names = [L1.name_of(i) for i in range(L1.n)] + [
            L2.name_of(j) for j in range(L2.n)
        ]
    return FiniteLattice(leq, names=names, _validated=True)


def two_by_chain(k):
    """2 x C_k, the width-two ladder segment."""
    return product(chain(2), chain(k))


def boolean(k):
    """The boolean lattice of subsets of {0..k-1}, numbered by bitmask."""
    n = 1 << k
    check_size(n)
    masks = np.arange(n)
    leq = (masks[:, None] & ~masks[None, :]) == 0
    return FiniteLattice(leq, _validated=True)


def cube3():
    """The eight-element boolean algebra 2 x 2 x 2."""
    return boolean(3)


def m3():
    """The diamond: bottom 0, atoms 1,2,3, top 4."""
    return FiniteLattice.from_covers(
        5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]
    )


def n5():
    """The pentagon: 0 < 1 < 3 < 4 on one side, 0 < 2 < 4 on the other."""
    return FiniteLattice.from_covers(5, [(0, 1), (0, 2), (1, 3), (3, 4), (2, 4)])

