import itertools
import random
import re
import time
from math import comb

import numpy as np
import pytest

from latkit import (
    FiniteLattice,
    boolean,
    chain,
    cube3,
    canonical_key,
    dual,
    linear_sum,
    m3,
    n5,
    product,
    two_by_chain,
)
from latkit import core
from latkit.core import _orbit, canonical_form, size_cap
from latkit.errors import LatkitError, NotALattice, NotAPartialOrder, SizeCapExceeded
from oracles import is_isomorphic, labeled_lattices, oracle_find_isomorphism, oracle_width


# -- independent oracles ------------------------------------------------


def brute_width(L):
    best = 0
    for mask in range(1, 1 << L.n):
        members = [i for i in range(L.n) if (mask >> i) & 1]
        if all(
            L.incomparable(x, y)
            for x, y in itertools.combinations(members, 2)
        ):
            best = max(best, len(members))
    return best


def brute_tables(L):
    """Recompute both tables from the order matrix alone."""
    join = {}
    meet = {}
    for x in range(L.n):
        for y in range(L.n):
            ups = [z for z in range(L.n) if L.le(x, z) and L.le(y, z)]
            least = [u for u in ups if all(L.le(u, v) for v in ups)]
            assert len(least) == 1
            join[x, y] = least[0]
            downs = [z for z in range(L.n) if L.le(z, x) and L.le(z, y)]
            greatest = [d for d in downs if all(L.le(v, d) for v in downs)]
            assert len(greatest) == 1
            meet[x, y] = greatest[0]
    return join, meet


def brute_cut_blocks(L):
    """Linear-sum blocks straight from the definition: a cut splits L
    into a down part and an up part that partition everything."""
    cuts = []
    for lo, hi in L.covers:
        down = {x for x in range(L.n) if L.le(x, lo)}
        up = {x for x in range(L.n) if L.le(hi, x)}
        if len(down) + len(up) == L.n and not down & up:
            cuts.append((lo, hi))
    cuts.sort(key=lambda p: L.heights[p[0]])
    starts = [L.bottom] + [v for _, v in cuts]
    ends = [u for u, _ in cuts] + [L.top]
    return [
        tuple(x for x in range(L.n) if L.le(lo, x) and L.le(x, hi))
        for lo, hi in zip(starts, ends)
    ]


# -- construction --------------------------------------------------------


def test_from_covers_n5():
    L = n5()
    assert L.join(1, 2) == 4
    assert L.meet(3, 2) == 0


def test_from_covers_cycle():
    with pytest.raises(NotAPartialOrder):
        FiniteLattice.from_covers(3, [(0, 1), (1, 2), (2, 0)])


def test_from_covers_bowtie():
    # two minimal, two maximal elements, no lub for the minimal pair
    with pytest.raises(NotALattice) as info:
        FiniteLattice.from_covers(6, [(0, 2), (0, 3), (1, 2), (1, 3)])
    assert info.value.pair == (0, 1)


def test_from_covers_out_of_range():
    with pytest.raises(ValueError):
        FiniteLattice.from_covers(3, [(0, 5)])


def test_validated_construction_rejects_a_non_reflexive_matrix():
    # covers never ends when an element is missing from its own up-set
    with pytest.raises(ValueError, match="reflexive"):
        FiniteLattice([[1, 1, 1], [0, 1, 1], [0, 0, 0]], _validated=True)


def test_constructor_rejects_a_two_cycle():
    leq = [[1, 0, 1], [0, 1, 0], [1, 0, 1]]  # 0 <= 2 and 2 <= 0
    with pytest.raises(NotAPartialOrder) as info:
        FiniteLattice(leq)
    assert info.value.cycle == [0, 2]


@pytest.mark.parametrize(
    "leq",
    [
        [[1, 1, 0], [0, 1, 1], [0, 0, 1]],  # 0 <= 1 <= 2 but not 0 <= 2
        [[1, 1, 0], [0, 1, 1], [1, 0, 1]],  # a 3-cycle with no 2-cycle in it
    ],
)
def test_constructor_rejects_a_non_transitive_matrix(leq):
    with pytest.raises(ValueError, match="must be transitive"):
        FiniteLattice(leq)


def test_constructor_checks_the_size_cap(monkeypatch):
    monkeypatch.setenv("LATKIT_MAX_N", "2")
    with pytest.raises(SizeCapExceeded, match="3 elements exceeds cap 2"):
        FiniteLattice([[1, 1, 1], [0, 1, 1], [0, 0, 1]])


def test_redundant_covers_are_reduced():
    L = FiniteLattice.from_covers(3, [(0, 1), (1, 2), (0, 2)])
    assert sorted(L.covers) == [(0, 1), (1, 2)]


def test_size_cap(monkeypatch):
    monkeypatch.setenv("LATKIT_MAX_N", "10")
    assert size_cap() == 10
    with pytest.raises(SizeCapExceeded):
        chain(11)
    for build in (
        lambda: product(chain(2), chain(6)),
        lambda: linear_sum(chain(5), chain(6)),
        lambda: boolean(4),
    ):
        with pytest.raises(SizeCapExceeded, match="exceeds cap 10"):
            build()
    monkeypatch.setenv("LATKIT_MAX_N", "")
    assert size_cap() == core.DEFAULT_SIZE_CAP
    for value in ("abc", "0", "-3", "2.5", "+7"):
        monkeypatch.setenv("LATKIT_MAX_N", value)
        message = f"LATKIT_MAX_N='{re.escape(value)}' is not an integer >= 1"
        with pytest.raises(LatkitError, match=message):
            size_cap()
        with pytest.raises(LatkitError, match=message):
            chain(2)


# -- join/meet ------------------------------------------------------------


def test_join_idempotent():
    L = cube3()
    for x in range(L.n):
        assert L.join(x, x) == x
        assert L.meet(x, x) == x


def test_m3_atom_meets():
    L = m3()
    for x, y in itertools.combinations([1, 2, 3], 2):
        assert L.meet(x, y) == 0
        assert L.join(x, y) == 4


@pytest.mark.parametrize(
    "build",
    [m3, n5, cube3, lambda: two_by_chain(4), lambda: product(chain(3), chain(3))],
)
def test_tables_match_bruteforce(build):
    L = build()
    join, meet = brute_tables(L)
    for x in range(L.n):
        for y in range(L.n):
            assert L.join(x, y) == join[x, y]
            assert L.meet(x, y) == meet[x, y]


def test_lattice_laws_small(stream6):
    for L in stream6:
        for x in range(L.n):
            for y in range(L.n):
                assert L.join(x, y) == L.join(y, x)
                assert L.meet(x, y) == L.meet(y, x)
                assert L.join(x, L.meet(x, y)) == x  # absorption
                assert L.meet(x, L.join(x, y)) == x
                for z in range(L.n):
                    assert L.join(L.join(x, y), z) == L.join(x, L.join(y, z))
                    assert L.meet(L.meet(x, y), z) == L.meet(x, L.meet(y, z))


# -- width ----------------------------------------------------------------


def test_width_examples():
    assert cube3().width() == 3
    assert chain(7).width() == 1
    assert two_by_chain(4).width() == 2


def test_width_against_bruteforce(stream8):
    for L in stream8:
        assert L.width() == brute_width(L)


def shuffled(L, seed):
    perm = list(range(L.n))
    random.Random(seed).shuffle(perm)
    return L.relabel(perm)


def test_width_matches_oracle(stream9):
    """Every lattice with n <= 9, and 1,000 seeded products and linear
    sums of two with n <= 7 (up to 49 elements, with longer augmenting
    paths), each in its own and in a shuffled numbering."""
    rng = random.Random(9)
    small = [L for L in stream9 if L.n <= 7]
    composites = [
        (product if i % 2 else linear_sum)(*rng.sample(small, 2)) for i in range(1000)
    ]
    for i, L in enumerate(stream9 + composites):
        assert L.width() == oracle_width(L)
        R = shuffled(L, i)
        assert R.width() == oracle_width(R) == oracle_width(L)


@pytest.mark.parametrize(
    "L, width",
    [
        (chain(300), 1),
        (two_by_chain(150), 2),
        (product(chain(16), chain(16)), 16),
        (product(chain(7), chain(12)), 7),
        (boolean(8), comb(8, 4)),
        (boolean(7), comb(7, 3)),
        (linear_sum(boolean(6), two_by_chain(12)), comb(6, 3)),
        (linear_sum(two_by_chain(40), product(chain(3), chain(5))), 3),
    ],
    ids=["chain300", "2xC150", "C16xC16", "C7xC12", "boolean8", "boolean7", "B6+2xC12", "2xC40+C3xC5"],
)
def test_width_closed_forms_shuffled(L, width):
    """Chain 1, 2 x C_k 2, C_a x C_b min(a, b), boolean(k) the middle
    binomial (Sperner), a linear sum the larger of its summands'."""
    assert L.width() == width
    for seed in range(3):
        assert shuffled(L, seed).width() == width


@pytest.mark.slow
def test_width_at_the_element_cap():
    """Shuffled 2 x C_2048 (n = 4096): an iterative matching, no recursion
    depth, and well under a second."""
    L = shuffled(two_by_chain(2048), 2048)
    start = time.perf_counter()
    assert L.width() == 2
    assert time.perf_counter() - start < 0.5


# -- linear decomposition ---------------------------------------------------


def test_decompose_chain():
    assert chain(3).linear_decompose() == [(0,), (1,), (2,)]


def test_decompose_cube_plus_chain():
    L = linear_sum(cube3(), chain(2))
    assert L.linear_decompose() == [tuple(range(8)), (8,), (9,)]


def test_decompose_m3_single_block():
    assert m3().linear_decompose() == [(0, 1, 2, 3, 4)]


def test_decompose_matches_oracle(stream7):
    for L in stream7:
        assert L.linear_decompose() == brute_cut_blocks(L)


def test_linear_sum_round_trip():
    L = linear_sum(m3(), n5())
    blocks = L.linear_decompose()
    assert [len(b) for b in blocks] == [5, 5]


# -- irreducibles -------------------------------------------------------------


def brute_dr(L):
    out = []
    for x in range(L.n):
        join_red = any(
            L.join(a, b) == x
            for a in range(L.n)
            for b in range(L.n)
            if a != x and b != x
        )
        meet_red = any(
            L.meet(a, b) == x
            for a in range(L.n)
            for b in range(L.n)
            if a != x and b != x
        )
        if join_red and meet_red:
            out.append(x)
    return tuple(out)


def test_dr_examples():
    assert cube3().doubly_reducibles() == ()
    assert chain(6).doubly_reducibles() == ()
    grid = product(chain(3), chain(3))
    assert grid.doubly_reducibles() == (4,)  # the center (1,1)


def test_dr_matches_definition(stream7):
    for L in stream7:
        assert L.doubly_reducibles() == brute_dr(L)


def test_irreducibles_cover_counts(stream6):
    for L in stream6:
        ji, mi = L.join_irreducibles(), L.meet_irreducibles()
        for x in ji:
            assert len(L.lower_covers[x]) == 1
        for x in mi:
            assert len(L.upper_covers[x]) == 1


# -- relabeling and canonical forms ---------------------------------------------


def test_relabel_renames_element_i_to_perm_i():
    L = FiniteLattice.from_covers(5, n5().covers, names=list("bpqrt"))
    perm = [3, 0, 4, 2, 1]
    R = L.relabel(perm)
    for x in range(5):
        assert R.names[perm[x]] == L.names[x]
        for y in range(5):
            assert R.le(perm[x], perm[y]) == L.le(x, y)
            assert R.join(perm[x], perm[y]) == perm[L.join(x, y)]
    with pytest.raises(ValueError):
        L.relabel([0, 0, 1, 2, 3])


def test_canonical_key_invariance(stream6):
    rng = random.Random(23)
    for L in rng.sample(stream6, 12):
        perm = list(range(L.n))
        rng.shuffle(perm)
        assert canonical_key(L) == canonical_key(L.relabel(perm))


def test_canonical_key_separates(stream6):
    keys = [canonical_key(L) for L in stream6]
    assert len(set(keys)) == len(keys)


def test_dual_swaps_tables():
    L = n5()
    D = dual(L)
    for x in range(L.n):
        for y in range(L.n):
            assert L.join(x, y) == D.meet(x, y)
            assert L.meet(x, y) == D.join(x, y)


def test_dual_shares_the_order_matrix():
    L = boolean(3).relabel([3, 0, 6, 1, 7, 2, 5, 4])
    D = dual(L)
    assert np.shares_memory(D.leq, L.leq)
    assert not D.leq.flags.writeable
    assert (D.leq == L.leq.T).all()
    assert (dual(D).leq == L.leq).all()
    assert D.covers == tuple(sorted((y, x) for x, y in L.covers))


def test_restrict_to_everything_is_the_lattice_itself():
    L = n5()
    assert L.restrict(range(L.n)) == (L, list(range(L.n)))
    assert L.restrict([4, 0, 3, 1, 2]) == (L, [0, 1, 2, 3, 4])
    # n elements with a repeat and a gap are not a subset
    with pytest.raises(ValueError, match="element 1 repeats"):
        L.restrict([0, 1, 1, 3, 4])


def test_restrict_rejects_elements_out_of_range():
    # a negative index would wrap around to element n - 1
    L = n5()
    with pytest.raises(ValueError, match=r"element -1 out of range for n=5"):
        L.restrict([-1, 0])
    with pytest.raises(ValueError, match=r"element 7 out of range for n=5"):
        L.restrict([0, 7])


def test_heights_and_tops():
    L = two_by_chain(3)
    assert L.bottom == 0
    assert L.top == 5
    assert L.heights[0] == 0
    assert L.heights[5] == 3


def test_linear_sum_decompose_round_trip_contents():
    L = linear_sum(m3(), n5())
    blocks = L.linear_decompose()
    assert blocks == [tuple(range(5)), tuple(range(5, 10))]
    left, _ = L.restrict(blocks[0])
    right, _ = L.restrict(blocks[1])
    assert oracle_find_isomorphism(left, m3()) is not None
    assert oracle_find_isomorphism(right, n5()) is not None


def test_canonical_key_symmetric_lattice():
    # large automorphism groups route through individualization
    B4 = boolean(4)
    perm = list(range(16))
    random.Random(5).shuffle(perm)
    assert canonical_key(B4) == canonical_key(B4.relabel(perm))
    assert canonical_key(B4) != canonical_key(cube3())


def _diamond(k):
    """M_k: k atoms between a bottom and a top."""
    atoms = range(1, k + 1)
    return FiniteLattice.from_covers(
        k + 2, [(0, a) for a in atoms] + [(a, k + 1) for a in atoms]
    )


@pytest.mark.parametrize(
    "L",
    [_diamond(k) for k in range(8, 13)] + [boolean(5), boolean(6)],
    ids=[f"M{k}" for k in range(8, 13)] + ["B5", "B6"],
)
def test_canonical_key_symmetric_relabelings(L):
    rng = random.Random(L.n)
    key = canonical_key(L)
    for _ in range(3):
        perm = list(range(L.n))
        rng.shuffle(perm)
        assert canonical_key(L.relabel(perm)) == key


def test_canonical_key_diamonds_distinct():
    keys = [canonical_key(_diamond(k)) for k in range(3, 13)]
    assert len(set(keys)) == len(keys)
    assert canonical_key(_diamond(3)) == canonical_key(m3())


def test_canonical_form_of_the_empty_poset():
    # refinement leaves no cell to split, so the search is at its one leaf
    assert canonical_form([]) == ((), (), [])


def test_canonical_form_on_a_refinement_stable_poset():
    # height one, nine minimal and nine maximal elements, every element
    # comparable to exactly three others: colour refinement leaves two
    # cells of nine, so the key rests on individualisation and pruning
    lower = [[1, 4, 7], [2, 7, 8], [0, 1, 8], [0, 3, 4], [0, 5, 6],
             [1, 2, 6], [2, 4, 5], [3, 5, 8], [3, 6, 7]]
    dwn = [1 << i for i in range(9)]
    dwn += [sum(1 << i for i in below) | 1 << (9 + j) for j, below in enumerate(lower)]
    key = canonical_form(dwn)[0]
    rng = random.Random(3)
    for _ in range(20):
        assert canonical_form(_shuffled(dwn, rng))[0] == key


def _shuffled(dwn, rng):
    """The poset dwn with its elements renumbered at random."""
    n = len(dwn)
    perm = list(range(n))
    rng.shuffle(perm)
    moved = [0] * n
    for i, mask in enumerate(dwn):
        moved[perm[i]] = sum(1 << perm[j] for j in range(n) if mask >> j & 1)
    return tuple(moved)


def _brute_automorphisms(dwn):
    """Every permutation p with j <= i iff p[j] <= p[i], by exhaustive
    backtracking over injective maps."""
    n = len(dwn)
    le = [[bool(dwn[i] >> j & 1) for i in range(n)] for j in range(n)]
    found, image = [], []

    def extend():
        i = len(image)
        if i == n:
            found.append(list(image))
            return
        for v in range(n):
            if v not in image and all(
                le[j][i] == le[image[j]][v] and le[i][j] == le[v][image[j]]
                for j in range(i)
            ):
                image.append(v)
                extend()
                image.pop()

    extend()
    return found


def test_search_automorphisms_generate_the_whole_group():
    # every natural-labeled lattice with n <= 7 and, minus its top, every
    # meet-semilattice with k <= 6, built apart from the enumerator
    lattices = [dwn for n in range(1, 8) for dwn in labeled_lattices(n)]
    posets = lattices + [dwn[:-1] for dwn in lattices]
    rng = random.Random(5)
    for dwn in posets:
        # the shuffled copy is mostly not numbered along a linear extension
        for poset in (dwn, _shuffled(dwn, rng)):
            autos = canonical_form(poset)[2]
            group = _brute_automorphisms(poset)
            for e in range(len(poset)):
                assert _orbit(e, autos) == {g[e] for g in group}, (poset, e)


def test_is_isomorphic_returns_bool():
    assert is_isomorphic(chain(1), chain(1)) is True
    assert is_isomorphic(cube3(), boolean(3)) is True
    assert is_isomorphic(m3(), n5()) is False
    assert is_isomorphic(chain(4), chain(5)) is False
