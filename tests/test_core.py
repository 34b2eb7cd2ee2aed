import itertools
import random

import pytest

from latkit import (
    FiniteLattice,
    boolean,
    chain,
    construct,
    cube3,
    canonical_key,
    dual,
    find_isomorphism,
    is_isomorphic,
    linear_sum,
    m3,
    n5,
    product,
    two_by_chain,
)
from latkit.core import _canonical_search, _orbit, canonical_form, size_cap
from latkit.errors import NotALattice, NotAPartialOrder, SizeCapExceeded
from oracles import labeled_lattices


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


def test_redundant_covers_are_reduced():
    L = FiniteLattice.from_covers(3, [(0, 1), (1, 2), (0, 2)])
    assert sorted(L.covers) == [(0, 1), (1, 2)]


def test_size_cap(monkeypatch):
    monkeypatch.setenv("LATKIT_MAX_N", "10")
    assert size_cap() == 10
    with pytest.raises(SizeCapExceeded):
        chain(11)


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


# -- linear decomposition ---------------------------------------------------


def test_decompose_chain():
    blocks = chain(3).linear_decompose()
    assert [b.elements for b in blocks] == [(0,), (1,), (2,)]
    assert [b.position for b in blocks] == [0, 1, 2]


def test_decompose_cube_plus_chain():
    L = linear_sum(cube3(), chain(2))
    blocks = [b.elements for b in L.linear_decompose()]
    assert blocks == [tuple(range(8)), (8,), (9,)]


def test_decompose_m3_single_block():
    blocks = m3().linear_decompose()
    assert len(blocks) == 1
    assert blocks[0].elements == (0, 1, 2, 3, 4)


def test_decompose_matches_oracle(stream7):
    for L in stream7:
        assert [b.elements for b in L.linear_decompose()] == brute_cut_blocks(L)


def test_linear_sum_round_trip():
    L = linear_sum(m3(), n5())
    blocks = L.linear_decompose()
    assert [len(b.elements) for b in blocks] == [5, 5]


# -- catalog ----------------------------------------------------------------


def test_construct_strings():
    assert construct("cube3").n == 8
    assert construct("chain(4)").n == 4
    L = construct("product(chain(2), chain(3))")
    assert find_isomorphism(L, two_by_chain(3)) is not None
    L = construct("linear_sum(chain(1), chain(1))")
    assert find_isomorphism(L, chain(2)) is not None
    with pytest.raises(ValueError):
        construct("frobnicate(3)")


def test_cube_is_boolean():
    assert find_isomorphism(cube3(), boolean(3)) == [0, 1, 2, 3, 4, 5, 6, 7]


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


# -- isomorphism ---------------------------------------------------------------


def test_iso_identity_and_relabel():
    L = n5()
    assert find_isomorphism(L, L) == [0, 1, 2, 3, 4]
    perm = [3, 0, 4, 2, 1]
    R = L.relabel(perm)
    f = find_isomorphism(L, R)
    assert f is not None
    for x in range(5):
        for y in range(5):
            assert L.le(x, y) == R.le(f[x], f[y])


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


def test_iso_lex_least():
    L = m3()
    R = L.relabel([4, 2, 3, 1, 0])
    f = find_isomorphism(L, R)
    maps = []
    for perm in itertools.permutations(range(5)):
        if all(
            L.le(x, y) == R.le(perm[x], perm[y])
            for x in range(5)
            for y in range(5)
        ):
            maps.append(list(perm))
    assert f == min(maps)


def test_iso_negative():
    assert find_isomorphism(m3(), n5()) is None
    assert find_isomorphism(chain(4), two_by_chain(2)) is None


def test_iso_gadget_in_cube():
    # the six-element sublattice of the cube generated by {x, y, y+z}
    from latkit.subalgebra import generate_sublattice

    C = cube3()
    members = generate_sublattice(C, {4, 2, 3})
    sub, _ = C.restrict(members)
    assert find_isomorphism(sub, two_by_chain(3)) is not None


def test_iso_symmetry(stream6):
    rng = random.Random(11)
    for L in rng.sample(stream6, 10):
        perm = list(range(L.n))
        rng.shuffle(perm)
        R = L.relabel(perm)
        f = find_isomorphism(L, R)
        g = find_isomorphism(R, L)
        assert f is not None and g is not None
        assert [f[g[x]] for x in range(L.n)] == list(range(L.n)) or True
        # the maps need not invert each other, but both must be isos
        for x in range(L.n):
            for y in range(L.n):
                assert L.le(x, y) == R.le(f[x], f[y])
                assert R.le(x, y) == L.le(g[x], g[y])


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


def test_heights_and_tops():
    L = two_by_chain(3)
    assert L.bottom == 0
    assert L.top == 5
    assert L.heights[0] == 0
    assert L.heights[5] == 3


def test_linear_sum_decompose_round_trip_contents():
    L = linear_sum(m3(), n5())
    blocks = L.linear_decompose()
    assert blocks[0].elements == tuple(range(5))
    assert blocks[1].elements == tuple(range(5, 10))
    left, _ = L.restrict(blocks[0].elements)
    right, _ = L.restrict(blocks[1].elements)
    assert find_isomorphism(left, m3()) is not None
    assert find_isomorphism(right, n5()) is not None


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
            autos = _canonical_search(poset)[2]
            group = _brute_automorphisms(poset)
            for e in range(len(poset)):
                assert _orbit(e, autos) == {g[e] for g in group}, (poset, e)


def test_is_isomorphic_returns_bool():
    assert is_isomorphic(chain(1), chain(1)) is True
    assert is_isomorphic(cube3(), boolean(3)) is True
    assert is_isomorphic(m3(), n5()) is False
    assert is_isomorphic(chain(4), chain(5)) is False
