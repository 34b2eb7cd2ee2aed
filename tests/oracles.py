"""Slow reference implementations that the library's fast paths are
checked against: dense bool-matmul closure and covers, the pairwise
table build, the loop checkers and forbidden-sublattice search, the
poset-filter lattice census, the all-subsets join-cover and D-layer
definitions, the D-layers read off the minimal join covers, width by
recursive matching, the minimal intervals of incomparable pairs, and
isomorphism by refinement and backtracking, the re-checks of a
ladder that ladder.extract_ladder's docstring proves, and the
prime-interval scan that ladder.ladder_split's docstring proves empty
on every SD-join lattice, the order ladder.decorate builds by closing
all its direct pairs at once, the modular, distributive and
semidistributive verdicts read off the irreducibles and the covers,
and Whitman's word-problem recursion without generator masks.
Each returns what the library function returns, witness and error pair
included.

Also here are helpers only the tests use: the bits of a mask and the
up-set masks of a poset (the census oracle's own), join-cover
refinement, the join primes, the list of admissible triples, the
re-check of a forbidden-sublattice embedding, a boolean isomorphism
test, the block tags of the structure theorem by backtracking
isomorphism, seeded decorated ladder windows, seeded decoration specs
whose items anchor on earlier items, and the weak order on the
permutations of k letters.
"""

import random
from itertools import combinations, permutations

import numpy as np

from latkit.catalog import cube3, m3, n5, two_by_chain
from latkit.core import FiniteLattice, _dwn_of, _neighbours, arrows, canonical_form, refine
from latkit.errors import NotALattice, NotAPartialOrder
from latkit.freeterm import Join, Meet
from latkit.jonsson import _relation, min_join_covers
from latkit.ladder import decorate, window
from latkit.properties import PropertyReport
from latkit.subalgebra import iter_admissible_triples


def transitive_closure(rel):
    """Reflexive-transitive closure by repeated squaring; rejects cycles."""
    n = rel.shape[0]
    closure = rel.copy()
    np.fill_diagonal(closure, True)
    while True:
        nxt = closure | np.matmul(closure, closure)
        if (nxt == closure).all():
            break
        closure = nxt
    sym = closure & closure.T & ~np.eye(n, dtype=bool)
    if sym.any():
        i, j = next(zip(*np.nonzero(sym)))
        raise NotAPartialOrder([int(i), int(j)])
    return closure


def covers(leq):
    """Cover pairs (lo, hi), sorted: strict pairs with nothing between."""
    lt = leq & ~np.eye(leq.shape[0], dtype=bool)
    reduced = lt & ~np.matmul(lt, lt)
    return tuple((int(i), int(j)) for i, j in zip(*np.nonzero(reduced)))


def build_tables(leq):
    """Join and meet tables by looking up each pair's common up-set and
    down-set among the rows and columns of leq."""
    n = leq.shape[0]
    row_of = {leq[i].tobytes(): i for i in range(n)}
    col_of = {leq[:, i].tobytes(): i for i in range(n)}
    join = np.zeros((n, n), dtype=np.int32)
    meet = np.zeros((n, n), dtype=np.int32)
    for i in range(n):
        join[i, i] = meet[i, i] = i
        for j in range(i + 1, n):
            if leq[i, j]:
                lub, glb = j, i
            else:
                ups = leq[i] & leq[j]
                lub = row_of.get(ups.tobytes())
                if lub is None:
                    raise NotALattice((i, j), "lub")
                downs = leq[:, i] & leq[:, j]
                glb = col_of.get(downs.tobytes())
                if glb is None:
                    raise NotALattice((i, j), "glb")
            join[i, j] = join[j, i] = lub
            meet[i, j] = meet[j, i] = glb
    return join, meet


def is_modular(L):
    n, leq = L.n, L.leq
    join, meet = L.join_table, L.meet_table
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if leq[a, c] and join[a, meet[b, c]] != meet[join[a, b], c]:
                    return PropertyReport("modular", False, (a, b, c))
    return PropertyReport("modular", True)


def is_distributive(L):
    n = L.n
    join, meet = L.join_table, L.meet_table
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if meet[a, join[b, c]] != join[meet[a, b], meet[a, c]]:
                    return PropertyReport("distributive", False, (a, b, c))
    return PropertyReport("distributive", True)


def is_semidistributive(L, side="both"):
    n = L.n
    join, meet = L.join_table, L.meet_table
    name = "sd" if side == "both" else f"sd-{side}"
    if side in ("join", "both"):
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    ab = join[a, b]
                    if ab == join[a, c] and ab != join[a, meet[b, c]]:
                        return PropertyReport(name, False, (a, b, c))
    if side in ("meet", "both"):
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    ab = meet[a, b]
                    if ab == meet[a, c] and ab != meet[a, join[b, c]]:
                        return PropertyReport(name, False, (a, b, c))
    return PropertyReport(name, True)


def whitman_w(L):
    """Quadruple scan with early exit; quadratic prefilter on (x, y)."""
    n, leq = L.n, L.leq
    join, meet = L.join_table, L.meet_table
    for x in range(n):
        for y in range(x + 1, n):
            xy = meet[x, y]
            for z in range(n):
                if xy == meet[xy, z]:
                    continue  # xy <= z settles every (z, w) and (w, z)
                for w in range(z + 1, n):
                    if xy != meet[xy, w]:
                        zw = join[z, w]
                        if leq[xy, zw] and not leq[x, zw] and not leq[y, zw]:
                            return PropertyReport("whitman", False, (x, y, z, w))
    return PropertyReport("whitman", True)


def find_forbidden(L, pattern):
    """Least M3 or N5 embedding by looping over (x, y, z) in C order."""
    n = L.n
    join, meet = L.join_table, L.meet_table
    inc = L.incomparable
    if pattern == "N5":
        for x in range(n):
            for y in range(n):
                if inc(x, y):
                    for z in range(n):
                        if (
                            z != y
                            and L.leq[y, z]
                            and inc(x, z)
                            and join[x, y] == join[x, z]
                            and meet[x, y] == meet[x, z]
                        ):
                            bot, top = int(meet[x, y]), int(join[x, y])
                            return {0: bot, 1: y, 2: x, 3: z, 4: top}
        return None
    for x in range(n):
        for y in range(x + 1, n):
            if inc(x, y):
                for z in range(y + 1, n):
                    if (
                        inc(x, z)
                        and inc(y, z)
                        and join[x, y] == join[x, z] == join[y, z]
                        and meet[x, y] == meet[x, z] == meet[y, z]
                    ):
                        bot, top = int(meet[x, y]), int(join[x, y])
                        return {0: bot, 1: x, 2: y, 3: z, 4: top}
    return None


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _ups_of(dwn):
    """Up-set masks of the poset with down-set masks dwn."""
    n = len(dwn)
    ups = [1 << i for i in range(n)]
    for j in range(n):
        for i in _bits(dwn[j]):
            ups[i] |= 1 << j
    return ups


def labeled_lattices(n, prune_meets=None):
    """Every natural-labeled lattice on n elements, as a tuple of down-set
    masks, by filtering natural-labeled posets.

    With prune_meets (default for n >= 8) branches that already lack a
    pairwise meet are cut early; the surviving leaves are the same.
    """
    if prune_meets is None:
        prune_meets = n >= 8
    dwn = []

    def ideals(j):
        out = []
        for D in range(1 << j):
            if any(dwn[i] & ~D for i in _bits(D)):
                continue
            if prune_meets:
                ok = True
                for x in range(j):
                    if (D >> x) & 1:
                        continue
                    B = D & dwn[x]
                    if B == 0:
                        ok = False
                        break
                    hb = B.bit_length() - 1
                    if B & ~dwn[hb]:
                        ok = False
                        break
                if not ok or (D == 0 and j > 0):
                    continue
            out.append(D)
        return out

    def is_lattice():
        ups = _ups_of(dwn)
        for i in range(n):
            for j in range(i + 1, n):
                U = ups[i] & ups[j]
                if U == 0:
                    return False
                lb = (U & -U).bit_length() - 1
                if U & ~ups[lb]:
                    return False
                B = dwn[i] & dwn[j]
                if B == 0:
                    return False
                hb = B.bit_length() - 1
                if B & ~dwn[hb]:
                    return False
        return True

    def rec(j):
        if j == n:
            if is_lattice():
                yield tuple(dwn)
            return
        for D in ideals(j):
            dwn.append(D | (1 << j))
            yield from rec(j + 1)
            dwn.pop()

    yield from rec(0)


def oracle_lattice_census(n, prune_meets=None):
    """Poset-filter oracle: the natural-labeled lattices deduped by
    canonical key.  Returns (classes, labeled)."""
    keys = set()
    labeled = 0
    for dwn in labeled_lattices(n, prune_meets):
        labeled += 1
        keys.add(canonical_form(dwn)[0])
    return len(keys), labeled


def all_nontrivial_covers(L, x):
    """Every nontrivial join cover of x, by scanning all subsets."""
    out = []
    elems = range(L.n)
    for size in range(1, L.n + 1):
        for X in combinations(elems, size):
            if any(L.le(x, y) for y in X):
                continue
            if L.le(x, L.join_all(X)):
                out.append(X)
    return out


def oracle_min_join_covers(L, x):
    """Minimal covers by the literal definition over all subsets."""
    covers = all_nontrivial_covers(L, x)
    out = []
    for X in covers:
        if all(set(X) <= set(Y) for Y in covers if refines(L, Y, X)):
            out.append(tuple(sorted(X)))
    return sorted(set(out))


def oracle_d_layers(L):
    """D-layers by the literal definition quantifying over all subsets.

    A refining cover X' <= D_k with X' << X exists iff the largest
    candidate, {d in D_k : d below some member of X}, already covers x
    (joins are monotone), so the inner existential collapses.
    """
    covers_by_elem = {x: all_nontrivial_covers(L, x) for x in range(L.n)}
    current = frozenset(x for x in range(L.n) if not covers_by_elem[x])
    layers = [current]
    while True:
        nxt = set()
        for x in range(L.n):
            ok = True
            for X in covers_by_elem[x]:
                candidates = [
                    d for d in current if any(L.le(d, y) for y in X)
                ]
                if not candidates or not L.le(x, L.join_all(candidates)):
                    ok = False
                    break
            if ok:
                nxt.add(x)
        nxt = frozenset(nxt)
        if nxt == current:
            break
        layers.append(nxt)
        current = nxt
    return layers


def oracle_layers_from_covers(L):
    """D-layers from every minimal join cover of every element: x joins
    the next layer once all its minimal covers lie in the current one."""
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


def oracle_minimal_bounds(L):
    """The inclusion-minimal intervals [x ^ y, x v y] over all
    incomparable pairs x, y: the pocket boundaries by definition."""
    bounds = {
        (L.meet(x, y), L.join(x, y))
        for x, y in combinations(range(L.n), 2)
        if L.incomparable(x, y)
    }
    return {
        (m, j)
        for m, j in bounds
        if not any((m2, j2) != (m, j) and L.le(m, m2) and L.le(j2, j) for m2, j2 in bounds)
    }


def oracle_width(L):
    """Width by Dilworth duality: n minus a maximum matching of the
    strict order as a bipartite graph, by recursive Kuhn augmentation
    from every element in index order."""
    n = L.n
    succ = [
        [j for j, up in enumerate(row) if up and j != i]
        for i, row in enumerate(L.leq.tolist())
    ]
    match_right = [-1] * n

    def try_augment(i, seen):
        for j in succ[i]:
            if not seen[j]:
                seen[j] = True
                if match_right[j] == -1 or try_augment(match_right[j], seen):
                    match_right[j] = i
                    return True
        return False

    matched = 0
    for i in range(n):
        if try_augment(i, [False] * n):
            matched += 1
    return n - matched


def refines(L, xp, x):
    """X' << X: every member of X' is below some member of X."""
    return all(any(L.le(a, b) for b in x) for a in xp)


def join_primes(L):
    """Elements with no nontrivial join cover at all: no D-successor."""
    return tuple(np.flatnonzero(~_relation(*arrows(L)).any(axis=1)).tolist())


def admissible_triples(L):
    """All admissible triples of L, ascending."""
    return list(iter_admissible_triples(L))


def embedding_is_valid(L, pattern, emb):
    """Re-check an embedding: an injective order-embedding of the
    pattern with a join- and meet-closed image is a sublattice
    isomorphic to it."""
    P = {"M3": m3, "N5": n5}[pattern]()
    elems = sorted(set(emb.values()))
    if len(elems) != P.n:
        return False
    for i in range(P.n):
        for j in range(P.n):
            if P.leq[i, j] != L.leq[emb[i], emb[j]]:
                return False
    for x in elems:
        for y in elems:
            if L.join(x, y) not in elems or L.meet(x, y) not in elems:
                return False
    return True


def oracle_find_isomorphism(L1, L2):
    """Lexicographically least order-isomorphism L1 -> L2, or None.

    On finite lattices an order-isomorphism is automatically a lattice
    isomorphism.  Candidate images are restricted to elements of the same
    colour, refining both orders as one disjoint union.
    """
    if L1.n != L2.n:
        return None
    n = L1.n
    union = _dwn_of(L1.leq) + [mask << n for mask in _dwn_of(L2.leq)]
    colors = refine(*_neighbours(union))
    c1, c2 = colors[:n], colors[n:]
    if sorted(c1) != sorted(c2):
        return None
    a, b = L1.leq, L2.leq
    f = [-1] * n
    used = [False] * n

    def backtrack(i):
        if i == n:
            return True
        for j in range(n):
            if used[j] or c1[i] != c2[j]:
                continue
            if all(a[i, k] == b[j, f[k]] and a[k, i] == b[f[k], j] for k in range(i)):
                f[i] = j
                used[j] = True
                if backtrack(i + 1):
                    return True
                used[j] = False
                f[i] = -1
        return False

    return f if backtrack(0) else None


def is_isomorphic(L1, L2):
    return oracle_find_isomorphism(L1, L2) is not None


def oracle_classify_block(L, block):
    """classifier.classify_block by backtracking isomorphism onto the
    cube and onto 2 x C_{n/2}."""
    if len(block) == 1:
        return "Singleton"
    sub, _ = L.restrict(block)
    if is_isomorphic(sub, cube3()):
        return "Cube"
    if sub.n % 2 == 0 and sub.n >= 4 and is_isomorphic(sub, two_by_chain(sub.n // 2)):
        return "TwoByChain"
    return "Other"


def ladder_defect(L, ladder):
    """The first way the ladder coordinates fail what extract_ladder
    proves, as (reason, witness), or None: the meet x * b = a forced by
    the cover a < b on each selected member x above it, and dually the
    join below it; the SD step base * b = a at each rung above the cover
    and its dual below; then the product order of 2 x [-neg, pos]
    (antisymmetric, so two coordinates on one element fail it), then
    closure under join and meet."""
    coords = ladder.coords
    a, b = coords[(0, 0)], coords[(1, 0)]
    for x in ladder.up_selected:
        if L.meet(x, b) != a:
            return "forced-meet", x
    for y in ladder.down_selected:
        if L.join(y, a) != b:
            return "forced-join", y
    for n, x in enumerate(ladder.up_selected, start=1):
        base = L.join(x, coords[(0, n - 1)])
        if L.meet(base, b) != a:
            return "sd-step", (x, base)
    for n, y in enumerate(ladder.down_selected, start=1):
        base = L.meet(y, coords[(1, 1 - n)])
        if L.join(base, a) != b:
            return "sd-step-dual", (y, base)
    keys = np.array(list(coords))
    E = list(coords.values())
    bad = np.argwhere(L.leq[np.ix_(E, E)] != (keys[:, None] <= keys).all(axis=2))
    if len(bad):
        return "ladder-order-mismatch", (E[bad[0][0]], E[bad[0][1]])
    elems = ladder.elements
    reached = {op(x, y) for x in elems for y in elems for op in (L.join, L.meet)}
    if reached != elems:
        return "ladder-not-a-sublattice", tuple(sorted(reached - elems))
    return None


def prime_interval_exclusion_scan(W, ladder):
    """Elements realizing the pattern (0,m) < x < (1,n) with x parallel
    to (1,m) and to (0,n): impossible under (W) + SD, so any hit marks a
    hypothesis violation."""
    L = W.lattice
    coords, elements = ladder.coords, ladder.elements
    hits = []
    span = range(-ladder.neg, ladder.pos + 1)
    for x in range(L.n):
        if x in elements:
            continue
        for m in span:
            for n in span:
                if m < n and (
                    L.le(coords[(0, m)], x)
                    and L.le(x, coords[(1, n)])
                    and L.incomparable(x, coords[(1, m)])
                    and L.incomparable(x, coords[(0, n)])
                ):
                    hits.append((x, m, n))
    return hits


def seeded_windows(count, seed=21, max_radius=5):
    """Windows of radius 1 to max_radius, each decorated by up to three
    case inserts."""
    rng = random.Random(seed)
    for _ in range(count):
        radius = rng.randint(1, max_radius)
        inserts = [
            {"case": rng.randint(1, 3), "at": rng.randint(-radius, radius - 1)}
            for _ in range(rng.randint(0, 3))
        ]
        yield decorate(window(radius), {"insert": inserts})


def seeded_specs(count, seed=27, max_radius=4, max_items=5):
    """(radius, spec) pairs: radius 1 to max_radius, 1 to max_items
    insert items, each a case shorthand or a between item whose anchors
    are rail coordinates or ids of earlier items and whose gt/lt refs
    name earlier items.  Anchors need not be ordered."""
    rng = random.Random(seed)
    for _ in range(count):
        radius = rng.randint(1, max_radius)
        ids, items = [], []

        def ref():
            if ids and rng.random() < 0.5:
                return rng.choice(ids)
            return [rng.randint(0, 1), rng.randint(-radius, radius)]

        for k in range(rng.randint(1, max_items)):
            if not ids or rng.random() < 0.4:
                case = rng.randint(1, 3)
                items.append({"case": case, "at": rng.randint(-radius, radius - 1), "id": f"c{k}"})
                ids += [f"c{k}:{part}" for part in ("b", "bx", "byx")[case - 1]]
                continue
            item = {"between": [ref(), ref()], "id": f"i{k}"}
            for key in ("gt", "lt"):
                if rng.random() < 0.3:
                    item[key] = [rng.choice(ids)]
            items.append(item)
            ids.append(f"i{k}")
        yield radius, {"insert": items}


def decoration_order(W, items):
    """The order ladder.decorate builds from normalized insert items: the
    closure of W's order plus each item's direct pairs, lo < item < hi
    and its gt/lt refs.  Returns (k, None) for the first item k whose
    anchors are not ordered, lower first, in the closure of the window
    and the pairs before it, else (None, closure).  Raises
    NotAPartialOrder when the pairs close a cycle."""
    n = W.n
    rel = np.eye(n + len(items), dtype=bool)
    rel[:n, :n] = W.lattice.leq
    place = {d.ident: d.element for d in W.decorations}

    def elem(anchor):
        return place[anchor] if isinstance(anchor, str) else W.rail_elem[tuple(anchor)]

    for k, item in enumerate(items):
        lo, hi = map(elem, item["between"])
        if lo == hi or not transitive_closure(rel)[lo, hi]:
            return k, None
        x = place[item["id"]] = n + k
        rel[lo, x] = rel[x, hi] = True
        for ref in item.get("gt", []):
            rel[elem(ref), x] = True
        for ref in item.get("lt", []):
            rel[x, elem(ref)] = True
    return None, transitive_closure(rel)


def structural_verdicts(L):
    """Modular, distributive and the semidistributive laws from the
    irreducibles and the covers.  With j_* the lower cover of a join
    irreducible j and m^* the upper cover of a meet irreducible m, let
    j <-> m mean j </= m, j_* <= m and j <= m^*.  L is SD-meet iff each j
    has exactly one such m, SD-join iff each m has exactly one such j,
    distributive iff no join irreducible D-relates to another, and
    modular iff upper and lower semimodular on pairs of covers."""
    leq = L.leq
    J, M = list(L.join_irreducibles()), list(L.meet_irreducibles())
    lower = [L.lower_covers[j][0] for j in J]
    upper = [L.upper_covers[m][0] for m in M]
    double = ~leq[np.ix_(J, M)] & leq[np.ix_(lower, M)] & leq[np.ix_(J, upper)]

    def semimodular(op, covers):
        # two covers x, y of z on one side have x op y as a cover of each, on that side
        return all(
            op[x, y] in covers[x] and op[x, y] in covers[y]
            for z in range(L.n)
            for x, y in combinations(covers[z], 2)
        )

    return {
        "modular": semimodular(L.join_table, L.upper_covers) and semimodular(L.meet_table, L.lower_covers),
        "distributive": not _relation(*arrows(L))[np.ix_(J, J)].any(),
        "sd-join": bool((double.sum(axis=0) == 1).all()),
        "sd-meet": bool((double.sum(axis=1) == 1).all()),
    }


def weak_order(k):
    """The weak order S_k on the permutations of range(k): p <= q iff
    every inversion of p is an inversion of q.  It is semidistributive
    and, for k >= 3, not modular."""
    inversions = [
        {(p[i], p[j]) for i, j in combinations(range(k), 2) if p[i] > p[j]}
        for p in permutations(range(k))
    ]
    return FiniteLattice([[a <= b for b in inversions] for a in inversions])


def whitman_leq(s, t):
    """Whether s <= t in the free lattice, by Whitman's recursion case
    by case, with a memo local to the call."""
    memo = {}

    def leq(s, t):
        if (s, t) not in memo:
            memo[s, t] = decide(s, t)
        return memo[s, t]

    def decide(s, t):
        if isinstance(s, str) and isinstance(t, str):
            return s == t
        if isinstance(s, Join):
            return all(leq(si, t) for si in s.args)
        if isinstance(t, Meet):
            return all(leq(s, tj) for tj in t.args)
        if isinstance(s, str):  # t is a join: generators are join prime
            return any(leq(s, tj) for tj in t.args)
        if isinstance(t, str):  # s is a meet: dual
            return any(leq(si, t) for si in s.args)
        # s is a meet, t is a join: Whitman's condition
        return any(leq(si, t) for si in s.args) or any(leq(s, tj) for tj in t.args)

    return leq(s, t)
