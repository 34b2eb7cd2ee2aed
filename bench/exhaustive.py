"""Workload ``exhaustive``: the scan loop over every small lattice.

Timed work, the same on every seed:

1. a cold enumeration of every lattice with n <= 10 (7,372 classes);
2. per-lattice checks on the 1,378 lattices with n <= 9, one operation
   per lattice: check_theorem, m3n5_crosscheck, whitman_w,
   is_semidistributive, width, pocket_decomposition on width-two lattices
   satisfying (W), d_sequence, and census_one for n <= 8;
3. one ``latkit verify corpus --max-n 9`` through the CLI entry point.

The seed sets the order in which step 2 visits the lattices.
"""

import contextlib
import io
import json
import random
from itertools import combinations

import latkit.classifier as classifier
import latkit.cli as cli
import latkit.core as core
import latkit.enumeration as enumeration
import latkit.jonsson as jonsson
import latkit.properties as properties
import latkit.subalgebra as subalgebra

# OEIS A006966: lattices on n unlabeled nodes, n = 1..10.
A006966 = (1, 1, 1, 2, 5, 15, 53, 222, 1078, 5994)
MAX_N = 10
SCAN_N = 9
CENSUS_N = 8


def setup(seed, round_index, workdir):
    order = list(range(sum(A006966[:SCAN_N])))
    random.Random(f"exhaustive:{seed}:{round_index}").shuffle(order)
    return {"order": order}


def check_one(L):
    w = properties.whitman_w(L)
    width = L.width()
    return {
        "theorem": classifier.check_theorem(L),
        "cross": properties.m3n5_crosscheck(L),
        "whitman": w,
        "sd": properties.is_semidistributive(L),
        "width": width,
        "pockets": enumeration.pocket_decomposition(L) if width == 2 and w.verdict else None,
        "dseq": jonsson.d_sequence(L),
        "census": subalgebra.census_one(L) if L.n <= CENSUS_N else None,
    }


def verify_corpus():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(["verify", "corpus", "--max-n", str(SCAN_N)])
    return code, out.getvalue()


def run(state, ops):
    levels = [enumeration.all_lattices(n, cap=MAX_N) for n in range(1, MAX_N + 1)]
    scan = [L for level in levels[:SCAN_N] for L in level]
    results = [None] * len(scan)
    for i in state["order"]:
        results[i] = ops.run(check_one, scan[i])
    corpus = verify_corpus()
    return {"levels": levels, "scan": scan, "results": results, "corpus": corpus}


# -- checks (outside the timed phase) --------------------------------------


def _order_invariant(L):
    """Relabeling-invariant fingerprint computed here, apart from latkit's
    canonical forms: per element (down-set size, up-set size) and the
    sorted fingerprints of everything above and below it."""
    rows = L.leq.tolist()
    n = L.n
    sig = [sum(rows[j][i] for j in range(n)) * 16 + sum(rows[i]) for i in range(n)]
    return tuple(
        sorted(
            (
                sig[i],
                tuple(sorted(sig[j] for j in range(n) if rows[i][j])),
                tuple(sorted(sig[j] for j in range(n) if rows[j][i])),
            )
            for i in range(n)
        )
    )


def _brute_width(L):
    """Largest antichain by exhaustive search over subsets (n <= 9)."""
    n = L.n
    comparable = [sum(1 << j for j in range(n) if j != i and (L.leq[i, j] or L.leq[j, i])) for i in range(n)]
    best = 0

    def grow(start, chosen, size):
        nonlocal best
        best = max(best, size)
        for i in range(start, n):
            if not comparable[i] & chosen:
                grow(i + 1, chosen | (1 << i), size + 1)

    grow(0, 0, 0)
    return best


def _order(covers):
    """Reflexive-transitive closure of a cover list on 0..4, as a set of pairs."""
    leq = {(i, i) for i in range(5)} | set(covers)
    while True:
        extra = {(a, d) for a, b in leq for c, d in leq if b == c} - leq
        if not extra:
            return leq
        leq |= extra


# the patterns numbered as latkit.catalog numbers them
N5_ORDER = _order([(0, 1), (0, 2), (1, 3), (3, 4), (2, 4)])
M3_ORDER = _order([(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])


def _is_embedding(L, emb, pattern_order):
    """emb maps pattern elements 0..4 to L; the image must be closed under
    L's join and meet and order-isomorphic to the pattern."""
    image = [emb[i] for i in range(5)]
    if len(set(image)) != 5:
        return False
    if any(bool(L.leq[image[i], image[j]]) != ((i, j) in pattern_order) for i in range(5) for j in range(5)):
        return False
    members = set(image)
    return all(L.join(x, y) in members and L.meet(x, y) in members for x in image for y in image)


def _pocket_problems(L, pockets):
    out = []
    for p in pockets:
        interior = p.chain_a + p.chain_b
        if not all(L.leq[p.zero, z] and L.leq[z, p.one] and z not in (p.zero, p.one) for z in interior):
            out.append(f"pocket {p} leaves its interval")
        for side in (p.chain_a, p.chain_b):
            if any(not (L.leq[x, y] or L.leq[y, x]) for x, y in combinations(side, 2)):
                out.append(f"pocket side {side} is not a chain")
        if any(L.leq[a, b] or L.leq[b, a] for a in p.chain_a for b in p.chain_b):
            out.append(f"pocket {p} has a comparable cross pair")
    return out


def check(state, outputs):
    problems = []
    counts = tuple(len(level) for level in outputs["levels"])
    if counts != A006966:
        problems.append(f"level counts {counts} != A006966 {A006966}")

    for level in outputs["levels"]:
        groups = {}
        for L in level:
            groups.setdefault(_order_invariant(L), []).append(L)
        for group in groups.values():
            if len(group) > 1:
                keys = {core.canonical_key(L) for L in group}
                if len(keys) != len(group):
                    problems.append(f"isomorphic lattices enumerated twice (n={group[0].n})")
    keys = [core.canonical_key(L) for L in outputs["scan"]]
    if len(set(keys)) != len(keys):
        problems.append("canonical keys of the n <= 9 lattices are not pairwise distinct")

    pairs = {}
    for L, r in zip(outputs["scan"], outputs["results"]):
        if r is None:
            continue
        cross, theorem = r["cross"], r["theorem"]
        if cross.distributive and not cross.modular:
            problems.append(f"distributive but not modular: {L!r}")
        if cross.modular and cross.n5_embedding is not None:
            problems.append(f"modular with an N5 sublattice: {L!r}")
        if theorem.distributive != cross.distributive:
            problems.append(f"check_theorem and m3n5_crosscheck disagree on distributivity: {L!r}")
        if cross.n5_embedding is not None and not _is_embedding(L, cross.n5_embedding, N5_ORDER):
            problems.append(f"N5 witness is not a sublattice: {L!r}")
        if cross.m3_embedding is not None and not _is_embedding(L, cross.m3_embedding, M3_ORDER):
            problems.append(f"M3 witness is not a sublattice: {L!r}")
        if r["dseq"].quadrant == "(=,=)" and not r["sd"].verdict:
            problems.append(f"bounded (quadrant (=,=)) but not semidistributive: {L!r}")
        if cross.distributive and r["dseq"].quadrant != "(=,=)":
            problems.append(f"finite distributive lattice not bounded: {L!r}")
        if r["whitman"].verdict and L.doubly_reducibles():
            problems.append(f"(W) holds but a doubly reducible element exists: {L!r}")
        if r["width"] != _brute_width(L):
            problems.append(f"width {r['width']} != exhaustive antichain search on {L!r}")
        if r["pockets"] is not None:
            problems.extend(_pocket_problems(L, r["pockets"][0]))
        if r["census"] is not None:
            for key, count in r["census"][1].items():
                pairs[key] = pairs.get(key, 0) + count
    iso_classes = {key for _, key in pairs}
    fingerprints = {fp for fp, _ in pairs}
    if len(iso_classes) > 6 or len(fingerprints) > 7:
        problems.append(f"gadget census: {len(iso_classes)} iso classes, {len(fingerprints)} fingerprints")

    code, text = outputs["corpus"]
    report = json.loads(text) if text.strip() else {}
    if code != 0 or report.get("pass") is not True:
        problems.append(f"verify corpus exited {code} with pass={report.get('pass')}")
    return problems
