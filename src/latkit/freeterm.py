"""Free-lattice terms: parsing, the word problem, canonical forms,
evaluation.

free_leq implements Whitman's classical recursion: joins on the left
and meets on the right decompose universally, generators existentially
(read off the generator masks below), and the remaining meet-vs-join
case splits by (W).  Canonical form
follows the standard characterization: a join w = w1 + ... + wn is
canonical iff every wi is canonical and not a join, no wi sits below
the join of the others, and no meet component of any wi lies below w
(dually for meets).  The last condition is enforced by rewriting
wi -> wij whenever the component wij satisfies wij <= w, which keeps
the value while shrinking the term; equivalent terms therefore reduce
to identical trees.

A term is a generator, the str of its name, or a Join or Meet of at
least two terms.  Grammar: term := factor ('+' factor)*;
factor := atom ('*' atom)*; atom := ident | '(' term ')'.  Meet binds
tighter than join.

Generator masks.  Every generator name gets one bit from a
module-level registry (name -> bit), which grows by one entry for
each distinct name the process ever builds or compares; a mask is an
int over those bits.  A generator's two masks are its own bit, and
every Join or Meet t carries two more, computed when it is built:

    lower(t) = {x : x <= t},  the OR of the children's lower masks
               for a join and their AND for a meet;
    upper(t) = {x : t <= x},  the AND of the children's upper masks
               for a join and their OR for a meet.

Lemma: these are exactly the generators below and above t in FL(X).
Proof by induction on t.  For a generator y, x <= y iff x = y.  For a
join, t <= x iff every child is <= x; for a meet, x <= t iff x is
below every child.  The other two cases are Whitman's generator cases:
a generator x is join-prime in FL(X), so x <= t1 + ... + tn iff
x <= ti for some i, and dually meet-prime, so t1 * ... * tn <= x iff
ti <= x for some i.  Each case is the mask rule above.

So free_leq(s, t) opens with two set tests.  If s <= t, then every
generator below s is below t and every generator above t is above s,
so lower(s) - lower(t) or upper(t) - upper(s) nonempty gives False.
If some generator x is in upper(s) & lower(t), then s <= x <= t, which
gives True.  When s is a generator x, lower(s) = {x}: either x is in
lower(t), and the second test answers True, or the first answers
False; dually when t is a generator.  So every pair with a generator
on either side is decided without recursion, and only join-left,
meet-right and meet-vs-join pairs recurse.
"""

import re
from functools import lru_cache
from itertools import count

from .errors import TermSyntaxError, UnboundGenerator


# Parentheses nest at most this deep: parse, free_leq and canonical
# recurse on the Python stack and stay well inside its default limit.
# A level of parentheses adds at most a join and a meet, so no parsed
# tree is deeper than MAX_NODE_DEPTH, and no built tree may be.
MAX_TERM_DEPTH = 40
MAX_NODE_DEPTH = 2 * (MAX_TERM_DEPTH + 1)

# Generator name -> its mask bit.  Entries are never removed, so masks
# stay valid for the life of the process; the counter hands out each
# bit once even if two threads register names at the same time.
_BITS = {}
_NEXT_BIT = count()


def _bit(name):
    bit = _BITS.get(name)
    if bit is None:
        bit = _BITS.setdefault(name, 1 << next(_NEXT_BIT))
    return bit


def _masks(t):
    """(lower, upper): the generators below and above t, as bit masks."""
    if isinstance(t, str):
        bit = _bit(t)
        return bit, bit
    return t.lower, t.upper


class _Compound:
    __slots__ = ("args", "_hash", "depth", "lower", "upper")
    _tag = ""

    def __init__(self, args):
        args = tuple(args)
        if len(args) < 2:
            raise ValueError(f"{self._tag} node needs >= 2 children")
        kind, flat, depth = type(self), [], 1
        # a join ORs lower and ANDs upper, a meet the reverse: `ored`
        # and `anded` accumulate the children's masks in those roles
        is_join, ored, anded = kind._tag == "join", 0, -1
        for arg in args:
            if isinstance(arg, str):
                flat.append(arg)
                bit = _bit(arg)
                ored |= bit
                anded &= bit
                continue
            if isinstance(arg, kind):
                flat.extend(arg.args)
                if arg.depth > depth:
                    depth = arg.depth
            else:
                flat.append(arg)
                if arg.depth >= depth:
                    depth = arg.depth + 1
            if is_join:
                ored |= arg.lower
                anded &= arg.upper
            else:
                ored |= arg.upper
                anded &= arg.lower
        if depth > MAX_NODE_DEPTH:
            raise ValueError(f"term nests deeper than {MAX_NODE_DEPTH}")
        lower, upper = (ored, anded) if is_join else (anded, ored)
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "args", tuple(flat))
        object.__setattr__(self, "_hash", hash((self._tag, self.args)))
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    def __setattr__(self, *a):
        raise AttributeError("terms are immutable")

    def __reduce__(self):
        # rebuild on load: the hash and the masks belong to this process
        return type(self), (self.args,)

    def __eq__(self, other):
        return type(other) is type(self) and self.args == other.args

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"{type(self).__name__}{self.args!r}"


class Join(_Compound):
    __slots__ = ()
    _tag = "join"


class Meet(_Compound):
    __slots__ = ()
    _tag = "meet"


# -- parsing and formatting ------------------------------------------

# a token, or in the second group the first character that starts none
_TOKEN = re.compile(r"\s*(?:([A-Za-z_][A-Za-z0-9_]*|[+*()])|(\S))")


def _tokenize(text):
    out = []
    for match in _TOKEN.finditer(text):
        tok, bad = match.groups()
        if bad is not None:
            raise TermSyntaxError(f"unexpected character {bad!r}", match.start(2))
        out.append((tok, match.start(1)))
    out.append((None, len(text)))
    return out


def parse(text):
    tokens = _tokenize(text)
    index = 0
    depth = 0

    def peek():
        return tokens[index][0]

    def advance():
        nonlocal index
        tok = tokens[index]
        index += 1
        return tok

    def parse_term():
        parts = [parse_factor()]
        while peek() == "+":
            advance()
            parts.append(parse_factor())
        return parts[0] if len(parts) == 1 else Join(parts)

    def parse_factor():
        parts = [parse_atom()]
        while peek() == "*":
            advance()
            parts.append(parse_atom())
        return parts[0] if len(parts) == 1 else Meet(parts)

    def parse_atom():
        nonlocal depth
        tok, pos = advance()
        if tok == "(":
            depth += 1
            if depth > MAX_TERM_DEPTH:
                raise TermSyntaxError(
                    f"parentheses nest deeper than {MAX_TERM_DEPTH}", pos
                )
            inner = parse_term()
            closer, cpos = advance()
            if closer != ")":
                raise TermSyntaxError("expected ')'", cpos)
            depth -= 1
            return inner
        if tok is None or tok in "+*)":
            raise TermSyntaxError(f"expected a term, got {tok!r}", pos)
        return tok

    result = parse_term()
    tok, pos = tokens[index]
    if tok is not None:
        raise TermSyntaxError(f"trailing input {tok!r}", pos)
    return result


def format_term(t):
    if isinstance(t, str):
        return t
    if isinstance(t, Meet):
        return "*".join(
            part if isinstance(part, str) else f"({format_term(part)})"
            for part in t.args
        )
    return "+".join(format_term(part) for part in t.args)


# -- the word problem -------------------------------------------------


@lru_cache(maxsize=None)
def free_leq(s, t):
    """Whether s <= t holds in the free lattice."""
    s_lower, s_upper = _masks(s)
    t_lower, t_upper = _masks(t)
    if s_lower & ~t_lower or t_upper & ~s_upper:
        return False
    if s_upper & t_lower:  # s <= x <= t for a generator x
        return True
    # neither side is a generator (see the module docstring)
    if isinstance(s, Join):
        return all(free_leq(si, t) for si in s.args)
    if isinstance(t, Meet):
        return all(free_leq(s, tj) for tj in t.args)
    # s is a meet, t is a join: Whitman's condition
    return any(free_leq(si, t) for si in s.args) or any(
        free_leq(s, tj) for tj in t.args
    )


def free_eq(s, t):
    return free_leq(s, t) and free_leq(t, s)


def term_key(t):
    """Fixed total order: generators by name, meets before joins, then
    lexicographically on children.  Stable under adding generators."""
    if isinstance(t, str):
        return (0, t)
    tag = 1 if isinstance(t, Meet) else 2
    return (tag, tuple(term_key(c) for c in t.args))


def canonical(t):
    """Unique canonical representative of the equivalence class of t."""
    if isinstance(t, str):
        return t
    node, other = (Join, Meet) if isinstance(t, Join) else (Meet, Join)
    below = free_leq if node is Join else (lambda a, b: free_leq(b, a))
    kids = []
    for child in t.args:  # canonicalize and flatten
        child = canonical(child)
        kids.extend(child.args if isinstance(child, node) else [child])
    changed = True
    while changed:
        changed = False
        kids = list(dict.fromkeys(kids))  # drop duplicates, keep first occurrence
        if len(kids) > 1:
            whole = node(kids)
            for pos, k in enumerate(kids):
                rest = kids[:pos] + kids[pos + 1 :]
                if below(k, rest[0] if len(rest) == 1 else node(rest)):
                    kids = rest  # absorbed child
                    changed = True
                    break
                if isinstance(k, other):
                    swap = next(
                        (comp for comp in k.args if below(comp, whole)), None
                    )
                    if swap is not None:
                        # k <= component <= whole: replacing keeps the value
                        kids[pos : pos + 1] = (
                            list(swap.args) if isinstance(swap, node) else [swap]
                        )
                        changed = True
                        break
    kids.sort(key=term_key)
    return kids[0] if len(kids) == 1 else node(kids)


def generators(t):
    if isinstance(t, str):
        return {t}
    out = set()
    for child in t.args:
        out |= generators(child)
    return out


def eval_term(t, L, assignment):
    """Evaluate in a finite lattice: the unique homomorphism extending
    the generator assignment."""
    if isinstance(t, str):
        try:
            return assignment[t]
        except KeyError:
            raise UnboundGenerator(t) from None
    values = [eval_term(c, L, assignment) for c in t.args]
    op = L.join if isinstance(t, Join) else L.meet
    result = values[0]
    for value in values[1:]:
        result = op(result, value)
    return result


def random_term(rng, gens, depth):
    """Random term tree; used by the sampling tests."""
    if depth <= 0 or rng.random() < 0.3:
        return rng.choice(gens)
    node = Join if rng.random() < 0.5 else Meet
    width = rng.randint(2, 3)
    return node([random_term(rng, gens, depth - 1) for _ in range(width)])
