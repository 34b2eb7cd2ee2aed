"""latkit: executable lattice theory at desk scale.

Finite lattices with materialized operation tables, equational and
forbidden-sublattice property checkers, sublattice generation and gadget
classification, Jonsson's D-sequence, a Galvin-Jonsson structure-theorem
decision procedure, a free-lattice term engine, windowed ladders with
the constructive splitting procedure, and an exhaustive enumerator of
small lattices that doubles as a brute-force oracle.
"""

from .core import (
    FiniteLattice,
    canonical_key,
    dual,
)
from .catalog import (
    boolean,
    chain,
    cube3,
    linear_sum,
    m3,
    n5,
    product,
    two_by_chain,
)
from .serialize import from_json, load_lattice, save_lattice, to_dot, to_json
from .properties import (
    find_forbidden,
    is_distributive,
    is_modular,
    is_semidistributive,
    m3n5_crosscheck,
    whitman_w,
)
from .subalgebra import flp_nine, gadget, gadget_census, generate_sublattice, verify_universal
from .jonsson import d_sequence, min_join_covers
from .classifier import check_theorem, classify_block, constructive_iso_2xc
from .freeterm import canonical, eval_term, format_term, free_leq
from .freeterm import parse as parse_term
from .ladder import (
    decorate,
    extract_ladder,
    ladder_split,
    spanning_candidate,
    window,
)
from .enumeration import all_lattices, conjecture1_scan, iter_lattices, verify_corpus

__all__ = [
    "FiniteLattice",
    "canonical_key",
    "dual",
    "boolean",
    "chain",
    "cube3",
    "linear_sum",
    "m3",
    "n5",
    "product",
    "two_by_chain",
    "from_json",
    "load_lattice",
    "save_lattice",
    "to_dot",
    "to_json",
    "find_forbidden",
    "is_distributive",
    "is_modular",
    "is_semidistributive",
    "m3n5_crosscheck",
    "whitman_w",
    "flp_nine",
    "gadget",
    "gadget_census",
    "generate_sublattice",
    "verify_universal",
    "d_sequence",
    "min_join_covers",
    "check_theorem",
    "classify_block",
    "constructive_iso_2xc",
    "canonical",
    "eval_term",
    "format_term",
    "free_leq",
    "parse_term",
    "decorate",
    "extract_ladder",
    "ladder_split",
    "spanning_candidate",
    "window",
    "all_lattices",
    "conjecture1_scan",
    "iter_lattices",
    "verify_corpus",
]
