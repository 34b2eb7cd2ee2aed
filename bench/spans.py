"""Span recorder for the traced benchmark run.

The tracer rebinds public latkit functions to thin wrappers.  A function
object is replaced wherever it is bound in a ``latkit.*`` module, and
methods are replaced on their class, so calls that the program makes
internally are seen as well as the benchmark's own calls.  Each layer
records one span per outermost call.  While that call runs, the layer's
original functions are bound again, so recursion and nested calls into
the same layer (``from_covers`` calling ``__init__``) run unwrapped and
add neither spans nor overhead.  Spans are ``(layer, start, end, parent,
note)`` tuples kept in memory; ``parent`` is the index of the innermost
enclosing span of any layer, or -1.
"""

import functools
import importlib
import json
import sys
import time

def _level(args, result):
    """all_lattices(n, ...) -> [n, number of lattices returned]."""
    return [args[0], len(result)]


# (layer, module, attribute path, note).  A note maps (args, result) to a
# small JSON value stored with the span.
TARGETS = [
    ("enumeration.generate", "latkit.enumeration", "all_lattices", _level),
    ("enumeration.pocket", "latkit.enumeration", "pocket_decomposition", None),
    ("cli.verify_corpus", "latkit.enumeration", "verify_corpus", None),
    ("core.build", "latkit.core", "FiniteLattice.__init__", None),
    ("core.build", "latkit.core", "FiniteLattice.from_covers", None),
    ("core.closure", "latkit.core", "transitive_closure", None),
    ("core.width", "latkit.core", "FiniteLattice.width", None),
    ("core.canonical_key", "latkit.core", "canonical_key", None),
    ("core.find_isomorphism", "latkit.core", "find_isomorphism", None),
    ("properties.modular", "latkit.properties", "is_modular", None),
    ("properties.distributive", "latkit.properties", "is_distributive", None),
    ("properties.sd", "latkit.properties", "is_semidistributive", None),
    ("properties.whitman", "latkit.properties", "whitman_w", None),
    ("properties.forbidden", "latkit.properties", "find_forbidden", None),
    ("properties.crosscheck", "latkit.properties", "m3n5_crosscheck", None),
    ("classifier.check_theorem", "latkit.classifier", "check_theorem", None),
    ("classifier.iso_2xc", "latkit.classifier", "constructive_iso_2xc", None),
    ("jonsson.d_sequence", "latkit.jonsson", "d_sequence", None),
    ("subalgebra.census", "latkit.subalgebra", "census_one", None),
    ("subalgebra.census", "latkit.subalgebra", "gadget_census", None),
    ("subalgebra.gadget", "latkit.subalgebra", "gadget", None),
    ("subalgebra.generate", "latkit.subalgebra", "generate_sublattice", None),
    ("ladder.window", "latkit.ladder", "window", None),
    ("ladder.decorate", "latkit.ladder", "decorate", None),
    ("ladder.split", "latkit.ladder", "ladder_split", None),
    ("serialize.load", "latkit.serialize", "load_lattice", None),
    ("freeterm.parse", "latkit.freeterm", "parse", None),
    ("freeterm.leq", "latkit.freeterm", "free_leq", None),
    ("freeterm.canonical", "latkit.freeterm", "canonical", None),
]

class Tracer:
    def __init__(self):
        self.spans = []
        self.skipped = []
        self._stack = []
        self._bindings = {}  # layer -> [(owner, attr, original, wrapped)]

    def _wrap(self, layer, fn, note):
        spans, stack = self.spans, self._stack
        bindings = self._bindings.setdefault(layer, [])
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            for owner, attr, original, _ in bindings:
                setattr(owner, attr, original)
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (layer, start, end, stack[-1] if stack else -1, note(args, result) if note and result is not None else None)
                for owner, attr, _, wrapped in bindings:
                    setattr(owner, attr, wrapped)

        return traced

    def install(self):
        """Rebind every target; targets that no longer exist are listed in
        ``self.skipped`` instead of failing the run."""
        modules = [m for name, m in sys.modules.items() if name == "latkit" or name.startswith("latkit.")]
        for layer, modname, path, note in TARGETS:
            owner_name, _, attr = path.rpartition(".")
            try:
                module = importlib.import_module(modname)
                if owner_name:
                    owner = getattr(module, owner_name)
                    raw = owner.__dict__[attr]
                else:
                    raw = getattr(module, attr)
            except (ImportError, AttributeError, KeyError):
                self.skipped.append(f"{modname}.{path}")
                continue
            if owner_name:
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(layer, raw.__func__, note))
                else:
                    new = self._wrap(layer, raw, note)
                sites = [(owner, attr)]
            else:
                new = self._wrap(layer, raw, note)
                sites = [(mod, name) for mod in modules for name, value in vars(mod).items() if value is raw]
            for site, name in sites:
                setattr(site, name, new)
                self._bindings[layer].append((site, name, raw, new))

    def uninstall(self):
        for bindings in self._bindings.values():
            for owner, attr, original, _ in bindings:
                setattr(owner, attr, original)
        self._bindings.clear()

    def write(self, path, t0):
        """One header line, then one line per span with times in seconds
        from the start of the timed phase."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"skipped": self.skipped, "fields": ["layer", "start", "end", "parent", "note"]}) + "\n")
            for layer, start, end, parent, note in self.spans:
                handle.write(json.dumps([layer, round(start - t0, 7), round(end - t0, 7), parent, note]) + "\n")


def layer_metrics(spans):
    """Per-layer totals from a span list: inclusive seconds and call counts
    per layer, plus the enumeration notes."""
    seconds, calls = {}, {}
    level10 = 0.0
    lattices = 0
    for layer, start, end, _parent, note in spans:
        seconds[layer] = seconds.get(layer, 0.0) + (end - start)
        calls[layer] = calls.get(layer, 0) + 1
        if layer == "enumeration.generate" and note is not None:
            lattices += note[1]
            if note[0] == 10:
                level10 += end - start
    out = {}
    for layer in sorted({t[0] for t in TARGETS}):
        out[f"{layer}_s"] = seconds.get(layer, 0.0)
        out[f"{layer}_calls"] = calls.get(layer, 0)
    out["enumeration.level10_s"] = level10
    out["enumeration.lattices"] = lattices
    out["subalgebra.gadgets"] = calls.get("subalgebra.gadget", 0)
    return out
