"""Per-layer tracing of treealg from outside the package.

Every traced callable is replaced by a wrapper at each module binding
that refers to it (so ``from x import f`` copies are caught too) and
class methods are replaced on the class.  Nothing inside ``src/`` is
edited.  A wrapper records a span: its duration, its self time (the
duration minus the spans of the traced calls it made) and its call
count.  The bookkeeping of a child span is charged to neither the child
nor its parent, so self times exclude most of the tracer's own cost.
"""

import sys
import time
from collections import defaultdict

# (layer metric prefix, module, attribute or Class.method)
SPANS = [
    ("linalg.reduce_exact", "treealg.linalg", "EchelonSpan.reduce_exact"),
    ("linalg.insert", "treealg.linalg", "EchelonSpan.insert"),
    ("linalg.contains", "treealg.linalg", "EchelonSpan.contains"),
    ("linalg.rref_rows", "treealg.linalg", "EchelonSpan.rref_rows"),
    ("linalg.to_int_row", "treealg.linalg", "to_int_row"),
    ("linalg.kernel_basis", "treealg.linalg", "kernel_basis"),
    ("linalg.lincomb", "treealg.linalg", "LinComb.__init__"),
    ("linalg.lincomb", "treealg.linalg", "combine"),
    ("kernel.reduce_row", "treealg._kernel", "reduce_row"),
    ("kernel.rref", "treealg._kernel", "rref"),
    ("dendriform.products", "treealg.dendriform", "dprec"),
    ("dendriform.products", "treealg.dendriform", "dsucc"),
    ("dendriform.products", "treealg.dendriform", "dstar"),
    ("dendriform.saturate", "treealg.dendriform", "DendSpan.saturate"),
    ("dendriform.eval_pbt", "treealg.dendriform", "eval_pbt"),
    ("bialgebra.coproduct", "treealg.bialgebra", "coproduct"),
    ("operads.ideal_closure", "treealg.operads", "ideal_closure"),
    ("operads.graft", "treealg.operads", "_graft"),
    ("words.zin_eval", "treealg.words", "zin_eval"),
    ("envelope.relation_generators", "treealg.envelope", "relation_generators"),
    ("envelope.harvest_brace", "treealg.envelope", "harvest_brace"),
    ("envelope.theta_roundtrip", "treealg.envelope", "theta_roundtrip"),
    ("envelope.build_envelope", "treealg.envelope", "build_envelope"),
    ("envelope.envelope_primitives", "treealg.envelope", "envelope_primitives"),
    ("envelope.verify_coideal", "treealg.envelope", "TruncatedQuotient.verify_coideal"),
    ("envelope.reduce", "treealg.envelope", "TruncatedQuotient.reduce"),
    ("trees.basis", "treealg.trees", "pbt_basis"),
    ("trees.basis", "treealg.trees", "weighted_pbt_basis"),
]

CACHE_MODULES = ("dendriform", "bialgebra", "words", "trees", "suites")
TREE_CACHES = ("dendriform._tree_prec", "dendriform._tree_succ", "dendriform._tree_star")
DELTA_CACHE = "bialgebra._delta_tree"


class Tracer:
    def __init__(self):
        self.stack = []  # per open span: time covered by its child spans
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.active = defaultdict(int)
        self.count = defaultdict(int)  # counters filled by the hooks below

    def wrap(self, name, fn, before=None, after=None):
        stack, calls, self_s, active = self.stack, self.calls, self.self_s, self.active
        clock = time.perf_counter

        def traced(*args, **kwargs):
            t_enter = clock()
            if before is not None:
                before(args)
            active[name] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self_s[name] += t1 - t0 - stack.pop()
                calls[name] += 1
                active[name] -= 1
            if after is not None:
                after(args, out)
            if stack:
                stack[-1] += clock() - t_enter
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # hooks: they run outside the span they belong to
    def _row_density(self, args):
        vec = args[1]
        self.count["row_nonzeros"] += sum(1 for x in vec if x)
        self.count["row_columns"] += len(vec)

    def _insert_done(self, args, out):
        if out is not None:
            self.count["insert_grew"] += 1
        if self.active["operads.ideal_closure"]:
            self.count["closure_inserts"] += 1

    def _product_done(self, args, out):
        if out.is_zero():
            self.count["zero_products"] += 1

    def _generators_done(self, args, out):
        b, degree_bound = args[0], args[1]
        walked, kept = tuples_walked(b, degree_bound)
        self.count["generators_kept"] += len(out)
        self.count["tuples_walked"] += walked
        if kept != len(out):
            self.count["kept_mismatch"] += 1

    def hooks(self, name):
        if name in ("linalg.insert", "linalg.contains", "linalg.reduce_exact"):
            before = self._row_density
        else:
            before = None
        after = {
            "linalg.insert": self._insert_done,
            "dendriform.products": self._product_done,
            "envelope.relation_generators": self._generators_done,
        }.get(name)
        return before, after

    def install(self):
        """Wrap every entry of SPANS in the imported treealg modules."""
        modules = [m for k, m in sys.modules.items() if k == "treealg" or k.startswith("treealg.")]
        for name, modname, attr in SPANS:
            owner = sys.modules[modname]
            before, after = self.hooks(name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(name, cls.__dict__[meth], before, after))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, before, after)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapper)

    def metrics(self):
        """Per-layer metrics as {name: value}, plus the cache dumps."""
        caches = cache_infos()
        out = {}
        for name in dict.fromkeys(n for n, _, _ in SPANS):
            out[name + ".calls"] = self.calls[name]
            out[name + ".self_s"] = self.self_s[name]
        c = self.count
        out["linalg.insert.growth_ratio"] = _ratio(c["insert_grew"], self.calls["linalg.insert"])
        out["linalg.row_density"] = _ratio(c["row_nonzeros"], c["row_columns"])
        out["dendriform.products.zero_ratio"] = _ratio(
            c["zero_products"], self.calls["dendriform.products"]
        )
        out["operads.closure_inserts"] = c["closure_inserts"]
        out["envelope.relation_generators.kept_ratio"] = _ratio(
            c["generators_kept"], c["tuples_walked"]
        )
        for prefix, names in (
            ("dendriform.tree_cache", TREE_CACHES),
            ("bialgebra.delta_cache", (DELTA_CACHE,)),
        ):
            hits = sum(caches[n]["hits"] for n in names)
            misses = sum(caches[n]["misses"] for n in names)
            out[prefix + ".hit_ratio"] = _ratio(hits, hits + misses)
            out[prefix + ".size"] = sum(caches[n]["currsize"] for n in names)
        return out, caches


def _ratio(num, den):
    return num / den if den else 0.0


def tuples_walked(b, degree_bound):
    """(tuples walked, tuples kept) by ``relation_generators``.

    It walks dim**arity tuples for each arity it visits and stops after
    the first arity with no tuple of weight <= the bound.  The kept
    tuples are counted here by weight sums, not by enumeration; their
    total must equal the number of generators returned."""
    limit = degree_bound if b.weight_bound is None else min(degree_bound, b.weight_bound)
    by_weight = defaultdict(int)
    for w in b.weights:
        by_weight[w] += 1
    sums = dict(by_weight)  # weight sum -> number of 1-tuples
    walked = kept = 0
    for arity in range(2, degree_bound + 1):
        nxt = defaultdict(int)
        for s, n in sums.items():
            for w, m in by_weight.items():
                if s + w <= limit:
                    nxt[s + w] += n * m
        sums = nxt
        walked += b.dim**arity
        kept += sum(sums.values())
        if not sums:
            break
    return walked, kept


def cache_infos():
    """cache_info() of every lru_cache in the traced modules, by name."""
    out = {}
    for short in CACHE_MODULES:
        mod = sys.modules["treealg." + short]
        for key, val in sorted(vars(mod).items()):
            info = getattr(val, "cache_info", None)
            if callable(info) and val.__module__ == mod.__name__:
                out["%s.%s" % (short, key)] = info()._asdict()
    return out
