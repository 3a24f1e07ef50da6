"""Function-level tracing of the library, installed from outside it.

`Tracer.install` replaces every module-level binding of a public library
function, and every public method of a library class, by a wrapper that
times the call. Modules import names such as `carry_pattern` directly, so
each binding gets its own wrapper; all of them report under the function's
home module, as `<module>.<function>`. A layer that does not exist is
recorded as absent and skipped.

Per function the tracer keeps a call count, total time and self time (total
minus the time of wrapped calls made inside it). The base-p digit helpers and
the entrywise predicates run millions of times inside the functions above
them: `check_prime` and `expand` are only counted, and the others are not
wrapped, so their time stays in their caller's self time. Individual spans (id,
parent, job, name, start, duration) are kept only for a function's first
SPAN_LIMIT calls; after that it is counted in aggregate only, which keeps
functions called millions of times cheap to follow. Hooks read arguments and
results to count work done, such as generators produced or matrix cells.
"""

import functools
import importlib
import inspect
import statistics
from math import comb
from time import perf_counter

PACKAGE = "carryideals"
LAYERS = ("basep", "carry", "multmap", "ideals", "twovars", "koszul", "modp", "gl2", "cli")
SPAN_LIMIT = 1000
COUNTED = {"basep.check_prime", "basep.expand"}
UNWRAPPED = {"ideals.divides", "carry.leq", "carry.digits"}


def _function_like(obj):
    """Plain functions and functools caches; generator functions are left
    alone, because their work runs in the caller's frame while it iterates."""
    if inspect.isfunction(obj):
        return not inspect.isgeneratorfunction(obj)
    return callable(obj) and hasattr(obj, "cache_info")


class Tracer:
    def __init__(self):
        self.stats = {}  # name -> [calls, total seconds, self seconds]
        self.counters = {}
        self.job_self = {}  # layer -> self seconds inside the current job
        self.job_inclusive = {}  # layer -> seconds inside its outermost spans, same job
        self._depth = dict.fromkeys(LAYERS, 0)
        self.job = None
        self.spans = []
        self.absent = []
        self._stack = []
        self._next_id = 0
        self._saved = []
        self._contexts = set()
        self.hook_errors = 0
        self.hooks = {
            "carry.monomials_with_carry_leq": self._gen_yield,
            "ideals.carry_ideal": self._context_repeat,
            "ideals.minimalize": self._kept,
            "ideals.degree_pieces": self._pieces,
            "koszul.quotient_basis": self._quotient,
            "modp.rank": self._cells,
        }

    def start_job(self, index):
        self.job = index
        self.job_self = {}
        self.job_inclusive = {}

    # -- counters fed by hooks ---------------------------------------------

    def count(self, key, amount):
        self.counters[key] = self.counters.get(key, 0) + amount

    def _gen_yield(self, args, result):
        ctx = args[1]
        self.count("carry.generators", len(result))
        self.count("carry.compositions", comb(ctx.d + ctx.n - 1, ctx.n - 1))

    def _context_repeat(self, args, result):
        key = tuple(args[1:4])
        self.count("carry.contexts", 1)
        self.count("carry.context_repeats", key in self._contexts)
        self._contexts.add(key)

    def _kept(self, args, result):
        self.count("ideals.minimalize.in", len(set(args[0])))
        self.count("ideals.minimalize.out", len(result))

    def _pieces(self, args, result):
        self.count("ideals.degree_pieces.monomials", sum(map(len, result.values())))

    def _quotient(self, args, result):
        self.count("koszul.quotient_basis.monomials", len(result))

    def _cells(self, args, result):
        self.count("modp.rank.cells", len(args[0]) * args[1])

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap the library for one traced pass; contexts repeat within a pass."""
        self._contexts.clear()
        package = importlib.import_module(PACKAGE)
        modules = [package]
        for layer in LAYERS:
            try:
                modules.append(importlib.import_module(f"{PACKAGE}.{layer}"))
            except ImportError:
                if layer not in self.absent:
                    self.absent.append(layer)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._wrap_methods(obj)
                elif _function_like(obj):
                    layer = self._layer_of(obj)
                    if layer:
                        self._replace(module, attr, obj, f"{layer}.{obj.__name__}", layer)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _layer_of(self, obj):
        home = getattr(obj, "__module__", "") or ""
        prefix, _, layer = home.partition(".")
        return layer if prefix == PACKAGE and layer in LAYERS else None

    def _wrap_methods(self, cls):
        layer = self._layer_of(cls)
        if not layer:
            return
        for attr, obj in list(vars(cls).items()):
            if not attr.startswith("_") and _function_like(obj):
                self._replace(cls, attr, obj, f"{layer}.{attr}", layer)

    def _replace(self, owner, attr, fn, name, layer):
        if getattr(fn, "_perfbench_traced", False) or name in UNWRAPPED:
            return
        if layer == "basep":
            if name not in COUNTED:
                return
            wrapper = self._wrap_counted(fn, name)
        else:
            wrapper = self._wrap(fn, name, layer)
        wrapper._perfbench_traced = True
        self._saved.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def _wrap_counted(self, fn, name):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, fn, name, layer):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        hook = self.hooks.get(name)
        stack = self._stack
        depth = self._depth
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][1] if stack else None
            frame = [0.0, span_id]
            stack.append(frame)
            depth[layer] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                depth[layer] -= 1
                if not depth[layer]:
                    incl = tracer.job_inclusive
                    incl[layer] = incl.get(layer, 0.0) + elapsed
                if stack:
                    stack[-1][0] += elapsed
                own = elapsed - frame[0]
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += own
                tracer.job_self[layer] = tracer.job_self.get(layer, 0.0) + own
                if stat[0] <= SPAN_LIMIT:
                    tracer.spans.append((span_id, parent, tracer.job, name, start, elapsed))
            if hook is not None:
                try:
                    hook(args, result)
                except (TypeError, IndexError, AttributeError):
                    tracer.hook_errors += 1
            return result

        return wrapper


def quantile(values, q):
    """The q-quantile by linear interpolation between order statistics."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def per_layer(tracer, traced, plain_wall):
    """Per-layer metrics, per pass, from the traced passes.

    traced holds the traced passes (worker.Pass); plain_wall is the median
    untraced pass time. Both pass times in the overhead ratio are scaled to
    the reference speed; the other times are as measured.
    """
    passes = len(traced)
    stats = tracer.stats
    counters = tracer.counters

    def calls(name):
        return (stats.get(name, (0, 0.0, 0.0))[0] / passes, "count")

    def self_s(name):
        return (stats.get(name, (0, 0.0, 0.0))[2] / passes, "s")

    def layer_self(layer):
        total = sum(s[2] for name, s in stats.items() if name.startswith(layer + "."))
        return total / passes

    def per_pass(key):
        return (counters.get(key, 0) / passes, "count")

    def ratio(num, den):
        return (counters.get(num, 0) / counters[den] if counters.get(den) else 0.0, "ratio")

    wall = statistics.median(t.wall for t in traced)
    latencies = [x for t in traced for x in t.latencies]
    job_layers = [x for t in traced for x in t.layers]
    cut = quantile(latencies, 0.9)
    tail = [(lat, lay) for lat, lay in zip(latencies, job_layers) if lat > cut]
    tail_time = sum(lat for lat, _ in tail) or float("inf")
    tail_self = sum(own.get("multmap", 0.0) for _, (own, _) in tail)
    tail_walk = sum(incl.get("multmap", 0.0) for _, (_, incl) in tail)
    membership = stats.get("ideals.contains_monomial", (0, 0.0, 0.0))[2] / passes

    metrics = {
        "basep.check_prime.calls": calls("basep.check_prime"),
        "basep.expand.calls": calls("basep.expand"),
        "carry.carry_pattern.calls": calls("carry.carry_pattern"),
        "carry.carry_pattern.self_s": self_s("carry.carry_pattern"),
        "carry.monomials_with_carry_leq.self_s": self_s("carry.monomials_with_carry_leq"),
        "carry.gen_yield": ratio("carry.generators", "carry.compositions"),
        "carry.enumerate_patterns.calls": calls("carry.enumerate_patterns"),
        "carry.max_pattern.calls": calls("carry.max_pattern"),
        "carry.context_repeat_ratio": ratio("carry.context_repeats", "carry.contexts"),
        "ideals.minimalize.self_s": self_s("ideals.minimalize"),
        "ideals.minimalize.kept_ratio": ratio("ideals.minimalize.out", "ideals.minimalize.in"),
        "ideals.degree_pieces.self_s": self_s("ideals.degree_pieces"),
        "ideals.degree_pieces.monomials": per_pass("ideals.degree_pieces.monomials"),
        "ideals.contains_monomial.calls": calls("ideals.contains_monomial"),
        "ideals.contains_monomial.self_s": self_s("ideals.contains_monomial"),
        "ideals.invariance_witness.self_s": self_s("ideals.invariance_witness"),
        "ideals.decompose.self_s": self_s("ideals.decompose"),
        "koszul.koszul_betti.self_s": self_s("koszul.koszul_betti"),
        "koszul.quotient_basis.self_s": self_s("koszul.quotient_basis"),
        "koszul.quotient_basis.monomials": per_pass("koszul.quotient_basis.monomials"),
        "modp.rank.calls": calls("modp.rank"),
        "modp.rank.self_s": self_s("modp.rank"),
        "modp.rank.cells": per_pass("modp.rank.cells"),
        "multmap.contains.self_s": self_s("multmap.contains"),
        "multmap.successor.calls": calls("multmap.successor"),
        "multmap.successor.self_s": self_s("multmap.successor"),
        "twovars.self_s": (layer_self("twovars"), "s"),
        "gl2.self_s": (layer_self("gl2"), "s"),
        "gl2.decompose_character.calls": calls("gl2.decompose_character"),
        "cli.main.self_s": self_s("cli.main"),
    }
    for layer in ("carry", "ideals", "koszul", "modp", "multmap"):
        metrics[f"{layer}.self_s"] = (layer_self(layer), "s")
    share = layer_self("carry") + layer_self("ideals")
    metrics.update({
        "trace.wall_s": (wall, "s"),
        "trace.overhead_ratio": (statistics.median(t.scaled_wall for t in traced) / plain_wall,
                                 "ratio"),
        "trace.share.carry_ideals": (share / wall, "ratio"),
        "trace.share.koszul_modp_membership": (
            (layer_self("koszul") + layer_self("modp") + membership) / wall, "ratio"),
        "trace.tail.multmap_self_share": (tail_self / tail_time, "ratio"),
        "trace.tail.multmap_share": (tail_walk / tail_time, "ratio"),
    })
    return metrics
