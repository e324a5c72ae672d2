"""Per-layer trace of one ``metallic-tm verify`` process, taken from outside.

``install()`` replaces every public function of the ``metallic_tm`` modules
(and the few methods named in ``METHODS``) by a wrapper that counts calls and
measures time.  A function's self time is its wrapped duration minus the
wrapped durations of the calls it made.  Functions are grouped under the
layer names of ``GROUPS``; a function in no group is wrapped under its own
name, so that its time is taken out of its caller's self time too.

The extra work done for a few counters (tree sizes of evaluated expressions,
zero results of ``mul``) is timed and taken out of every enclosing duration,
so it shows only in the overall slowdown of the traced process.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

MODULES = ("harness", "exprs", "scalars", "manifold", "bundle", "metallic",
           "paracontact", "verdicts")

# (module, class, method names, metric key)
METHODS = (
    ("harness", "SuiteContext", ("__init__",), "harness.SuiteContext"),
    ("scalars", "MetallicScalar", ("__mul__", "__rmul__"), "scalars.MetallicScalar.mul"),
    ("scalars", "MetallicScalar", ("__add__", "__radd__"), "scalars.MetallicScalar.add"),
    ("verdicts", "ResidualTracker", ("update",), "verdicts.ResidualTracker.update"),
)

# metric key -> public functions of one module that it sums
GROUPS = {
    "bundle.lift": ("bundle", ("vlift_function", "clift_function", "hlift_function",
                               "vlift_vector", "clift_vector", "hlift_vector",
                               "lift_oneform", "lift_tensor11")),
    "bundle.metric": ("bundle", ("clift_metric", "hlift_metric", "sasaki_metric")),
    "bundle.connection": ("bundle", ("clift_connection", "hlift_connection")),
    "metallic.build": ("metallic", ("build_J", "build_F")),
    "paracontact.checks": ("paracontact", ("check_almost_paracontact", "check_metric_compat",
                                           "check_p_sasakian", "check_D_flat")),
}

class Tracer:
    """Call counts, self times and inclusive times keyed by metric name."""

    def __init__(self) -> None:
        self.stats: dict = {}   # key -> [calls, inclusive_s, self_s]
        self._stack: list = []  # child time accumulated by each open call
        self.hook_s = 0.0       # time spent computing extra counters
        self.mul_nonzero = 0
        self.eval_nodes = 0
        self.eval_distinct = 0
        self._tree_sizes: dict = {}  # id(expr) -> (expr, size, distinct)

    def wrap(self, key: str, fn, hook=None):
        stats = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            hook0 = tracer.hook_s
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0 - (tracer.hook_s - hook0)
                child = stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - child
                if stack:
                    stack[-1] += dt
            if hook is not None:
                h0 = clock()
                hook(result, args)
                tracer.hook_s += clock() - h0
            return result

        return wrapper

    # -- extra counters ------------------------------------------------

    def _count_mul(self, result, args) -> None:
        if result is not self._zero:
            self.mul_nonzero += 1

    def _count_tree(self, result, args) -> None:
        e = args[0]
        entry = self._tree_sizes.get(id(e))
        if entry is None:
            size, distinct = tree_size(e)
            entry = self._tree_sizes[id(e)] = (e, size, distinct)
        self.eval_nodes += entry[1]
        self.eval_distinct += entry[2]

    # -- installation --------------------------------------------------

    def install(self) -> None:
        mods = {name: sys.modules.get(f"metallic_tm.{name}") for name in MODULES}
        missing = [name for name, mod in mods.items() if mod is None]
        if missing:
            raise RuntimeError(f"metallic_tm modules not imported: {missing}")
        self._zero = mods["exprs"].ZERO
        self._diff = mods["exprs"].diff
        grouped = {(mod, fn): key for key, (mod, fns) in GROUPS.items() for fn in fns}
        hooks = {("exprs", "mul"): self._count_mul, ("exprs", "evaluate"): self._count_tree}
        suites = mods["harness"]._SUITES
        suite_keys = {id(fn): f"harness.suite.{sid}" for sid, fn in suites.items()}

        wrappers = {}  # id(original function) -> its wrapper
        for name, mod in mods.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not _is_own_function(obj, mod):
                    continue
                key = suite_keys.get(id(obj)) or grouped.get((name, attr), f"{name}.{attr}")
                wrappers[id(obj)] = self.wrap(key, obj, hooks.get((name, attr)))

        # rebind every reference held by a metallic_tm module, including
        # names imported with ``from .x import f``, and the suite table
        namespaces = [vars(mod) for modname, mod in sys.modules.items()
                      if modname.startswith("metallic_tm") and mod is not None]
        for ns in namespaces + [suites]:
            for attr, obj in list(ns.items()):
                if id(obj) in wrappers:
                    ns[attr] = wrappers[id(obj)]

        for name, cls_name, methods, key in METHODS:
            cls = getattr(mods[name], cls_name)
            done = {}
            for m in methods:
                fn = cls.__dict__[m]
                if id(fn) not in done:
                    done[id(fn)] = self.wrap(key, fn)
                setattr(cls, m, done[id(fn)])

    # -- results -------------------------------------------------------

    def metrics(self) -> dict:
        """Every per-layer metric of the run, by name."""
        out = {}

        def stat(key):
            return self.stats.get(key, [0, 0.0, 0.0])

        for key in SELF_S:
            out[f"{key}.self_s"] = stat(key)[2]
        for key in CALLS:
            out[f"{key}.calls"] = stat(key)[0]
        for key in sorted(self.stats):
            if key.startswith("harness.suite."):
                out[f"{key}.wall_s"] = stat(key)[1]
        mul_calls = stat("exprs.mul")[0]
        out["exprs.mul.nonzero_ratio"] = self.mul_nonzero / mul_calls if mul_calls else 0.0
        info = self._diff.cache_info()
        out["exprs.diff.cache_misses"] = info.misses
        lookups = info.hits + info.misses
        out["exprs.diff.cache_hit_ratio"] = info.hits / lookups if lookups else 0.0
        out["exprs.evaluate.tree_nodes"] = self.eval_nodes
        out["exprs.evaluate.distinct_ratio"] = (
            self.eval_distinct / self.eval_nodes if self.eval_nodes else 0.0)
        return out


SELF_S = (
    "harness.parse_manifest", "harness.sample_points", "harness.SuiteContext",
    "harness.emit_report",
    "exprs.parse", "exprs.add", "exprs.mul", "exprs.diff", "exprs.evaluate",
    "scalars.MetallicScalar.mul", "scalars.MetallicScalar.add",
    "manifold.christoffel", "manifold.curvature", "manifold.covariant_derivative",
    "manifold.cov_vec", "manifold.nijenhuis", "manifold.coboundary_2form",
    "manifold.lie_bracket",
    "bundle.lift", "bundle.metric", "bundle.connection",
    "metallic.build", "metallic.metallic_residual", "metallic.check_metallic",
    "metallic.check_compat", "metallic.nijenhuis_rows",
    "metallic.check_F_integrability_conditions", "metallic.parallelity_probe",
    "metallic.fundamental_form", "metallic.dphi_on",
    "paracontact.checks", "paracontact.distribution_frame", "paracontact.n_tensors",
)

CALLS = (
    "exprs.parse", "exprs.add", "exprs.mul", "exprs.diff", "exprs.evaluate",
    "scalars.MetallicScalar.mul", "scalars.MetallicScalar.add",
    "manifold.cov_vec", "bundle.lift", "verdicts.ResidualTracker.update",
)


def _is_own_function(obj, mod) -> bool:
    """A function defined in ``mod`` itself, plain or behind ``lru_cache``."""
    if inspect.isfunction(obj):
        return obj.__module__ == mod.__name__
    inner = getattr(obj, "__wrapped__", None)
    return (inspect.isfunction(inner) and inner.__module__ == mod.__name__
            and hasattr(obj, "cache_info"))


def tree_size(e) -> tuple:
    """(number of nodes, number of distinct subtrees) of an expression tree."""
    size = 0
    seen = set()
    todo = [e]
    while todo:
        node = todo.pop()
        size += 1
        seen.add(node)
        todo.extend(children(node))
    return size, len(seen)


def children(node) -> tuple:
    for attr in ("terms", "factors"):
        kids = getattr(node, attr, None)
        if kids is not None:
            return tuple(kids)
    if hasattr(node, "num"):
        return (node.num, node.den)
    if hasattr(node, "base"):
        return (node.base,)
    if hasattr(node, "arg"):
        return (node.arg,)
    return ()
