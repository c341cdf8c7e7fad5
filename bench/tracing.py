"""Per-layer tracing of eigm from outside the package.

The tracer replaces public functions of each eigm module with wrappers
that record a span (name, start, end, parent) and a few counts taken from
the arguments and results.  A wrapper is installed in every namespace that
binds the original object, so ``eigm.sweep.compare``, ``eigm.cli.compare``
and ``eigm.stats.compare`` are all traced.  A target that no longer exists
is recorded as absent.

Spans keep a parent per thread.  A span opened on a thread with no open
span of its own (a sweep worker thread) takes as parent the innermost
span open on the thread that installed the tracer, so pool work is charged
to the sweep that submitted it.  A layer's self time is the time its spans
are open minus the part of that interval their child spans cover.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import itertools
import os
import sys
import threading
import time
from collections import defaultdict

# (module, attribute) pairs to wrap; "Class.method" wraps on the class.
TARGETS = {
    "graphs": (
        "parse_edge_list", "load_edge_list", "serialize_edge_list",
        "largest_connected_component", "connected_components",
        "Graph.from_edges", "Graph.from_pairs", "Graph.from_adjacency",
        "Graph.edge_array", "Graph.validate",
    ),
    "probmatrix": (
        "ProbMatrix.from_array", "to_dense", "overlap", "sample",
        "empirical_overlap", "expected_triangles", "expected_kcycles_trace",
        "expected_kcycles_exact", "convex_combine", "save_probmatrix",
        "load_probmatrix",
    ),
    "oddsproduct": ("fit_odds_product", "predicted_degrees", "degree_jacobian"),
    "modelzoo": (
        "build_model", "linear_model", "ccop", "hdop", "tsvd_model",
        "fit_volume_shift",
    ),
    "stats": (
        "compare", "triangle_counts", "global_clustering", "assortativity",
        "powerlaw_alpha", "fit_power_law", "char_path_length",
    ),
    "sweep": ("run_sweep", "evaluate_point", "reference_record", "parse_config"),
    "bounds": (
        "check_triangle_bound", "check_kcycle_bound", "check_cc_tightness",
        "er_construction",
    ),
    "cell": (
        "vandermonde_embedding", "verify_embedding", "unconstrained_optimum",
        "cell_symmetrize",
    ),
    "svgplot": ("render_sweep_svg",),
    "synth": ("random_probmatrix", "random_bounded_degree_graph"),
}

LAYERS = tuple(TARGETS) + ("cli",)

CLI_COMMANDS = ("ingest", "fit", "sample", "stats", "sweep", "verify", "cell-verify")


def _graph_key(g) -> object:
    try:
        h = hashlib.blake2b(digest_size=16)
        h.update(str(g.n).encode())
        h.update(g.indptr.tobytes())
        h.update(g.indices.tobytes())
        return h.digest()
    except AttributeError:
        return id(g)


def _array_key(a) -> bytes:
    import numpy as np

    return hashlib.blake2b(np.ascontiguousarray(a).tobytes(), digest_size=16).digest()


def _n_of(obj) -> int:
    n = getattr(obj, "n", None)
    return int(n) if n is not None else 0


def _hook_sample(c, args, kwargs, result):
    n = _n_of(args[0])
    c["probmatrix.sample_pairs"] += n * (n - 1) // 2
    c["probmatrix.sample_edges"] += result.m


def _hook_dense(c, args, kwargs, result):
    c["probmatrix.dense_bytes"] += 8 * _n_of(result) ** 2


def _hook_save(c, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    c["probmatrix.save_bytes"] += os.path.getsize(path)


def _hook_fit(c, args, kwargs, result):
    d = args[0] if args else kwargs["d"]
    c["oddsproduct.fit_nodes"] += len(d)
    c["oddsproduct.newton_iters"] += result[2].iterations
    c.seen["oddsproduct.fit_odds_product"].add(_array_key(d))


def _hook_build(c, args, kwargs, result):
    spec = args[1] if len(args) > 1 else kwargs["spec"]
    # volume preservation, checked on every built model (a workload invariant)
    ref = args[0]
    vol = float(result.mat.sum() / 2.0)
    if abs(vol - ref.m) > 1e-6 * ref.m:
        c.violations.append(f"{spec.kind}[{spec.knob:g}] volume {vol!r} != m={ref.m}")
    return spec.kind


def _hook_triangles(c, args, kwargs, result):
    c.seen["stats.triangle_counts"].add(_graph_key(args[0]))


def _hook_cpl(c, args, kwargs, result):
    c["stats.char_path_length_nodes"] += _n_of(args[0])


def _hook_run_sweep(c, args, kwargs, result):
    c["sweep.points"] += len(result)
    c["sweep.points_failed"] += sum(1 for r in result if r.status != "ok")


def _hook_check(c, args, kwargs, result):
    c["bounds.checks"] += 1
    c["bounds.checks_failed"] += 0 if result.holds else 1


HOOKS = {
    "probmatrix.sample": _hook_sample,
    "probmatrix.ProbMatrix.from_array": _hook_dense,
    "probmatrix.to_dense": _hook_dense,
    "probmatrix.save_probmatrix": _hook_save,
    "oddsproduct.fit_odds_product": _hook_fit,
    "modelzoo.build_model": _hook_build,
    "stats.triangle_counts": _hook_triangles,
    "stats.char_path_length": _hook_cpl,
    "sweep.run_sweep": _hook_run_sweep,
    "bounds.check_triangle_bound": _hook_check,
    "bounds.check_kcycle_bound": _hook_check,
    "bounds.check_cc_tightness": _hook_check,
}

# Per-layer metrics: name -> (unit, how it is computed).  "time" sums the
# inclusive span time of the listed targets; "calls" counts their spans;
# "count" reads a hook's counter; "ratio" is distinct inputs over calls;
# "self" is a layer's self time.
METRICS: dict[str, tuple[str, tuple]] = {
    "stats.compare_s": ("s", ("time", "stats.compare")),
    "stats.compare_calls": ("count", ("calls", "stats.compare")),
    "stats.char_path_length_s": ("s", ("time", "stats.char_path_length")),
    "stats.char_path_length_nodes": ("count", ("count",)),
    "stats.triangle_counts_s": ("s", ("time", "stats.triangle_counts")),
    "stats.triangle_counts_calls": ("count", ("calls", "stats.triangle_counts")),
    "stats.triangle_counts_unique_ratio": ("ratio", ("ratio", "stats.triangle_counts")),
    "stats.powerlaw_alpha_s": ("s", ("time", "stats.powerlaw_alpha")),
    "stats.assortativity_s": ("s", ("time", "stats.assortativity")),
    "stats.global_clustering_s": ("s", ("time", "stats.global_clustering")),
    "oddsproduct.fit_s": ("s", ("time", "oddsproduct.fit_odds_product")),
    "oddsproduct.fit_calls": ("count", ("calls", "oddsproduct.fit_odds_product")),
    "oddsproduct.newton_iters": ("count", ("count",)),
    "oddsproduct.fit_nodes": ("count", ("count",)),
    "oddsproduct.fit_unique_ratio": ("ratio", ("ratio", "oddsproduct.fit_odds_product")),
    "modelzoo.build_s.linear": ("s", ("build", "linear")),
    "modelzoo.build_s.ccop": ("s", ("build", "ccop")),
    "modelzoo.build_s.hdop": ("s", ("build", "hdop")),
    "modelzoo.build_s.tsvd": ("s", ("build", "tsvd")),
    "modelzoo.build_calls": ("count", ("calls", "modelzoo.build_model")),
    "modelzoo.volume_shift_s": ("s", ("time", "modelzoo.fit_volume_shift")),
    "probmatrix.sample_s": ("s", ("time", "probmatrix.sample")),
    "probmatrix.sample_pairs": ("count", ("count",)),
    "probmatrix.sample_edges": ("count", ("count",)),
    "probmatrix.overlap_s": ("s", ("time", "probmatrix.overlap")),
    "probmatrix.from_array_s": ("s", ("time", "probmatrix.ProbMatrix.from_array")),
    "probmatrix.to_dense_calls": ("count", ("calls", "probmatrix.to_dense")),
    "probmatrix.dense_bytes": ("B-computed", ("count",)),
    "probmatrix.save_s": ("s", ("time", "probmatrix.save_probmatrix")),
    "probmatrix.save_bytes": ("B", ("count",)),
    "probmatrix.load_s": ("s", ("time", "probmatrix.load_probmatrix")),
    "probmatrix.expected_s": ("s", (
        "time", "probmatrix.expected_triangles", "probmatrix.expected_kcycles_trace",
        "probmatrix.expected_kcycles_exact",
    )),
    "graphs.parse_s": ("s", ("time", "graphs.parse_edge_list")),
    "graphs.lcc_s": ("s", ("time", "graphs.largest_connected_component")),
    "graphs.lcc_calls": ("count", ("calls", "graphs.largest_connected_component")),
    "graphs.components_calls": ("count", ("calls", "graphs.connected_components")),
    "graphs.serialize_s": ("s", ("time", "graphs.serialize_edge_list")),
    "graphs.edge_array_s": ("s", ("time", "graphs.Graph.edge_array")),
    "sweep.run_s": ("s", ("time", "sweep.run_sweep")),
    "sweep.points": ("count", ("count",)),
    "sweep.points_failed": ("count", ("count",)),
    "bounds.check_triangle_s": ("s", ("time", "bounds.check_triangle_bound")),
    "bounds.check_kcycle_s": ("s", ("time", "bounds.check_kcycle_bound")),
    "bounds.check_cc_s": ("s", ("time", "bounds.check_cc_tightness")),
    "bounds.checks": ("count", ("count",)),
    "bounds.checks_failed": ("count", ("count",)),
    "cell.embedding_s": ("s", ("time", "cell.vandermonde_embedding")),
    "cell.verify_s": ("s", ("time", "cell.verify_embedding")),
    "svgplot.render_s": ("s", ("time", "svgplot.render_sweep_svg")),
}
METRICS.update({f"cli.{c}_s": ("s", ("time", f"cli.{c}")) for c in CLI_COMMANDS})
METRICS.update({f"{layer}.self_s": ("s", ("self", layer)) for layer in LAYERS})
# trace-level figures, filled in by the worker and the controller
METRICS.update({
    "trace.overhead_frac": ("frac", ("run",)),
    "trace.self_sum_frac": ("frac", ("run",)),
    "trace.wall_s": ("s", ("run",)),
    "trace.spans": ("count", ("run",)),
    "trace.absent": ("count", ("run",)),
})


class Counters(defaultdict):
    """Hook counters by metric name, plus the distinct inputs seen per
    target and the volume violations found."""

    def __init__(self):
        super().__init__(float)
        self.seen: dict[str, set] = defaultdict(set)
        self.violations: list[str] = []


class Tracer:
    def __init__(self):
        self.lock = threading.Lock()
        self.local = threading.local()
        self.ids = itertools.count(1)
        self.spans: list[tuple] = []  # (sid, parent, name, t0, t1, extra)
        self.counters = Counters()
        self.absent: list[str] = []
        self.hook_errors: list[str] = []
        self.main_stack = self._stack()
        self.replaced: list[tuple] = []  # (namespace, attribute, original)

    def _stack(self) -> list:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def _open(self):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self.main_stack[-1] if self.main_stack else None
        sid = next(self.ids)
        stack.append(sid)
        return stack, sid, parent

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the caller opens itself (the CLI layer)."""
        stack, sid, parent = self._open()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            stack.pop()
            with self.lock:
                self.spans.append((sid, parent, name, t0, t1, None))

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            stack, sid, parent = tracer._open()
            t0 = time.perf_counter()
            result = done = None
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                with tracer.lock:
                    extra = None
                    if hook is not None and done:
                        try:
                            extra = hook(tracer.counters, args, kwargs, result)
                        except Exception as exc:  # a renamed field must not stop the run
                            tracer.hook_errors.append(f"{name}: {type(exc).__name__}: {exc}")
                    tracer.spans.append((sid, parent, name, t0, t1, extra))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def install(self) -> None:
        """Wrap every target, in every eigm namespace that binds it."""
        modules = {
            layer: importlib.import_module(f"eigm.{layer}") for layer in TARGETS
        }
        importlib.import_module("eigm.cli")
        for layer, attrs in TARGETS.items():
            for attr in attrs:
                name = f"{layer}.{attr}"
                if "." in attr:
                    self._install_method(modules[layer], name, *attr.split("."))
                    continue
                orig = getattr(modules[layer], attr, None)
                if orig is None:
                    self.absent.append(name)
                    continue
                wrapped = self._wrap(name, orig)
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not (mod_name == "eigm" or mod_name.startswith("eigm.")):
                        continue
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            self._replace(mod, key, wrapped)

    def uninstall(self) -> None:
        """Restore every original binding."""
        for ns, key, orig in reversed(self.replaced):
            setattr(ns, key, orig)
        self.replaced.clear()

    def _replace(self, ns, key, new) -> None:
        self.replaced.append((ns, key, vars(ns)[key]))
        setattr(ns, key, new)

    def _install_method(self, module, name, cls_name, meth) -> None:
        cls = getattr(module, cls_name, None)
        raw = vars(cls).get(meth) if cls is not None else None
        if raw is None:
            self.absent.append(name)
            return
        if isinstance(raw, (classmethod, staticmethod)):
            self._replace(cls, meth, type(raw)(self._wrap(name, raw.__func__)))
        else:
            self._replace(cls, meth, self._wrap(name, raw))

    # ------------------------------------------------------------ results

    def self_times(self) -> dict[int, float]:
        """Span id -> self time.

        A span's self segments are its interval minus the union of its
        children's intervals.  Where self segments of spans on k threads
        overlap, each is charged 1/k of that time, so self times over all
        spans sum to the time covered by any span (the traced wall time).
        """
        children: dict[int, list] = defaultdict(list)
        for sid, parent, _, t0, t1, _ in self.spans:
            if parent is not None:
                children[parent].append((t0, t1))
        events = []
        for sid, _, _, t0, t1, _ in self.spans:
            cursor = t0
            for c0, c1 in sorted(children.get(sid, ())) + [(t1, t1)]:
                c0, c1 = max(c0, cursor), min(c1, t1)
                if c0 > cursor:
                    events.append((cursor, 1, sid))
                    events.append((c0, -1, sid))
                cursor = max(cursor, c1)
        events.sort()
        out = defaultdict(float)
        active: set[int] = set()
        last = None
        for t, kind, sid in events:
            if active and last is not None and t > last:
                share = (t - last) / len(active)
                for a in active:
                    out[a] += share
            last = t
            if kind > 0:
                active.add(sid)
            else:
                active.discard(sid)
        return out

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Every per-layer metric of METRICS except the controller's."""
        inclusive: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        build: dict[str, float] = defaultdict(float)
        layer_self: dict[str, float] = defaultdict(float)
        selfs = self.self_times()
        for sid, _, name, t0, t1, extra in self.spans:
            inclusive[name] += t1 - t0
            calls[name] += 1
            layer_self[name.split(".")[0]] += selfs[sid]
            if name == "modelzoo.build_model" and extra:
                build[extra] += t1 - t0
        c = self.counters
        out = {}
        for metric, (_, how) in METRICS.items():
            kind = how[0]
            if kind == "time":
                out[metric] = sum(inclusive[t] for t in how[1:])
            elif kind == "calls":
                out[metric] = float(calls[how[1]])
            elif kind == "count":
                out[metric] = float(c[metric])
            elif kind == "ratio":
                n_calls = calls[how[1]]
                out[metric] = len(c.seen[how[1]]) / n_calls if n_calls else 0.0
            elif kind == "build":
                out[metric] = build[how[1]]
            elif kind == "self":
                out[metric] = layer_self[how[1]]
        out["trace.wall_s"] = wall_s
        out["trace.self_sum_frac"] = sum(layer_self.values()) / wall_s if wall_s > 0 else 0.0
        out["trace.spans"] = float(len(self.spans))
        out["trace.absent"] = float(len(self.absent))
        return out
