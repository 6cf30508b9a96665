"""Outside-in layer tracing: spans around the public calls into each layer.

The tracer wraps the public functions the pipeline calls (table ``SPANS``)
in every ``conetorsion`` module that binds them, for the traced run only.
A span's self time is its duration minus the time its child spans cover;
the tracer's own bookkeeping after a call (the repeat-detection digests)
is charged to no layer.  Work counts are taken at the same boundaries.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
import time
from contextlib import contextmanager

PACKAGE = "conetorsion"


def digest(*arrays) -> bytes:
    """Content key of numpy arrays (shape, dtype and bytes)."""
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(f"{a.shape}{a.dtype}".encode())
        h.update(a.tobytes())
    return h.digest()


# counters: (tracer, bound arguments, result) -> None

def count_triangles(tr, args, result) -> None:
    tr.counts["mesher.triangles"] += result.n_triangles


def count_dofs(tr, args, result) -> None:
    tr.counts["fem.dofs"] += args["system"].matrix.shape[0]


def count_levels(tr, args, result) -> None:
    tr.counts["poincare.levels"] += len(result.history)


def count_distance(tr, args, result) -> None:
    pts, seg_a, seg_b = args["points"], args["seg_a"], args["seg_b"]
    pairs = len(result) * len(seg_a)
    tr.counts["geometry.distance_calls"] += 1
    tr.counts["geometry.distance_pairs"] += pairs
    if tr.seen("distance", digest(pts, seg_a, seg_b)):
        tr.counts["geometry.distance_repeat_pairs"] += pairs


def count_edge_trace(tr, args, result) -> None:
    mesh = args["mesh"]
    key = (digest(mesh.vertices, mesh.triangles), args["tag"], args["n_gauss"])
    tr.counts["quantities.edge_trace_calls"] += 1
    if tr.seen("edge_trace", key):
        tr.counts["quantities.edge_trace_repeats"] += 1


# (module, public function) -> (self-time metric, counter or None)
SPANS = {
    ("mesher", "triangulate"): ("mesher.triangulate_s", count_triangles),
    ("mesher", "refine"): ("mesher.refine_s", count_triangles),
    ("fem", "assemble"): ("fem.assemble_s", None),
    ("fem", "solve"): ("fem.solve_s", count_dofs),
    ("geometry", "polyline_distance"): ("geometry.distance_s", count_distance),
    ("geometry", "interior_sphere_radius"): ("geometry.sphere_radii_s", None),
    ("geometry", "exterior_sphere_radius"): ("geometry.sphere_radii_s", None),
    ("quantities", "edge_trace"): ("quantities.edge_trace_s", count_edge_trace),
    ("quantities", "deficits"): ("quantities.deficits_s", None),
    ("quantities", "identity_residual"): ("quantities.identity_s", None),
    ("quantities", "compute_center"): ("quantities.center_s", None),
    ("quantities", "alternative_center"): ("quantities.center_s", None),
    ("quantities", "max_gradient"): ("quantities.extrema_s", None),
    ("quantities", "max_depth"): ("quantities.extrema_s", None),
    ("quantities", "u_distance_bounds"): ("quantities.distance_bounds_s", None),
    ("poincare", "mu_estimate"): ("poincare.mu_s", count_levels),
    ("poincare", "eta_estimate"): ("poincare.eta_s", count_levels),
    ("poincare", "weighted_hessian_l2"): ("poincare.hessian_l2_s", None),
    ("stability", "estimate_lambda"): ("stability.lambda_s", None),
    ("stability", "verify_theorems"): ("stability.verdicts_s", None),
}

TIME_METRICS = tuple(dict.fromkeys(metric for metric, _ in SPANS.values()))
COUNT_METRICS = ("mesher.triangles", "fem.dofs", "geometry.distance_calls",
                 "geometry.distance_pairs", "quantities.edge_trace_calls",
                 "poincare.levels")
RATIO_METRICS = ("geometry.distance_repeat_ratio",
                 "quantities.edge_trace_repeat_ratio")
PER_LAYER = (TIME_METRICS + COUNT_METRICS + RATIO_METRICS
             + ("trace.unattributed_s", "trace.overhead_s"))


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "ratio" if metric.endswith("_ratio") else "count"


class Tracer:
    """Per-iteration self times and counts; ``reset`` starts an iteration."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.reset()

    def reset(self) -> None:
        self.self_s = dict.fromkeys(TIME_METRICS, 0.0)
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self.counts["geometry.distance_repeat_pairs"] = 0
        self.counts["quantities.edge_trace_repeats"] = 0
        self.top_s = 0.0          # time covered by top-level spans
        self._stack = []          # per open span: seconds covered by children
        self._seen = {}

    def seen(self, kind: str, key) -> bool:
        """True when ``key`` was already recorded for ``kind`` this iteration."""
        keys = self._seen.setdefault(kind, set())
        if key in keys:
            return True
        keys.add(key)
        return False

    def wrap(self, metric: str, fn, counter=None):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            t0 = self.clock()
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                t1 = self.clock()
                self._stack.pop()
                self.self_s[metric] += (t1 - t0) - frame[0]
                if done and counter is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    counter(self, bound.arguments, result)
                t2 = self.clock()
                if self._stack:
                    self._stack[-1][0] += t2 - t0
                else:
                    self.top_s += t2 - t0

        return traced

    def metrics(self, wall_s: float) -> dict:
        """Per-layer metrics of the iteration that took ``wall_s``."""
        out = dict(self.self_s)
        out.update(self.counts)
        pairs = out.pop("geometry.distance_repeat_pairs")
        repeats = out.pop("quantities.edge_trace_repeats")
        out["geometry.distance_repeat_ratio"] = (
            pairs / out["geometry.distance_pairs"]
            if out["geometry.distance_pairs"] else 0.0)
        out["quantities.edge_trace_repeat_ratio"] = (
            repeats / out["quantities.edge_trace_calls"]
            if out["quantities.edge_trace_calls"] else 0.0)
        out["trace.unattributed_s"] = wall_s - self.top_s
        return out


@contextmanager
def installed(tracer: Tracer):
    """Wrap every ``SPANS`` function wherever a ``PACKAGE`` module binds it."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == PACKAGE
                                     or name.startswith(PACKAGE + "."))]
    patched = []
    for (mod, name), (metric, counter) in SPANS.items():
        orig = getattr(sys.modules[f"{PACKAGE}.{mod}"], name)
        wrapper = tracer.wrap(metric, orig, counter)
        for m in modules:
            if m.__dict__.get(name) is orig:
                setattr(m, name, wrapper)
                patched.append((m, name, orig))
    try:
        yield tracer
    finally:
        for m, name, orig in patched:
            setattr(m, name, orig)
