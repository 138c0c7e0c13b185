"""Outside-in span tracing of the warpfill layers.

Spans come from wrapping entry points at the names their callers look up
(a module global such as `warpfill.cli.load_space`, a method, or the
`FillingGraph.edges` property); the program itself is never edited. Spans
are kept in memory as (name, start, end, parent, job) and turned into
per-layer busy time, self time (busy time minus the time covered by child
spans), call counts and work counters.
"""

from __future__ import annotations

import functools
import weakref
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from warpfill import cli, hyperbolicity, poincare, profiles, spaces, warped

# (owner, attribute, span name). One span name may be looked up at several
# sites: counterexample_suite finds build_filling_graph in poincare, while
# the poincare subcommand finds it in cli.
SITES = [
    (cli, "main", "cli.main"),
    (cli, "load_space", "spaces.load_space"),
    (spaces, "validate_matrix", "spaces.validate_matrix"),
    (cli, "approx_length_check", "spaces.approx_length_check"),
    (spaces.CarrierSpace, "adjacency", "spaces.adjacency"),
    (hyperbolicity, "estimate_delta", "hyperbolicity.estimate_delta"),
    (hyperbolicity, "gromov_product_batch", "warped.gromov_product_batch"),
    (warped, "minimize_F_batch", "profiles.minimize_F_batch"),
    (profiles, "minimize_F_batch", "profiles.minimize_F_batch"),
    (hyperbolicity, "sup_G_batch", "profiles.sup_G_batch"),
    (cli, "boundary_metric", "hyperbolicity.boundary_metric"),
    (cli, "snowflake_check", "hyperbolicity.snowflake_check"),
    (cli, "build_filling_graph", "poincare.build_filling_graph"),
    (poincare, "build_filling_graph", "poincare.build_filling_graph"),
    (poincare.FillingGraph, "edges", "poincare.FillingGraph.edges"),
    (poincare, "discrete_upper_gradient", "poincare.discrete_upper_gradient"),
    (poincare, "optimal_subtracted_constant", "poincare.optimal_subtracted_constant"),
    (cli, "builtin_filling_family", "poincare.builtin_filling_family"),
    (cli, "filling_verifier", "poincare.filling_verifier"),
    (cli, "halfline_verifier", "poincare.halfline_verifier"),
    (cli, "counterexample_suite", "poincare.counterexample_suite"),
]

KERNEL_KINDS = ("exp", "sinh_closed", "sinh_bisect", "sinh_shallow", "custom")


def kernel_kind(profile) -> str:
    """Branch of minimize_F_batch a profile takes: closed form, 90-step
    bisection, or the scalar per-element fallback."""
    if profile.kind in ("exp", "custom"):
        return profile.kind
    if profile.alpha < 1.0:
        return "sinh_shallow"
    return "sinh_closed" if profile.alpha in (1.0, 2.0) else "sinh_bisect"


class Tracer:
    """Records spans and counters of the jobs run through `run_job`."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index, job id]
        self.counters = Counter()
        self._stack = []
        self._job = None
        self._boundaries = []
        self._seen_carriers = weakref.WeakSet()
        self._seen_graphs = weakref.WeakSet()
        self._saved = []

    # -- spans -------------------------------------------------------------
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, self._job])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, after=None, name_of=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name_of(args) if name_of else name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(args, out)
            return out
        return wrapper

    # -- counters, updated after the span closes -----------------------------
    def _kernel_name(self, args):
        kind = kernel_kind(args[0])
        self.counters[f"evals.{kind}"] += int(np.size(args[1]))
        return f"profiles.minimize_F_batch.{kind}"

    def _after_adjacency(self, args, out):
        carrier = args[0]
        if carrier not in self._seen_carriers:
            self._seen_carriers.add(carrier)
            self.counters["adjacency.computes"] += 1
            self.counters["adjacency.edges"] += int(out[0].size)

    def _after_graph(self, args, graph):
        self.counters["poincare.nodes"] += int(graph.n_nodes)

    def _after_edges(self, args, edges):
        graph = args[0]
        if graph not in self._seen_graphs:
            self._seen_graphs.add(graph)
            self.counters["poincare.edges"] += int(edges[0].size)

    def _after_boundary(self, args, bm):
        self._boundaries.append(bm)

    # -- install / remove --------------------------------------------------
    def _install(self) -> None:
        after = {
            "spaces.adjacency": self._after_adjacency,
            "poincare.build_filling_graph": self._after_graph,
            "poincare.FillingGraph.edges": self._after_edges,
            "hyperbolicity.boundary_metric": self._after_boundary,
        }
        for owner, attr, name in SITES:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            hook = after.get(name)
            if isinstance(original, property):
                wrapped = property(self._wrap(original.fget, name, hook))
            elif name == "profiles.minimize_F_batch":
                wrapped = self._wrap(original, name, hook, name_of=self._kernel_name)
            else:
                wrapped = self._wrap(original, name, hook)
            setattr(owner, attr, wrapped)

    def _uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- one traced job ----------------------------------------------------
    def run_job(self, job_id: int, fn):
        """Run fn under a root span `bench.job`, with the wrappers installed
        for this call only; return (output, seconds, per-job layer totals)."""
        first = len(self.spans)
        self.counters = Counter()
        self._boundaries = []
        self._job = job_id
        self._install()
        try:
            idx = self._open("bench.job")
            try:
                out = fn()
            finally:
                self._close(idx)
        finally:
            self._uninstall()
            self._job = None
        seconds = self.spans[idx][2] - self.spans[idx][1]
        totals = self._job_totals(first)
        for bm in self._boundaries:
            totals["closure.lowered"] += int(np.count_nonzero(bm.chained < bm.premetric))
            totals["closure.entries"] += int(bm.chained.size)
        self._boundaries = []
        return out, seconds, totals

    def _job_totals(self, first: int) -> Counter:
        """Busy time, self time and calls per span name for spans[first:],
        plus the job's counters."""
        totals = Counter(self.counters)
        child_time = defaultdict(float)
        spans = self.spans[first:]
        for name, start, end, parent, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
        for k, (name, start, end, _, _) in enumerate(spans):
            busy = end - start
            totals[f"{name}.busy_s"] += busy
            totals[f"{name}.self_s"] += busy - child_time[first + k]
            totals[f"{name}.calls"] += 1
        totals["trace.spans"] += len(spans)
        return totals

    def dump(self) -> list:
        return [{"name": n, "start": s, "end": e, "parent": p, "job": j}
                for n, s, e, p, j in self.spans]
