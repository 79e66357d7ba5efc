"""Layer spans for the traced benchmark run, recorded from outside the package.

Each layer's public functions are wrapped at the module attribute their
caller resolves (``ripl_lab.cli.certify_recovery``, not
``ripl_lab.ripl.certify_recovery``), so the package itself is untouched.
Wrappers exist only between :meth:`Tracer.install` and
:meth:`Tracer.uninstall`; untraced ops run the original functions.

A span is (name, start, end, parent, op, busy, count).  ``busy`` is the
time the layer was working: the call's duration for a function, and the
summed time inside ``next()`` for a generator, whose span stays open while
its consumer interleaves other work.  ``count`` is a work count taken at
the boundary (matrices per eigen batch, supports yielded, allocation
fixed-point iterations).  Spans stay in memory until the run ends.
"""
from __future__ import annotations

import importlib
import statistics
import time
from dataclasses import dataclass

ROOT = "cli.op"

# (module, attribute path, span name, count taken from (args, result) or None)
TARGETS = (
    ("ripl_lab.cli", "fourier_haar_matrix", "operators.construct", None),
    ("ripl_lab.operators", "dft_matrix", "operators.dft", None),
    ("ripl_lab.operators", "haar_matrix", "operators.haar", None),
    ("ripl_lab.cli", "CoherenceProfile.from_matrix", "coherence.profile", None),
    ("ripl_lab.cli", "draw_scheme", "sampling.draw", None),
    ("ripl_lab.recovery", "draw_scheme", "sampling.draw", None),
    ("ripl_lab.cli", "build_measurement", "sampling.build", None),
    ("ripl_lab.recovery", "build_measurement", "sampling.build", None),
    ("ripl_lab.cli", "allocate_haar", "sampling.allocate",
     lambda args, result: result.iterations),
    ("ripl_lab.ripl", "enumerate_supports", "levels.enumerate", "generator"),
    ("ripl_lab.recovery", "random_sparse_vector", "levels.random_vector", None),
    ("ripl_lab.cli", "certify_recovery", "ripl.certify", None),
    ("ripl_lab.ripl", "ricl_exact", "ripl.exact", None),
    ("ripl_lab.ripl", "extremal_eigenvalues", "jacobi.eig",
     lambda args, result: args[0].shape[0] if args[0].ndim == 3 else 1),
    ("ripl_lab.cli", "exact_recovery_experiment", "recovery.experiment", None),
    ("ripl_lab.recovery", "solve_qcbp", "recovery.solve", None),
    ("ripl_lab.recovery", "recovery_metrics", "recovery.metrics", None),
)

# metric name -> (unit, span names it needs)
PER_LAYER = {
    "operators.construct_s": ("s", ("operators.construct",)),
    "operators.dft_s": ("s", ("operators.dft",)),
    "operators.haar_s": ("s", ("operators.haar",)),
    "coherence.profile_s": ("s", ("coherence.profile",)),
    "sampling.draw_s": ("s", ("sampling.draw",)),
    "sampling.build_s": ("s", ("sampling.build",)),
    "sampling.allocate_s": ("s", ("sampling.allocate",)),
    "sampling.allocate_iterations": ("count", ("sampling.allocate",)),
    "levels.enumerate_s": ("s", ("levels.enumerate",)),
    "levels.supports": ("count", ("levels.enumerate",)),
    "levels.random_vector_s": ("s", ("levels.random_vector",)),
    "ripl.certify_s": ("s", ("ripl.certify",)),
    "ripl.exact_self_s": ("s", ("ripl.exact",)),
    "ripl.supports_per_s": ("1/s", ("ripl.certify",)),
    "jacobi.eig_s": ("s", ("jacobi.eig",)),
    "jacobi.matrices": ("count", ("jacobi.eig",)),
    "recovery.experiment_s": ("s", ("recovery.experiment",)),
    "recovery.solve_s": ("s", ("recovery.solve",)),
    "recovery.solve_p50_s": ("s", ("recovery.solve",)),
    "recovery.solve_p90_s": ("s", ("recovery.solve",)),
    "recovery.metrics_s": ("s", ("recovery.metrics",)),
    "recovery.iterations": ("count", ()),
    "recovery.iterations_p50": ("count", ()),
    "recovery.iterations_max": ("count", ()),
    "recovery.capped_frac": ("frac", ()),
    "recovery.converged_frac": ("frac", ()),
    "recovery.us_per_iteration": ("us", ("recovery.solve",)),
    "cli.self_s": ("s", ()),
    "cli.bytes_written": ("bytes", ()),
    "trace.overhead_frac": ("frac", ()),
}

# summed span time per op
_TIME_SUMS = {
    "operators.construct_s": "operators.construct",
    "operators.dft_s": "operators.dft",
    "operators.haar_s": "operators.haar",
    "coherence.profile_s": "coherence.profile",
    "sampling.draw_s": "sampling.draw",
    "sampling.build_s": "sampling.build",
    "sampling.allocate_s": "sampling.allocate",
    "levels.enumerate_s": "levels.enumerate",
    "levels.random_vector_s": "levels.random_vector",
    "ripl.certify_s": "ripl.certify",
    "jacobi.eig_s": "jacobi.eig",
    "recovery.experiment_s": "recovery.experiment",
    "recovery.solve_s": "recovery.solve",
    "recovery.metrics_s": "recovery.metrics",
}

# summed boundary count per op
_COUNT_SUMS = {
    "sampling.allocate_iterations": "sampling.allocate",
    "levels.supports": "levels.enumerate",
    "jacobi.matrices": "jacobi.eig",
}


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    busy: float = 0.0
    count: int = 0

    def to_list(self):
        return [self.name, self.start, self.end, self.parent, self.op, self.busy, self.count]


def _resolve(module_name, path):
    """(owner, attribute, current value, raw class-dict entry or None)."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    current = getattr(owner, attr)
    raw = owner.__dict__.get(attr) if isinstance(owner, type) else None
    return owner, attr, current, raw


class Tracer:
    """Wraps every target while installed and keeps the spans of each op."""

    def __init__(self):
        self.spans = []
        self.missing = {}  # span name -> reason its wrapped name is absent
        self._stack = []
        self._op = None
        self._patches = []

    def install(self):
        for module_name, path, name, counter in TARGETS:
            try:
                owner, attr, current, raw = _resolve(module_name, path)
            except (ImportError, AttributeError):
                self.missing[name] = f"{module_name}.{path} no longer exists"
                continue
            if counter == "generator":
                replacement = self._wrap_generator(name, current)
            elif isinstance(raw, classmethod):
                replacement = classmethod(self._wrap(name, raw.__func__, counter))
            else:
                replacement = self._wrap(name, current, counter)
            self._patches.append((owner, attr, raw if raw is not None else current))
            setattr(owner, attr, replacement)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._op))
        return len(self.spans) - 1

    def _close(self, index, count=0):
        span = self.spans[index]
        span.end = time.perf_counter()
        span.busy = span.end - span.start
        span.count = count

    def run_op(self, op_id, fn, *args):
        """Call ``fn(*args)`` as op ``op_id`` under a root span; returns its result."""
        self._op = op_id
        index = self._open(ROOT)
        self._stack.append(index)
        try:
            return fn(*args)
        finally:
            self._stack.pop()
            self._close(index)

    def _wrap(self, name, fn, counter):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._open(name)
            tracer._stack.append(index)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._stack.pop()
                tracer._close(index, counter(args, result) if counter and result is not None else 0)

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._open(name)
            start = time.perf_counter()
            inner = iter(fn(*args, **kwargs))
            busy = time.perf_counter() - start

            def timed():
                nonlocal busy
                yielded = 0
                try:
                    while True:
                        t0 = time.perf_counter()
                        try:
                            item = next(inner)
                        except StopIteration:
                            busy += time.perf_counter() - t0
                            return
                        busy += time.perf_counter() - t0
                        yielded += 1
                        yield item
                finally:
                    span = tracer.spans[index]
                    span.end = time.perf_counter()
                    span.busy = busy
                    span.count = yielded

            return timed()

        traced.__wrapped__ = fn
        return traced


def _op_values(spans):
    """Per-op layer values from the spans of one traced op."""
    root_index = next(i for i, s in spans.items() if s.name == ROOT)
    child_busy = {}
    for span in spans.values():
        if span.parent is not None:
            child_busy[span.parent] = child_busy.get(span.parent, 0.0) + span.busy
    values = {}
    for metric, name in _TIME_SUMS.items():
        values[metric] = sum(s.busy for s in spans.values() if s.name == name)
    for metric, name in _COUNT_SUMS.items():
        values[metric] = sum(s.count for s in spans.values() if s.name == name)
    values["ripl.exact_self_s"] = sum(
        s.busy - child_busy.get(i, 0.0) for i, s in spans.items() if s.name == "ripl.exact"
    )
    values["cli.self_s"] = spans[root_index].busy - child_busy.get(root_index, 0.0)
    return values


def layer_metrics(tracer, op_infos, untraced_s, traced_s):
    """Per-layer metrics of a traced run.

    Times are medians over traced ops of the per-op sums.  Counts are those
    of the first traced op, op 0, which every run of a workload seed
    executes, so they repeat exactly.  ``op_infos`` holds, per traced op id,
    what the output check read from the op's files; ops that failed their
    check are not in it and are left out.  Returns {metric: (value, unit,
    absent reason or None)}.
    """
    by_op = {}
    for i, span in enumerate(tracer.spans):
        if span.op in op_infos:
            by_op.setdefault(span.op, {})[i] = span
    ops = sorted(by_op)
    per_op = {op: _op_values(by_op[op]) for op in ops}
    first = ops[0]

    def med(metric):
        return statistics.median(per_op[op][metric] for op in ops)

    values = {m: med(m) for m in _TIME_SUMS}
    values.update({m: per_op[first][m] for m in _COUNT_SUMS})
    values["ripl.exact_self_s"] = med("ripl.exact_self_s")
    values["cli.self_s"] = med("cli.self_s")
    values["cli.bytes_written"] = op_infos[first]["bytes_written"]
    values["trace.overhead_frac"] = statistics.median(traced_s) / statistics.median(untraced_s) - 1.0

    absent = {}
    certify = [op for op in ops if per_op[op]["ripl.certify_s"] > 0]
    if certify:
        values["ripl.supports_per_s"] = statistics.median(
            op_infos[op]["supports_examined"] / per_op[op]["ripl.certify_s"] for op in certify
        )
    else:
        absent["ripl.supports_per_s"] = "no certify call in this workload"

    solves = [s.busy for s in tracer.spans if s.name == "recovery.solve" and s.op in op_infos]
    if solves:
        values["recovery.solve_p50_s"] = statistics.median(solves)
        values["recovery.solve_p90_s"] = (
            statistics.quantiles(solves, n=10, method="inclusive")[8] if len(solves) > 1
            else solves[0]
        )
    else:
        for m in ("recovery.solve_p50_s", "recovery.solve_p90_s"):
            absent[m] = "no solve call in this workload"

    trials = op_infos[first].get("trials")
    if trials:
        iters = [t["iterations"] for t in trials]
        values["recovery.iterations"] = sum(iters)
        values["recovery.iterations_p50"] = statistics.median(iters)
        values["recovery.iterations_max"] = max(iters)
        values["recovery.capped_frac"] = sum(t["capped"] for t in trials) / len(trials)
        values["recovery.converged_frac"] = sum(t["converged"] for t in trials) / len(trials)
        values["recovery.us_per_iteration"] = statistics.median(
            1e6 * per_op[op]["recovery.solve_s"] / sum(t["iterations"] for t in op_infos[op]["trials"])
            for op in ops
        )
    else:
        for m in ("recovery.iterations", "recovery.iterations_p50", "recovery.iterations_max",
                  "recovery.capped_frac", "recovery.converged_frac",
                  "recovery.us_per_iteration"):
            absent[m] = "no recovery trials in this workload"

    for metric, (_, needs) in PER_LAYER.items():
        for name in needs:
            if name in tracer.missing:
                absent[metric] = tracer.missing[name]
    return {
        metric: (values.get(metric, 0), unit, absent.get(metric))
        for metric, (unit, _) in PER_LAYER.items()
    }
