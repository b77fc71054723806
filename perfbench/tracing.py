"""Span tracing of spinread's public functions, installed from outside.

The tracer replaces each public function at the name its caller looks it
up (``spinread.cli.em_fit``, ``spinread.readout.start_posterior_batch``,
``spinread.analytic.quad`` ...) with a wrapper that records a span and
work counts, and puts every original back when the ``installed`` block
ends. Nothing inside ``src/`` is changed. Spans stay in memory until
the benchmark writes them out.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.run_id = ""
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1].id if self._stack else None
        sp = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, self.run_id)
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, count=None, wrap_args=None, timed=True):
        """Wrapper around ``fn`` that opens span ``name`` (when ``timed``)
        and calls ``count(counts, args, kwargs, result)`` after it."""

        def wrapper(*args, **kwargs):
            if wrap_args is not None:
                args = wrap_args(self, args)
            if timed:
                with self.span(name):
                    result = fn(*args, **kwargs)
            else:
                result = fn(*args, **kwargs)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def _inc(key, amount=lambda a, k, r: 1):
    def count(counts, args, kwargs, result):
        counts[key] += amount(args, kwargs, result)

    return count


def _posterior_count(counts, args, kwargs, result):
    counts["markov.start_posterior_batch.calls"] += 1
    counts["markov.start_posterior_batch.sample_steps"] += args[1].size


def _em_count(counts, args, kwargs, result):
    counts["markov.em_fit.iterations"] += result.n_iterations
    counts["markov.em_fit.sample_steps"] += result.n_iterations * args[0].samples.size


def _lsq_count(counts, args, kwargs, result):
    counts["fitting.least_squares_damped.calls"] += 1
    counts["fitting.least_squares_damped.iterations"] += result.n_iterations


def _wrap_residual(tracer, args):
    residual = tracer.wrap(
        "fitting.residual", args[0], _inc("fitting.least_squares_damped.residual_evals")
    )
    return (residual,) + tuple(args[1:])


# (module[:class], attribute, span name, counter, argument wrapper, timed);
# the attribute is the name the caller looks up, not the defining module's
PATCHES = (
    ("spinread.cli", "simulate_batch", "markov.simulate_batch",
     _inc("markov.simulate_batch.samples", lambda a, k, r: a[1] * a[2]), None, True),
    ("spinread.readout", "start_posterior_batch", "markov.start_posterior_batch",
     _posterior_count, None, True),
    ("spinread.cli", "em_fit", "markov.em_fit", _em_count, None, True),
    ("spinread.cli", "fidelity_sweep", "readout.fidelity_sweep", None, None, True),
    ("spinread.readout", "hmm_classify_batch", "readout.hmm_classify_batch", None, None, True),
    ("spinread.readout", "optimal_threshold_empirical", "readout.optimal_threshold_empirical",
     _inc("readout.optimal_threshold_empirical.calls"), None, True),
    ("spinread.readout", "confusion_metrics", "readout.confusion_metrics",
     _inc("readout.confusion_metrics.labels", lambda a, k, r: len(a[0])), None, True),
    ("spinread.analytic", "analytic_fidelity", "analytic.analytic_fidelity",
     _inc("analytic.analytic_fidelity.calls"), None, True),
    ("spinread.analytic", "quad", "analytic.quad", _inc("analytic.quad_calls"), None, True),
    ("spinread.fitting", "least_squares_damped", "fitting.least_squares_damped",
     _lsq_count, _wrap_residual, True),
    ("spinread.cli", "fit_model", "fitting.fit_model", None, None, True),
    ("spinread.physics", "optimal_tunnel_rate", "physics.optimal_tunnel_rate", None, None, True),
    ("spinread.physics", "delta_c_drt", "physics.delta_c_drt",
     _inc("physics.delta_c_drt.calls"), None, False),
    ("spinread.cli", "delta_c_drt", "physics.delta_c_drt",
     _inc("physics.delta_c_drt.calls"), None, False),
    ("spinread.pipeline:TraceBundle", "save", "pipeline.save",
     _inc("pipeline.save.bytes", lambda a, k, r: a[0].data.nbytes), None, True),
    ("spinread.pipeline:TraceBundle", "load", "pipeline.load",
     _inc("pipeline.load.bytes", lambda a, k, r: r.data.nbytes), None, True),
    ("spinread.cli", "drift_correct", "pipeline.drift_correct", None, None, True),
    ("spinread.cli", "build_histogram", "pipeline.build_histogram", None, None, True),
    ("spinread.cli", "iq_project", "pipeline.iq_project", None, None, True),
    ("spinread.cli", "noise_scaling", "pipeline.noise_scaling", None, None, True),
)


def _target(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def current_bindings() -> list:
    """The object bound at every patched name right now."""
    return [vars(_target(path))[attr] for path, attr, *_ in PATCHES]


@contextmanager
def installed(tracer: Tracer):
    """Install every wrapper for the duration of the block."""
    saved = []
    try:
        for path, attr, name, count, wrap_args, timed in PATCHES:
            target = _target(path)
            original = vars(target)[attr]
            if isinstance(original, classmethod):
                patched = classmethod(tracer.wrap(name, original.__func__, count, wrap_args, timed))
            else:
                patched = tracer.wrap(name, original, count, wrap_args, timed)
            saved.append((target, attr, original))
            setattr(target, attr, patched)
        yield tracer
    finally:
        for target, attr, original in reversed(saved):
            setattr(target, attr, original)


def busy_times(spans: list[Span]) -> tuple[Counter, Counter]:
    """Per span name: busy seconds, and busy seconds minus direct children."""
    child = Counter()
    for sp in spans:
        if sp.parent is not None:
            child[sp.parent] += sp.end - sp.start
    busy, own = Counter(), Counter()
    for sp in spans:
        busy[sp.name] += sp.end - sp.start
        own[sp.name] += sp.end - sp.start - child[sp.id]
    return busy, own
