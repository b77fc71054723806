"""State classification and readout metrics.

Two classifiers: the threshold method (window-average the signal, compare
against an optimised threshold) and the HMM method (smoothed posterior of
the hidden state at t = 0, marginalised over the fluctuator). Predictions
map onto three-state, parity or singlet-triplet bases; metrics follow the
error-count definitions (per-state fidelity, mean fidelity, visibility,
recall).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence

import numpy as np

from .markov import (
    HmmParams,
    SpinState,
    Trace,
    TraceBatch,
    _check_dt,
    _spin_codes,
    _start_posteriors,
    _window_samples,
    start_posterior_batch,
)


class ReadoutBasis(Enum):
    THREE_STATE = "three_state"
    PARITY = "parity"
    SINGLET_TRIPLET = "singlet_triplet"


BASIS_LABELS = {
    ReadoutBasis.THREE_STATE: ("S", "T0", "Tm"),
    ReadoutBasis.PARITY: ("odd", "even"),
    ReadoutBasis.SINGLET_TRIPLET: ("singlet", "triplet"),
}

# spin code (S, T0, Tm) -> index into BASIS_LABELS[basis]: parity groups
# S and T0 as odd, singlet-triplet groups T0 and Tm as triplet
_SPIN_TO_BASIS_CODE = {
    ReadoutBasis.THREE_STATE: np.array([0, 1, 2]),
    ReadoutBasis.PARITY: np.array([0, 0, 1]),
    ReadoutBasis.SINGLET_TRIPLET: np.array([0, 1, 1]),
}


def map_basis(label, basis: ReadoutBasis) -> str:
    """Map a spin label (an integer spin code) onto a readout-basis label."""
    return BASIS_LABELS[basis][_SPIN_TO_BASIS_CODE[basis][_spin_codes([label], 1)[0]]]


def window_average(trace: Trace, t_read: float) -> float:
    """Mean of the first floor(t_read/dt) samples (at least one)."""
    one_row = TraceBatch(trace.dt, trace.samples[np.newaxis])
    return float(_window_means(one_row, [t_read])[0, 0])


def _window_means(batch: TraceBatch, t_read_list) -> np.ndarray:
    """Window average of every trace at each readout time, from one
    cumulative sum up to the longest window: shape (len(t_read_list), n_traces)."""
    ends = np.array([_window_samples(batch.dt, batch.n_samples, t) for t in t_read_list], dtype=int)
    return (np.cumsum(batch.samples[:, : ends.max()], axis=1)[:, ends - 1] / ends).T


def threshold_classify(avg, threshold: float, polarity: bool = True):
    """High-side class iff avg > threshold; ties go to the low side.

    ``polarity`` selects which class counts as high-side: with the default
    True the returned boolean is "is high-side class"; False negates it.
    """
    avg = np.asarray(avg)
    is_high = avg > threshold
    out = is_high if polarity else ~is_high
    return bool(out) if out.ndim == 0 else out


def optimal_threshold_empirical(odd_values: Sequence[float], even_values: Sequence[float]):
    """Threshold maximising the 50/50-weighted mean fidelity of two samples.

    The lower-mean class is the low side (odd on equal means). One stable
    sort of the pooled values gives each class's count at or below every
    split between consecutive distinct values in [lo, hi], so the maximum
    is exact. The threshold is the midpoint of the widest gap that attains
    it, the lowest such gap on equal widths (hi itself when only the split
    above every value does). Returns (threshold, f_m); raises ValueError on
    an empty class or a non-finite value.
    """
    odd = np.asarray(odd_values, dtype=float)
    even = np.asarray(even_values, dtype=float)
    if odd.size == 0 or even.size == 0:
        raise ValueError("both classes must be non-empty")
    pooled = np.concatenate([odd, even])
    if not np.all(np.isfinite(pooled)):
        raise ValueError("threshold values must be finite")
    odd_low = odd.mean() <= even.mean()

    order = np.argsort(pooled, kind="stable")
    values = pooled[order]
    if values[0] == values[-1]:
        return float(values[0]), 0.5
    ends = np.append(np.flatnonzero(values[1:] != values[:-1]), values.size - 1)
    odd_le = np.cumsum(order < odd.size)[ends]
    even_le = ends + 1 - odd_le
    if odd_low:
        f = 0.5 * (odd_le / odd.size + (1.0 - even_le / even.size))
    else:
        f = 0.5 * ((1.0 - odd_le / odd.size) + even_le / even.size)
    # split j holds for every threshold in [values[ends[j]], upper[j])
    upper = np.append(values[ends[:-1] + 1], values[-1])
    best = np.flatnonzero(f == f.max())
    j = best[np.argmax(upper[best] - values[ends[best]])]
    lower = values[ends[j]]
    mid = lower + 0.5 * (upper[j] - lower)
    # between adjacent floats the midpoint can round onto the upper value
    return float(mid if mid < upper[j] else lower), float(f[j])


@dataclass(frozen=True)
class HmmClassification:
    spin: SpinState
    spin_posterior: np.ndarray
    tie: bool


def hmm_classify(params: HmmParams, trace: Trace, t_read: float | None = None) -> HmmClassification:
    """Most likely spin at t = 0 given the windowed trace.

    The six-state posterior at step 0 is summed over the fluctuator within
    each spin; argmax ties resolve in canonical order S < T0 < Tm and are
    flagged.
    """
    one_row = TraceBatch(trace.dt, trace.samples[np.newaxis])
    labels, post, ties = hmm_classify_batch(params, one_row, t_read)
    return HmmClassification(
        spin=SpinState(labels[0]), spin_posterior=post[0], tie=bool(ties[0])
    )


def hmm_classify_batch(params: HmmParams, batch: TraceBatch, t_read: float | None = None):
    """Batched :func:`hmm_classify`; returns (labels, spin_posteriors, ties)."""
    _check_dt(params, batch.dt)
    n = _window_samples(batch.dt, batch.n_samples, t_read)
    gamma0, _ = start_posterior_batch(params, batch.samples[:, :n])
    return _spin_labels(gamma0)


def _spin_labels(gamma0: np.ndarray):
    """(labels, spin_posteriors, ties) from six-state time-zero posteriors."""
    spin_post = gamma0[:, 0:3] + gamma0[:, 3:6]
    labels = np.argmax(spin_post, axis=1).astype(np.int8)
    top = spin_post[np.arange(spin_post.shape[0]), labels]
    ties = (spin_post == top[:, None]).sum(axis=1) > 1
    return labels, spin_post, ties


@dataclass(frozen=True)
class ConfusionMatrix:
    labels: tuple[str, ...]
    counts: np.ndarray

    def __post_init__(self):
        if self.counts.shape != (len(self.labels), len(self.labels)):
            raise ValueError("counts must be square over the label set")
        if np.any(self.counts < 0):
            raise ValueError("counts must be >= 0")


@dataclass(frozen=True)
class MetricReport:
    labels: tuple[str, ...]
    fidelity_per_state: dict
    f_m: float
    v_m: float
    recall_per_state: dict
    n_traces: int
    t_read: float | None = None
    confusion: ConfusionMatrix | None = None
    n_ties: int | None = None


def _basis_codes(values, basis: ReadoutBasis) -> np.ndarray:
    """Indices into ``BASIS_LABELS[basis]`` of a 1-D sequence of basis-label
    strings or of spin labels, which must be integer spin codes
    (:func:`markov._spin_codes`)."""
    array = np.asarray(values)
    labels = BASIS_LABELS[basis]
    if array.dtype.kind in "US":
        codes = np.full(array.shape, -1)
        for i, lab in enumerate(labels):
            codes[array == lab] = i
        if np.any(codes < 0):
            raise ValueError(f"label {str(array[codes < 0][0])!r} not in basis {basis.value}")
        return codes
    return _SPIN_TO_BASIS_CODE[basis][_spin_codes(values, len(values))]


def confusion_metrics(truth, predicted, basis: ReadoutBasis, t_read: float | None = None) -> MetricReport:
    """Confusion counts and the fidelity/visibility/recall metric suite.

    Per-state fidelity is one minus that state's error count over the
    total number of predictions; mean fidelity averages the per-state
    values; visibility is the overall fraction of correct classifications.
    """
    if np.shape(truth) != np.shape(predicted) or np.ndim(truth) != 1 or len(truth) == 0:
        raise ValueError("truth and predicted must be equal-length and non-empty")
    truth = _basis_codes(truth, basis)
    predicted = _basis_codes(predicted, basis)
    labels = BASIS_LABELS[basis]
    k = len(labels)
    counts = np.bincount(k * truth + predicted, minlength=k * k).reshape(k, k)

    n = len(truth)
    occurrences = counts.sum(axis=1)
    correct = np.diag(counts)
    errors_per_state = occurrences - correct
    fidelity = {lab: 1.0 - errors_per_state[i] / n for i, lab in enumerate(labels)}
    f_m = float(np.mean(list(fidelity.values())))
    v_m = float(correct.sum() / n)
    recall = {
        lab: (correct[i] / occurrences[i]) if occurrences[i] > 0 else float("nan")
        for i, lab in enumerate(labels)
    }
    return MetricReport(
        labels=labels,
        fidelity_per_state=fidelity,
        f_m=f_m,
        v_m=v_m,
        recall_per_state=recall,
        n_traces=n,
        t_read=t_read,
        confusion=ConfusionMatrix(labels=labels, counts=counts),
    )


def fidelity_sweep(
    params: HmmParams,
    batch: TraceBatch,
    t_read_list: Sequence[float],
    classifier: str,
    basis: ReadoutBasis,
) -> list[MetricReport]:
    """One MetricReport per readout time, in the order of ``t_read_list``.

    The threshold classifier re-optimises its threshold at every t_read
    from the labelled batch. The HMM classifier reuses ``params``: one
    forward pass over the longest window gives the time-zero posterior
    at every window end (:func:`start_posteriors_at`), and each report
    carries the number of argmax ties in ``n_ties``; ``params.dt`` must be
    the batch's dt. ``t_read_list`` must be non-empty.
    """
    if classifier not in ("threshold", "hmm"):
        raise ValueError("classifier must be 'threshold' or 'hmm'")
    if len(t_read_list) == 0:
        raise ValueError("t_read_list must be non-empty")
    truth_spin = batch.spin_labels()
    reports = []
    if classifier == "threshold":
        if basis is ReadoutBasis.THREE_STATE:
            raise ValueError("the threshold method is binary; use parity or singlet_triplet")
        # each basis label's first spin code stands for it in the predictions
        spin0, spin1 = (list(_SPIN_TO_BASIS_CODE[basis]).index(i) for i in (0, 1))
        is1 = _basis_codes(truth_spin, basis) == 1
        for t_read, avgs in zip(t_read_list, _window_means(batch, t_read_list)):
            v0, v1 = avgs[~is1], avgs[is1]
            threshold, _ = optimal_threshold_empirical(v0, v1)
            high, low = (spin1, spin0) if v1.mean() >= v0.mean() else (spin0, spin1)
            predicted = np.where(threshold_classify(avgs, threshold), high, low)
            reports.append(confusion_metrics(truth_spin, predicted, basis, t_read=t_read))
    else:
        _check_dt(params, batch.dt)
        windows = [_window_samples(batch.dt, batch.n_samples, t) for t in t_read_list]
        ends = sorted(set(windows))
        if len(ends) > 1:
            # the batch checked its samples and _window_samples the ends
            gamma0 = _start_posteriors(params, batch.samples, ends)[0]
            classified = {n: _spin_labels(g) for n, g in zip(ends, gamma0)}
        else:
            classified = {
                n: hmm_classify_batch(params, batch, t) for t, n in zip(t_read_list[:1], windows)
            }
        for t_read, n in zip(t_read_list, windows):
            labels, _, ties = classified[n]
            report = confusion_metrics(truth_spin, labels, basis, t_read=t_read)
            reports.append(replace(report, n_ties=int(ties.sum())))
    return reports
