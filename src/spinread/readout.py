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

from .fitting import _golden_max
from .markov import (
    HmmParams,
    SpinState,
    Trace,
    TraceBatch,
    _window_samples,
    start_posterior_batch,
    start_posteriors_at,
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

_SPIN_NAMES = ("S", "T0", "Tm")


def map_basis(label, basis: ReadoutBasis) -> str:
    """Map a spin label onto a readout-basis label.

    Parity groups S and T0 as odd and Tm as even; singlet-triplet groups
    T0 and Tm as triplet.
    """
    spin = SpinState(int(label))
    if basis is ReadoutBasis.THREE_STATE:
        return _SPIN_NAMES[spin]
    if basis is ReadoutBasis.PARITY:
        return "even" if spin is SpinState.TM else "odd"
    return "singlet" if spin is SpinState.S else "triplet"


def window_average(trace: Trace, t_read: float) -> float:
    """Mean of the first floor(t_read/dt) samples (at least one)."""
    n = _window_samples(trace.dt, trace.samples.size, t_read)
    return float(trace.samples[:n].mean())


def window_average_batch(batch: TraceBatch, t_read: float) -> np.ndarray:
    n = _window_samples(batch.dt, batch.n_samples, t_read)
    return batch.samples[:, :n].mean(axis=1)


def threshold_classify(avg, threshold: float, polarity: bool = True):
    """High-side class iff avg > threshold; ties go to the low side.

    ``polarity`` selects which class counts as high-side: with the default
    True the returned boolean is "is high-side class"; False negates it.
    """
    avg = np.asarray(avg)
    is_high = avg > threshold
    out = is_high if polarity else ~is_high
    return bool(out) if out.ndim == 0 else out


def _balanced_fidelity(sorted_odd, sorted_even, thresholds, odd_low: bool):
    """Mean of per-class correct fractions at each candidate threshold."""
    thresholds = np.atleast_1d(thresholds)
    frac_odd_le = np.searchsorted(sorted_odd, thresholds, side="right") / sorted_odd.size
    frac_even_le = np.searchsorted(sorted_even, thresholds, side="right") / sorted_even.size
    if odd_low:
        f = 0.5 * (frac_odd_le + (1.0 - frac_even_le))
    else:
        f = 0.5 * ((1.0 - frac_odd_le) + frac_even_le)
    return f


def optimal_threshold_empirical(
    odd_values: Sequence[float], even_values: Sequence[float], grid: int = 2001
):
    """Threshold maximising the 50/50-weighted mean fidelity of two samples.

    Evaluates the balanced fidelity on a uniform grid spanning the pooled
    range, breaks ties toward the midpoint of the tied interval, then
    refines by golden section around the winner. Returns (threshold, f_m).
    """
    odd = np.sort(np.asarray(odd_values, dtype=float))
    even = np.sort(np.asarray(even_values, dtype=float))
    if odd.size == 0 or even.size == 0:
        raise ValueError("both classes must be non-empty")
    odd_low = odd.mean() <= even.mean()

    lo = min(odd[0], even[0])
    hi = max(odd[-1], even[-1])
    if lo == hi:
        return lo, float(_balanced_fidelity(odd, even, lo, odd_low)[0])
    candidates = np.linspace(lo, hi, grid)
    f = _balanced_fidelity(odd, even, candidates, odd_low)
    f_max = f.max()
    tied = np.flatnonzero(f == f_max)
    runs = np.split(tied, np.flatnonzero(np.diff(tied) > 1) + 1)
    run = max(runs, key=len)
    best = int(run[(len(run) - 1) // 2])

    a, b = _golden_max(
        lambda th: _balanced_fidelity(odd, even, th, odd_low)[0],
        candidates[max(best - 1, 0)],
        candidates[min(best + 1, grid - 1)],
        80,
    )
    refined = 0.5 * (a + b)
    f_refined = float(_balanced_fidelity(odd, even, refined, odd_low)[0])
    if f_refined >= f_max:
        return float(refined), f_refined
    return float(candidates[best]), float(f_max)


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
    n = _window_samples(trace.dt, trace.samples.size, t_read)
    labels, post, ties = _classify_windows(params, trace.samples[np.newaxis, :n])
    return HmmClassification(
        spin=SpinState(int(labels[0])), spin_posterior=post[0], tie=bool(ties[0])
    )


def hmm_classify_batch(params: HmmParams, batch: TraceBatch, t_read: float | None = None):
    """Batched :func:`hmm_classify`; returns (labels, spin_posteriors, ties)."""
    n = _window_samples(batch.dt, batch.n_samples, t_read)
    return _classify_windows(params, batch.samples[:, :n])


def _classify_windows(params: HmmParams, samples: np.ndarray):
    gamma0, _ = start_posterior_batch(params, samples)
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


# spin code -> index into BASIS_LABELS[basis]
_SPIN_TO_BASIS_CODE = {
    basis: np.array([BASIS_LABELS[basis].index(map_basis(s, basis)) for s in SpinState])
    for basis in ReadoutBasis
}


def _basis_codes(values, basis: ReadoutBasis) -> np.ndarray:
    """Indices into ``BASIS_LABELS[basis]`` of spin labels or basis-label strings."""
    values = np.asarray(values)
    labels = BASIS_LABELS[basis]
    if values.dtype.kind in "US":
        codes = np.full(values.shape, -1)
        for i, lab in enumerate(labels):
            codes[values == lab] = i
        if np.any(codes < 0):
            raise ValueError(f"label {str(values[codes < 0][0])!r} not in basis {basis.value}")
        return codes
    spins = values.astype(int)
    bad = (spins < 0) | (spins >= len(SpinState))
    if np.any(bad):
        SpinState(int(spins[bad][0]))  # raises the ValueError naming the label
    return _SPIN_TO_BASIS_CODE[basis][spins]


def confusion_metrics(truth, predicted, basis: ReadoutBasis, t_read: float | None = None) -> MetricReport:
    """Confusion counts and the fidelity/visibility/recall metric suite.

    Per-state fidelity is one minus that state's error count over the
    total number of predictions; mean fidelity averages the per-state
    values; visibility is the overall fraction of correct classifications.
    """
    truth = _basis_codes(truth, basis)
    predicted = _basis_codes(predicted, basis)
    if truth.shape != predicted.shape or truth.ndim != 1 or truth.size == 0:
        raise ValueError("truth and predicted must be equal-length and non-empty")
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
    carries the number of argmax ties in ``n_ties``.
    """
    if classifier not in ("threshold", "hmm"):
        raise ValueError("classifier must be 'threshold' or 'hmm'")
    truth_spin = batch.spin_labels()
    reports = []
    if classifier == "threshold":
        if basis is ReadoutBasis.THREE_STATE:
            raise ValueError("the threshold method is binary; use parity or singlet_triplet")
        lab0, lab1 = BASIS_LABELS[basis]
        truth = np.array(BASIS_LABELS[basis])[_basis_codes(truth_spin, basis)]
        cumsums = np.cumsum(batch.samples, axis=1)
        for t_read in t_read_list:
            n_win = _window_samples(batch.dt, batch.n_samples, t_read)
            avgs = cumsums[:, n_win - 1] / n_win
            v0 = avgs[truth == lab0]
            v1 = avgs[truth == lab1]
            threshold, _ = optimal_threshold_empirical(v0, v1)
            high_label = lab1 if v1.mean() >= v0.mean() else lab0
            low_label = lab0 if high_label == lab1 else lab1
            is_high = threshold_classify(avgs, threshold)
            predicted = np.where(is_high, high_label, low_label)
            reports.append(confusion_metrics(truth, predicted, basis, t_read=t_read))
    else:
        windows = [_window_samples(batch.dt, batch.n_samples, t) for t in t_read_list]
        ends = sorted(set(windows))
        if len(ends) > 1:
            gamma0 = start_posteriors_at(params, batch.samples, ends)
            classified = {n: _spin_labels(g) for n, g in zip(ends, gamma0)}
        else:
            # one window: forward-backward costs about two forward passes,
            # the joint forward one per start state with pi > 0
            classified = {
                n: hmm_classify_batch(params, batch, t) for t, n in zip(t_read_list[:1], windows)
            }
        for t_read, n in zip(t_read_list, windows):
            labels, _, ties = classified[n]
            report = confusion_metrics(truth_spin, labels, basis, t_read=t_read)
            reports.append(replace(report, n_ties=int(ties.sum())))
    return reports
