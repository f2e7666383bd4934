"""Detection scoring, time-constant sweeps, and filter comparisons.

Scoring is per-layer binary classification restricted to the evaluated
window: each layer is either flagged or not, defective or not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

from .baselines import BaselineFilterSpec, apply_baseline_filter
from .errors import ConfigError, DataError, SnnDetectError, check_int
from .pipeline import (
    AdaptivePolicy,
    DetectionMetrics,
    DetectionReport,
    FilterConfig,
    FixedPolicy,
    SignalSeries,
    flag_anomalies,
    percent_deviation,
    run_filter,
)


# clean layers kept between the calibration range and the first defect layer
CALIBRATION_MARGIN = 5


@dataclass(frozen=True)
class GroundTruth:
    defect_layers: frozenset[int]
    window: tuple[int, int]  # inclusive

    def __post_init__(self) -> None:
        for layer in self.defect_layers:
            check_int("defect layer", layer)
        for bound in self.window:
            check_int("window bound", bound)
        object.__setattr__(self, "defect_layers", frozenset(int(l) for l in self.defect_layers))
        lo, hi = self.window
        if lo > hi:
            raise DataError(f"window must be non-empty, got {self.window}")
        outside = {l for l in self.defect_layers if not lo <= l <= hi}
        if outside:
            raise DataError(f"defect layers {sorted(outside)} fall outside window {self.window}")

    @classmethod
    def from_dict(cls, doc) -> "GroundTruth":
        """The truth of a document with `defect_layers` and a `window`, as
        gen-data writes to truth.json."""
        try:
            lo, hi = doc["window"]
            layers = tuple(doc["defect_layers"])
        except (KeyError, TypeError, ValueError) as err:
            raise DataError(
                f"ground truth: expected keys 'defect_layers' and 'window': {err}") from err
        return cls(defect_layers=layers, window=(lo, hi))

    def default_policy(self, k: float = AdaptivePolicy.k) -> AdaptivePolicy:
        """Adaptive policy calibrated on the clean layers before the defect.

        The calibration range ends CALIBRATION_MARGIN layers before the
        first defect layer; a defect that starts within that margin of the
        window start leaves no clean layers to calibrate on.
        """
        start = min(self.defect_layers) if self.defect_layers else self.window[1] + 1
        last = start - CALIBRATION_MARGIN
        if last < self.window[0]:
            raise ConfigError(
                f"cannot calibrate the default policy: the defect starts at layer {start}, "
                f"within the {CALIBRATION_MARGIN}-layer margin of window {self.window}, so "
                f"no clean layers precede it; give an explicit calibration range or a "
                f"fixed threshold"
            )
        return AdaptivePolicy(k=k, calibration=(self.window[0], last))


def f1_score(flags: Iterable[int], truth: GroundTruth) -> DetectionMetrics:
    """Per-layer precision, recall and f1 against the known defect layers."""
    flags = {int(l) for l in flags}
    lo, hi = truth.window
    outside = {l for l in flags if not lo <= l <= hi}
    if outside:
        raise DataError(f"flags {sorted(outside)} fall outside the evaluated window {truth.window}")
    tp = len(flags & truth.defect_layers)
    fp = len(flags - truth.defect_layers)
    fn = len(truth.defect_layers - flags)
    precision = tp / (tp + fp) if flags else 0.0
    recall = tp / (tp + fn) if (tp + fn) > 0 else 0.0
    f1 = 2 * precision * recall / (precision + recall) if (precision + recall) > 0 else 0.0
    return DetectionMetrics(precision, recall, f1)


def window_flags(report: DetectionReport, truth: GroundTruth) -> set[int]:
    """Report flags restricted to the evaluated window."""
    lo, hi = truth.window
    return {l for l in report.flagged_layers if lo <= l <= hi}


def evaluate(
    filtered: Sequence[SignalSeries],
    policy: FixedPolicy | AdaptivePolicy,
    truth: GroundTruth | None = None,
) -> DetectionReport:
    """Deviate a filtered (defective, healthy) pair and flag it under the
    policy; given a truth, score the flags inside its window as the
    report's metrics."""
    report = flag_anomalies(percent_deviation(*filtered), policy)
    if truth is None:
        return report
    return replace(report, metrics=f1_score(window_flags(report, truth), truth))


@dataclass(frozen=True)
class ScoreRow:
    """One scored filter: a time constant of a sweep or a filter name of a comparison."""

    key: float | str
    precision: float
    recall: float
    f1: float
    flagged: int  # flags inside the truth window
    error: str | None = None


def _score_row(
    key: float | str,
    filter_pair: Callable[[], Sequence[SignalSeries]],
    policy: FixedPolicy | AdaptivePolicy,
    truth: GroundTruth,
) -> ScoreRow:
    """The scored row of one filtered pair; a pipeline failure while
    filtering or scoring becomes the row's error instead of aborting."""
    try:
        report = evaluate(filter_pair(), policy, truth)
    except SnnDetectError as err:
        nan = float("nan")
        return ScoreRow(key, nan, nan, nan, 0, str(err))
    return ScoreRow(key, *report.metrics, len(window_flags(report, truth)))


@dataclass(frozen=True)
class SweepResult:
    points: tuple[ScoreRow, ...]
    best_tau: float


def sweep_tau(
    defective: SignalSeries,
    healthy: SignalSeries,
    taus: Sequence[float],
    cfg: FilterConfig,
    truth: GroundTruth,
    policy: FixedPolicy | AdaptivePolicy,
) -> SweepResult:
    """Score detection across synaptic time constants (applied to both links).

    The whole sweep is one batched filter run: the populations are built
    once, and each time constant contributes a defective and a healthy
    lane, so the sweep is deterministic and every point sees the same
    network. Per-point pipeline failures are recorded in the row rather
    than aborting the sweep. Ties for the best F1 go to the smallest time
    constant, which has the least lag.
    """
    taus = [float(t) for t in taus]
    if not taus or not all(0 < t < math.inf for t in taus):
        raise ConfigError(f"time constants must be positive and finite, got {taus}")
    if any(b <= a for a, b in zip(taus, taus[1:])):
        raise ConfigError("time constants must be strictly increasing")

    cfgs = [replace(cfg, tau_in=tau, tau_out=tau) for tau in taus for _ in (0, 1)]
    try:
        filtered, _ = run_filter([defective, healthy] * len(taus), cfgs)
    except SnnDetectError as err:  # one run carries every point
        raise DataError(f"every sweep point failed: {err}") from err
    points = tuple(
        _score_row(tau, lambda i=i: filtered[2 * i : 2 * i + 2], policy, truth)
        for i, tau in enumerate(taus)
    )
    scored = [pt for pt in points if pt.error is None]
    if not scored:
        raise DataError(f"every sweep point failed; the first: {points[0].error}")
    best = max(scored, key=lambda pt: pt.f1)  # max() keeps the first (smallest tau) on ties
    return SweepResult(points=points, best_tau=best.key)


def compare_filters(
    defective: SignalSeries,
    healthy: SignalSeries,
    specs: Sequence[BaselineFilterSpec],
    cfg: FilterConfig,
    truth: GroundTruth,
    policy: FixedPolicy | AdaptivePolicy,
) -> list[ScoreRow]:
    """One scored row per classical filter plus one for the spiking filter.

    Every spec is designed first (see BaselineFilterSpec.check_design), so
    an unstable Butterworth raises NumericError before any filter runs.
    """
    for spec in specs:
        spec.check_design()
    rows = [
        _score_row(spec.kind,
                   lambda spec=spec: [apply_baseline_filter(s, spec) for s in (defective, healthy)],
                   policy, truth)
        for spec in specs
    ]
    rows.append(_score_row("snn", lambda: run_filter([defective, healthy], cfg)[0], policy, truth))
    return rows
