"""Layer-series ingestion, spiking filtering, and anomaly flagging.

The detection scheme filters the defective and the healthy build through
identically configured spiking populations, takes the per-layer percent
deviation between the two filtered series, and flags layers whose
deviation dips below a threshold. Junction spikes are clipped by the
population radius rather than smoothed, so they cannot mask the dips a
power drop leaves behind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .ensembles import Ensemble, build_ensemble
from .errors import MAX_INT, ConfigError, DataError, NumericError, check_int, check_real
from .simulator import SimResult, simulate_cascade

FALLBACK_THRESHOLD_PCT = 5.0  # the adaptive policy's threshold when the calibration MAD is zero


@dataclass(frozen=True)
class SignalSeries:
    """Per-layer mean sensor values for one build and one sensor channel."""

    layers: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        layers = np.asarray(self.layers, dtype=np.int64)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "values", values)
        if layers.shape != values.shape or layers.ndim != 1:
            raise DataError("layers and values must be 1-D arrays of equal length")
        if layers.size == 0:
            raise DataError("series must contain at least one layer")
        if np.any(np.diff(layers) <= 0):
            raise DataError("layer numbers must be strictly increasing")
        if not np.all(np.isfinite(values)):
            raise DataError("series values must be finite")

    def layer_index(self, layer: int) -> int:
        idx = np.searchsorted(self.layers, layer)
        if idx >= self.layers.size or self.layers[idx] != layer:
            raise DataError(f"layer {layer} is not in the series")
        return int(idx)


def load_layer_series(path) -> SignalSeries:
    """Parse a layer/value CSV into a validated, layer-sorted PD1 series.

    Lines starting with '#' are treated as comments. Errors name the
    offending physical row (1-based, comments and header included).
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"input file does not exist: {path}")
    header: list[str] | None = None
    rows: list[tuple[int, float]] = []
    seen: dict[int, int] = {}
    with open(path, newline="") as fh:
        for row_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            cells = [c.strip() for c in line.split(",")]
            if header is None:
                header = cells
                for col in ("layer", "value"):
                    if col not in header:
                        raise DataError(f"row {row_no}: missing column {col!r} in header {header}")
                li, vi = header.index("layer"), header.index("value")
                continue
            if len(cells) != len(header):
                raise DataError(f"row {row_no}: expected {len(header)} cells, got {len(cells)}")
            try:
                layer_f = float(cells[li])
                layer = int(layer_f)  # OverflowError for +-inf
                if layer != layer_f or abs(layer) >= 2**63:
                    raise ValueError
            except (ValueError, OverflowError):
                raise DataError(f"row {row_no}: layer {cells[li]!r} is not a 64-bit integer") from None
            try:
                value = float(cells[vi])
            except ValueError:
                raise DataError(f"row {row_no}: value {cells[vi]!r} is not numeric") from None
            if not math.isfinite(value) or value < 0:
                raise DataError(f"row {row_no}: value {value} must be finite and >= 0")
            if layer in seen:
                raise DataError(f"row {row_no}: duplicate layer {layer} (first seen at row {seen[layer]})")
            seen[layer] = row_no
            rows.append((layer, value))
    if header is None or not rows:
        raise DataError(f"{path}: no data rows found")
    rows.sort(key=lambda r: r[0])
    layers = np.array([r[0] for r in rows], dtype=np.int64)
    values = np.array([r[1] for r in rows])
    return SignalSeries(layers=layers, values=values)


@dataclass(frozen=True)
class FilterConfig:
    """Knobs of the spiking filter network (JSON-serializable)."""

    neurons: int = 500
    radius: float = 1100.0
    dt: float = 0.001
    presentation_time: float = 0.01
    tau_in: float = 0.002
    tau_out: float = 0.002
    seed: int = 0
    stages: int = 1

    def __post_init__(self) -> None:
        check_int("neurons", self.neurons, 1)
        check_int("seed", self.seed, 0)
        check_int("stages", self.stages, 1)
        for name in ("radius", "dt", "presentation_time", "tau_in", "tau_out"):
            check_real(name, getattr(self, name))
        if not (self.radius > 0 and math.isfinite(2.0 * self.radius)):
            raise ConfigError(f"radius must be positive with a finite span 2*radius, got {self.radius}")
        # a spike is a current of 1/dt, so a subnormal dt, whose 1/dt is inf, is refused
        if not (self.dt > 0 and math.isfinite(1.0 / self.dt)):
            raise ConfigError(f"dt must be positive with a finite spike current 1/dt, got {self.dt}")
        if not (self.tau_in > 0 and self.tau_out > 0):
            raise ConfigError(f"time constants must be positive, got {self.tau_in}, {self.tau_out}")
        if self.stages > self.neurons:
            raise ConfigError(f"cannot split {self.neurons} neurons over {self.stages} stages")
        ratio = self.presentation_time / self.dt  # inf when the quotient overflows
        if not 0.5 <= ratio <= MAX_INT or abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
            raise ConfigError(
                f"presentation_time {self.presentation_time} must be a positive "
                f"multiple of dt {self.dt}, of at most {MAX_INT} steps"
            )

    @property
    def presentation_steps(self) -> int:
        return round(self.presentation_time / self.dt)

    def stage_sizes(self) -> list[int]:
        base, extra = divmod(self.neurons, self.stages)
        return [base + (1 if s < extra else 0) for s in range(self.stages)]

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "FilterConfig":
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown filter-config keys: {sorted(unknown)}")
        return cls(**data)


def build_filter_ensembles(cfg: FilterConfig) -> list[Ensemble]:
    """One population per stage, seeded deterministically from cfg.seed."""
    return [build_ensemble(size, cfg.radius, cfg.seed + s) for s, size in enumerate(cfg.stage_sizes())]


def run_filter(
    series: SignalSeries | Sequence[SignalSeries],
    cfg: FilterConfig | Sequence[FilterConfig],
    windows: Sequence[tuple[int, int]] | None = None,
    decode: bool = True,
) -> tuple[SignalSeries | None, SimResult] | tuple[list[SignalSeries] | None, list[SimResult]]:
    """Filter series through the spiking network; also return the raw runs.

    `series` is one SignalSeries or a sequence of them, one per lane, and
    `cfg` is one FilterConfig for every lane or a sequence with one per
    lane. Lane configs may differ only in tau_in and tau_out: the
    populations are built once per call and every lane runs through them
    in one step loop. Shorter lanes are padded to the longest; the loop is
    causal, so each lane's prefix is exactly its run alone.

    Each layer value is held for presentation_time and the layer's filtered
    value is the decoded output at the last step of its window (the settled
    response). Inter-stage links reuse tau_out, so a two-stage cascade
    applies three filter passes in total.

    `windows`, when given, holds one inclusive layer window (first, last)
    per lane, each bound a layer of that lane's series (else a DataError);
    each run's `rates` is then the last stage's filtered rates averaged
    over the presentation steps of its window's layers (see simulate_cascade).

    `decode=False` runs without the output link (see simulate_cascade), for
    a caller that reads only the runs' spikes: the filtered part is then
    None and each run's `decoded` is None.

    Returns (filtered, run) for one series, or (filtered, runs) with one
    entry per lane in each list for a sequence; either way `[0]` is the
    filtered part. Raises ConfigError, before anything is built, when
    lanes x padded steps x neurons exceeds errors.MAX_INT.
    """
    single = isinstance(series, SignalSeries)
    lanes = [series] if single else list(series)
    cfgs = [cfg] * len(lanes) if isinstance(cfg, FilterConfig) else list(cfg)
    if not lanes:
        raise ConfigError("at least one series is required")
    if len(cfgs) != len(lanes):
        raise ConfigError(f"need one config per series, got {len(cfgs)} for {len(lanes)}")
    base = cfgs[0]
    if any(replace(c, tau_in=base.tau_in, tau_out=base.tau_out) != base for c in cfgs):
        raise ConfigError("lane configs may differ only in tau_in and tau_out")

    m = base.presentation_steps
    if windows is not None:
        try:
            windows = [tuple(w) for w in windows]
        except TypeError as err:
            raise ConfigError(f"layer windows must be (first, last) pairs: {err}") from err
        if len(windows) != len(lanes):
            raise ConfigError(f"need one layer window per series, got {len(windows)} for {len(lanes)}")
        windows = [_window_steps(s, w, m) for s, w in zip(lanes, windows)]
    steps = max(s.layers.size for s in lanes) * m
    # lanes x steps x neurons bounds the size of every array of the run
    # (inputs, spikes), so an unusable size fails here, before a population
    # or an array is built
    if len(lanes) * steps * base.neurons > MAX_INT:
        raise ConfigError(
            f"a run of {len(lanes)} lanes x {steps} steps x {base.neurons} neurons "
            f"exceeds {MAX_INT} (2**53 - 1) values"
        )
    ensembles = build_filter_ensembles(base)
    inputs = np.zeros((len(lanes), steps))
    for b, s in enumerate(lanes):
        inputs[b, : s.layers.size * m] = np.repeat(s.values, m)
    taus = [[c.tau_in] + [c.tau_out] * c.stages for c in cfgs]
    result = simulate_cascade(ensembles, inputs, base.dt, taus, windows, decode)

    runs = [result.lane(b, s.layers.size * m) for b, s in enumerate(lanes)]
    if not decode:
        return (None, runs[0]) if single else (None, runs)
    filtered = [SignalSeries(layers=s.layers, values=run.decoded[m - 1 :: m])
                for s, run in zip(lanes, runs)]
    return (filtered[0], runs[0]) if single else (filtered, runs)


def _window_steps(series: SignalSeries, window: tuple, m: int) -> tuple[int, int]:
    """The step range [start, stop) of an inclusive layer window (first,
    last) of a series whose layers are held for `m` steps each. Both bounds
    must be layers of the series."""
    if len(window) != 2:
        raise ConfigError(f"a layer window is (first, last), got {window}")
    lo, hi = window
    check_int("layer window bound", lo)
    check_int("layer window bound", hi)
    if lo > hi or lo < series.layers[0] or hi > series.layers[-1]:
        raise DataError(
            f"window {(lo, hi)} is not covered by series layers "
            f"{series.layers[0]}..{series.layers[-1]}"
        )
    return series.layer_index(lo) * m, (series.layer_index(hi) + 1) * m


@dataclass(frozen=True)
class DeviationSeries(SignalSeries):
    """Signed percent deviation per layer, over the common layer domain.

    Layers where the healthy reference is too close to zero for a ratio to
    mean anything are listed in `undefined` and excluded from flagging.
    """

    undefined: tuple[int, ...] = ()


def percent_deviation(defective: SignalSeries, healthy: SignalSeries) -> DeviationSeries:
    """100 * (defective - healthy) / healthy per layer on the common domain.

    Power dips show up as negative deviations. Healthy values below 1e-9 of
    the series median are marked undefined instead of dividing by them; a
    series with no defined layer raises DataError, and a deviation that
    overflows raises NumericError.
    """
    common, di, hi = np.intersect1d(defective.layers, healthy.layers, return_indices=True)
    if common.size == 0:
        raise DataError("series have no overlapping layers")
    dv = defective.values[di]
    hv = healthy.values[hi]
    guard = 1e-9 * _median(np.abs(hv))
    defined = np.abs(hv) > guard
    if not defined.any():
        raise DataError("no deviation is defined: every healthy value is at most 1e-9 of their median")
    with np.errstate(over="ignore"):
        dev = 100.0 * (dv[defined] - hv[defined]) / hv[defined]
    if not np.isfinite(dev).all():
        raise NumericError("a percent deviation overflows the float range")
    return DeviationSeries(
        layers=common[defined],
        values=dev,
        undefined=tuple(int(l) for l in common[~defined]),
    )


def _median(values: np.ndarray) -> float:
    """np.median of a non-empty 1-D array, without the numpy.ma import that
    np.median makes on first use: the middle value, or (a + b) / 2 of the
    two middle values, and a / 2 + b / 2 when a + b overflows; NaN when any
    value is NaN."""
    s = np.sort(values)  # NaNs sort last
    if np.isnan(s[-1]):
        return s[-1]
    mid = s.size // 2
    if s.size % 2:
        return s[mid]
    a, b = float(s[mid - 1]), float(s[mid])
    return (a + b) / 2 if math.isfinite(a + b) else a / 2 + b / 2


@dataclass(frozen=True)
class FixedPolicy:
    """Flag layers whose deviation is at or below -threshold_pct."""

    threshold_pct: float

    def __post_init__(self) -> None:
        check_real("threshold_pct", self.threshold_pct)
        if not self.threshold_pct > 0:
            raise ConfigError(f"threshold must be positive, got {self.threshold_pct}")


@dataclass(frozen=True)
class AdaptivePolicy:
    """Threshold at k times the MAD of deviations over a calibration range.

    `calibration` is an inclusive (first, last) layer range known to be
    clean, typically the layers before the defect window; when omitted the
    first half of the deviation domain is used. A zero MAD falls back to
    the fixed FALLBACK_THRESHOLD_PCT.
    """

    k: float = 6.0
    calibration: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        check_real("k", self.k)
        if not self.k > 0:
            raise ConfigError(f"k must be positive, got {self.k}")


class DetectionMetrics(NamedTuple):
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class DetectionReport:
    flagged_layers: tuple[int, ...]
    deviations: DeviationSeries
    threshold_used: float
    policy: str
    calibration_layers: tuple[int, int] | None = None
    fallback_used: bool = False
    metrics: DetectionMetrics | None = None

    def to_dict(self) -> dict:
        out = {
            "flagged_layers": list(self.flagged_layers),
            "threshold_used": self.threshold_used,
            "policy": self.policy,
            "calibration_layers": list(self.calibration_layers) if self.calibration_layers else None,
            "fallback_used": self.fallback_used,
            "undefined_layers": list(self.deviations.undefined),
            "deviations": dict(zip(map(str, self.deviations.layers.tolist()),
                                   self.deviations.values.tolist())),
        }
        if self.metrics is not None:
            out["metrics"] = self.metrics._asdict()
        return out


def flag_anomalies(dev: DeviationSeries, policy: FixedPolicy | AdaptivePolicy) -> DetectionReport:
    """Apply a thresholding policy to a deviation series.

    Only dips are anomalous here: a layer is flagged when its deviation is
    at or below minus the threshold. Positive excursions never flag.
    """
    fallback = False
    calibration: tuple[int, int] | None = None
    if isinstance(policy, FixedPolicy):
        theta = policy.threshold_pct
        name = f"fixed(theta={policy.threshold_pct}%)"
    elif isinstance(policy, AdaptivePolicy):
        if policy.calibration is not None:
            lo, hi = policy.calibration
            mask = (dev.layers >= lo) & (dev.layers <= hi)
        else:
            mask = np.zeros(dev.layers.size, dtype=bool)
            mask[: max(1, dev.layers.size // 2)] = True
        cal = dev.values[mask]
        if cal.size == 0:
            raise ConfigError(
                f"calibration range {policy.calibration} contains no deviation layers"
            )
        calibration = (int(dev.layers[mask][0]), int(dev.layers[mask][-1]))
        mad = float(_median(np.abs(cal - _median(cal))))
        theta = policy.k * mad
        if theta == 0.0:
            theta = FALLBACK_THRESHOLD_PCT
            fallback = True
        name = f"adaptive(k={policy.k})"
    else:
        raise ConfigError(f"unknown policy type: {type(policy).__name__}")

    if not math.isfinite(theta):
        raise NumericError(f"{name}: threshold {theta} is not finite")
    flagged = tuple(int(l) for l in dev.layers[dev.values <= -theta])
    return DetectionReport(
        flagged_layers=flagged,
        deviations=dev,
        threshold_used=float(theta),
        policy=name,
        calibration_layers=calibration,
        fallback_used=fallback,
    )

