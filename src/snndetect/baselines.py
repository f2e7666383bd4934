"""Classical smoothing filters for the layer-series comparison.

All four are linear with unit DC gain. The Butterworth filter runs
forward-backward so no filter introduces phase lag: a lagging filter
would shift the detected dip onto the wrong layer. Edges use reflect
padding (no repeated edge sample) to avoid spurious boundary dips.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .pipeline import SignalSeries

KINDS = ("savitzky_golay", "butterworth", "moving_average", "gaussian")


@dataclass(frozen=True)
class BaselineFilterSpec:
    kind: str
    window: int | None = None      # moving_average, savitzky_golay
    polyorder: int | None = None   # savitzky_golay
    cutoff: float | None = None    # butterworth, normalized to Nyquist
    order: int = 2                 # butterworth
    sigma: float | None = None     # gaussian

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(f"unknown filter kind {self.kind!r}, expected one of {KINDS}")
        if self.kind in ("moving_average", "savitzky_golay"):
            if self.window is None or self.window < 3 or self.window % 2 == 0:
                raise ConfigError(f"window must be odd and >= 3, got {self.window}")
        if self.kind == "savitzky_golay":
            if self.polyorder is None or not (0 <= self.polyorder < self.window):
                raise ConfigError(f"polyorder must satisfy 0 <= polyorder < window, got {self.polyorder}")
        if self.kind == "butterworth":
            if self.cutoff is None or not (0.0 < self.cutoff < 1.0):
                raise ConfigError(f"normalized cutoff must lie in (0, 1), got {self.cutoff}")
            if self.order < 1:
                raise ConfigError(f"order must be >= 1, got {self.order}")
        if self.kind == "gaussian":
            if self.sigma is None or not self.sigma > 0:
                raise ConfigError(f"sigma must be positive, got {self.sigma}")

    @classmethod
    def from_dict(cls, data: dict) -> "BaselineFilterSpec":
        try:
            return cls(**data)
        except TypeError as err:
            raise ConfigError(f"bad baseline spec {data}: {err}") from None


def default_specs() -> list[BaselineFilterSpec]:
    """Hyperparameters tuned for 81-layer windows with layer-scale dips."""
    return [
        BaselineFilterSpec(kind="savitzky_golay", window=5, polyorder=2),
        BaselineFilterSpec(kind="butterworth", cutoff=0.5, order=2),
        BaselineFilterSpec(kind="moving_average", window=3),
        BaselineFilterSpec(kind="gaussian", sigma=1.0),
    ]


def _reflect_convolve(values: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    half = kernel.size // 2
    if values.size <= half:
        raise DataError(f"series length {values.size} is too short for kernel size {kernel.size}")
    padded = np.pad(values, half, mode="reflect")
    return np.convolve(padded, kernel, mode="valid")


def apply_baseline_filter(series: SignalSeries, spec: BaselineFilterSpec) -> SignalSeries:
    """Smooth a layer series with one of the classical filters."""
    x = series.values
    if spec.kind in ("moving_average", "savitzky_golay") and x.size < spec.window:
        raise DataError(f"series length {x.size} is shorter than window {spec.window}")

    if spec.kind == "moving_average":
        kernel = np.full(spec.window, 1.0 / spec.window)
        y = _reflect_convolve(x, kernel)
    elif spec.kind == "gaussian":
        half = int(np.ceil(4.0 * spec.sigma))
        offsets = np.arange(-half, half + 1)
        kernel = np.exp(-0.5 * (offsets / spec.sigma) ** 2)
        kernel /= kernel.sum()
        y = _reflect_convolve(x, kernel)
    elif spec.kind == "butterworth":
        from scipy import signal as sps  # on first use: the import costs over a second

        b, a = sps.butter(spec.order, spec.cutoff, btype="low")
        padlen = min(3 * max(len(a), len(b)), x.size - 1)
        y = sps.filtfilt(b, a, x, padtype="even", padlen=padlen)
    else:  # savitzky_golay; scipy's "mirror" matches numpy's reflect padding
        from scipy import signal as sps

        y = sps.savgol_filter(x, spec.window, spec.polyorder, mode="mirror")

    return SignalSeries(
        sensor=series.sensor,
        condition=series.condition,
        layers=series.layers,
        values=y,
        metadata={**dict(series.metadata), "filtered": spec.kind},
    )
