"""Classical smoothing filters for the layer-series comparison.

All four are linear with unit DC gain. The Butterworth filter runs
forward-backward so no filter introduces phase lag: a lagging filter
would shift the detected dip onto the wrong layer. Edges use reflect
padding (no repeated edge sample) to avoid spurious boundary dips.

Savitzky-Golay and Butterworth are plain numpy. Their arithmetic follows
the usual reference implementation step for step (least-squares window
weights; prewarped bilinear design, steady-state initial conditions and
a forward-backward pass), and tests/test_baselines.py checks them
against it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, NumericError, check_int, check_real
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
            check_int("window", self.window)
            if self.window < 3 or self.window % 2 == 0:
                raise ConfigError(f"window must be odd and >= 3, got {self.window}")
        if self.kind == "savitzky_golay":
            check_int("polyorder", self.polyorder)
            if not (0 <= self.polyorder < self.window):
                raise ConfigError(f"polyorder must satisfy 0 <= polyorder < window, got {self.polyorder}")
        if self.kind == "butterworth":
            check_real("cutoff", self.cutoff)
            if not (0.0 < self.cutoff < 1.0):
                raise ConfigError(f"normalized cutoff must lie in (0, 1), got {self.cutoff}")
            check_int("order", self.order, minimum=1)
        if self.kind == "gaussian":
            check_real("sigma", self.sigma)
            if not (self.sigma > 0 and math.isfinite(4.0 * self.sigma)):
                raise ConfigError(f"sigma must be positive with a finite half-width 4*sigma, got {self.sigma}")

    def check_design(self) -> None:
        """Design a Butterworth spec (once per process, see _butter), which
        raises NumericError when the design is unstable; the other kinds
        need no design. Construction checks only types and ranges, so a spec
        that is never run costs no design."""
        if self.kind == "butterworth":
            _butter(self.order, self.cutoff)

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
    half = kernel.size // 2  # callers keep half < values.size
    return np.convolve(np.pad(values, half, mode="reflect"), kernel, mode="valid")


def _savgol_kernel(window: int, polyorder: int) -> np.ndarray:
    """Weights of the least-squares polynomial's value at the window centre,
    in convolution order (offsets reversed)."""
    half = window // 2
    offsets = np.arange(half, -half - 1, -1, dtype=float)
    vander = offsets ** np.arange(polyorder + 1).reshape(-1, 1)
    target = np.zeros(polyorder + 1)
    target[0] = 1.0
    return np.linalg.lstsq(vander, target, rcond=None)[0]


@functools.lru_cache
def _butter(order: int, cutoff: float) -> tuple[np.ndarray, np.ndarray]:
    """Digital low-pass Butterworth `b`, `a`: the analog prototype's poles,
    prewarped to `cutoff` and mapped by the bilinear transform at fs = 2.
    Each (order, cutoff) is designed once per process, since a spec is
    checked by designing it and then filtered with the design; `b` and `a`
    are shared, so they are read-only.

    The exact poles lie inside the unit circle, but at high order and low
    cutoff the rounded coefficients of `a` put roots on or outside it, and
    filtering with them diverges; such a design raises NumericError. So
    does a design whose gain or coefficients overflow, before any root is
    sought, so an order of thousands costs no eigenvalue solve.
    """
    unstable = f"butterworth of order {order} at cutoff {cutoff} is unstable"
    # overflow and NaN are reported by the checks below, so numpy's warnings
    # are not printed on the way
    with np.errstate(all="ignore"):
        warped = float(4.0 * np.tan(np.pi * cutoff / 2.0))
        poles = warped * -np.exp(1j * np.pi * np.arange(-order + 1, order, 2, dtype=float) / (2 * order))
        gain = np.float64(warped) ** order * np.real(1.0 / np.prod(4.0 - poles))
        if not np.isfinite(gain):
            raise NumericError(f"{unstable}: its gain is not finite; lower the order")
        b = gain * np.poly(-np.ones(order))
        a = np.poly((4.0 + poles) / (4.0 - poles))
        if not (np.all(np.isfinite(b)) and np.all(np.isfinite(a))):
            raise NumericError(f"{unstable}: its coefficients are not finite; lower the order")
        radius = float(np.abs(np.roots(a)).max())
    if radius >= 1.0:
        raise NumericError(
            f"{unstable}: its denominator has a root with |z| = {radius:.3g} >= 1; "
            f"lower the order or raise the cutoff"
        )
    b.flags.writeable = False
    a.flags.writeable = False
    return b, a


def _lfilter(b: list[float], a: list[float], x: np.ndarray, z: list[float]) -> np.ndarray:
    """One direct-form II transposed pass from state `z` (a[0] == 1)."""
    y = np.empty_like(x)
    last = len(z) - 1
    for k, xk in enumerate(x.tolist()):
        yk = z[0] + b[0] * xk
        for i in range(last):
            z[i] = z[i + 1] + xk * b[i + 1] - yk * a[i + 1]
        z[last] = xk * b[last + 1] - yk * a[last + 1]
        y[k] = yk
    return y


def _filtfilt(b: np.ndarray, a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Zero-phase forward-backward filtering over even (reflect) extension,
    each pass started from the step response's steady state."""
    m = a.size - 1
    companion = np.eye(m, k=-1)
    companion[0] = -a[1:]
    zi = np.linalg.solve(np.eye(m) - companion.T, b[1:] - a[1:] * b[0])
    padlen = min(3 * (m + 1), x.size - 1)
    ext = np.pad(x, padlen, mode="reflect")
    bl, al = b.tolist(), a.tolist()
    y = _lfilter(bl, al, ext, (zi * ext[0]).tolist())
    y = _lfilter(bl, al, y[::-1], (zi * y[-1]).tolist())[::-1]
    return y[padlen:y.size - padlen]


def apply_baseline_filter(series: SignalSeries, spec: BaselineFilterSpec) -> SignalSeries:
    """Smooth a layer series with one of the classical filters."""
    x = series.values
    if spec.kind in ("moving_average", "savitzky_golay") and x.size < spec.window:
        raise DataError(f"series length {x.size} is shorter than window {spec.window}")

    if spec.kind == "moving_average":
        kernel = np.full(spec.window, 1.0 / spec.window)
        y = _reflect_convolve(x, kernel)
    elif spec.kind == "gaussian":
        if 4.0 * spec.sigma > x.size - 1:  # the kernel's half-width reaches past the series
            raise DataError(f"series length {x.size} is too short for a gaussian of sigma {spec.sigma}")
        half = int(np.ceil(4.0 * spec.sigma))
        offsets = np.arange(-half, half + 1)
        kernel = np.exp(-0.5 * (offsets / spec.sigma) ** 2)
        kernel /= kernel.sum()
        y = _reflect_convolve(x, kernel)
    elif spec.kind == "butterworth":
        y = _filtfilt(*_butter(spec.order, spec.cutoff), x)
    else:  # savitzky_golay
        y = _reflect_convolve(x, _savgol_kernel(spec.window, spec.polyorder))

    return SignalSeries(layers=series.layers, values=y)
