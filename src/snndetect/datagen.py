"""Synthetic layer-wise photodiode series.

A healthy build is a flat emission baseline plus Gaussian layer noise
plus large positive spikes on the layers where lattice struts join
(every junction_period-th layer number). A defective build subtracts a
dip proportional to the commanded laser-power reduction on the affected
layers; the junction term is untouched because strut joins keep melting
regardless of the power drop along the sidewalls. Values are clipped at
zero, since a photodiode cannot report negative emission.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_int, check_real
from .pipeline import SignalSeries

# PD2/BD channels are markedly noisier than PD1; these are synthetic stand-ins,
# not calibrated to any real sensor.
NOISE_STD = {"PD1": 20.0, "PD2": 60.0, "BD": 60.0}


@dataclass(frozen=True)
class GenParams:
    layer_range: tuple[int, int] = (570, 650)  # inclusive
    baseline_level: float = 1000.0
    noise_std: float = 20.0
    junction_spike_amplitude: float = 600.0
    junction_period: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        check_int("seed", self.seed, 0)
        check_int("junction_period", self.junction_period, 1)
        for bound in self.layer_range:
            check_int("layer_range bound", bound)
        for name in ("baseline_level", "noise_std", "junction_spike_amplitude"):
            check_real(name, getattr(self, name))
        if not self.baseline_level > 0:
            raise ConfigError(f"baseline_level must be positive, got {self.baseline_level}")
        if self.noise_std < 0:
            raise ConfigError(f"noise_std must be >= 0, got {self.noise_std}")
        lo, hi = self.layer_range
        if lo > hi:
            raise ConfigError(f"layer_range must be non-empty, got {self.layer_range}")


@dataclass(frozen=True)
class DefectSpec:
    start_layer: int = 613
    n_layers: int = 7
    power_reduction_percent: float = 66.0
    dip_fraction: float = 1.0  # signal drop per unit of power reduction

    def __post_init__(self) -> None:
        check_int("start_layer", self.start_layer)
        check_int("n_layers", self.n_layers, 1)
        for name in ("power_reduction_percent", "dip_fraction"):
            check_real(name, getattr(self, name))
        if not (0.0 <= self.dip_depth <= 1.0):
            raise ConfigError(
                f"dip_fraction * reduction must stay within the signal range, got {self.dip_depth}"
            )

    @property
    def layers(self) -> range:
        return range(self.start_layer, self.start_layer + self.n_layers)

    @property
    def dip_depth(self) -> float:
        """Fraction of the baseline removed on defect layers."""
        return self.dip_fraction * self.power_reduction_percent / 100.0


def _raw_healthy(p: GenParams) -> tuple[np.ndarray, np.ndarray]:
    """Layer numbers and pre-clip healthy values (shared noise draw)."""
    lo, hi = p.layer_range
    layers = np.arange(lo, hi + 1)
    rng = np.random.default_rng(p.seed)
    noise = rng.normal(0.0, p.noise_std, size=layers.size)
    junction = p.junction_spike_amplitude * (layers % p.junction_period == 0)
    with np.errstate(over="ignore"):  # SignalSeries rejects the non-finite sums
        return layers, p.baseline_level + junction + noise


def gen_healthy(p: GenParams) -> SignalSeries:
    """Deterministic synthetic series for a build with no defects."""
    layers, values = _raw_healthy(p)
    return SignalSeries(layers=layers, values=np.clip(values, 0.0, None))


def gen_defective(p: GenParams, d: DefectSpec) -> SignalSeries:
    """Same build as gen_healthy(p) with the power-reduction dip applied.

    Sharing p.seed with gen_healthy reproduces the identical noise and
    junction draws, so the two series differ by exactly the dip term
    (wherever the zero clip does not bind).
    """
    lo, hi = p.layer_range
    if d.start_layer < lo or d.start_layer + d.n_layers - 1 > hi:
        raise ConfigError(
            f"defect layers {d.start_layer}..{d.start_layer + d.n_layers - 1} fall "
            f"outside the series window {lo}..{hi}"
        )
    layers, values = _raw_healthy(p)
    dip = np.isin(layers, list(d.layers)) * p.baseline_level * d.dip_depth
    return SignalSeries(layers=layers, values=np.clip(values - dip, 0.0, None))
