"""Population construction: encoders, tuning curves, and linear decoders.

A population of LIF neurons represents a scalar value x over
[-radius, radius]. Each neuron sees the normalized drive

    J(x) = gain * encoder * (x / radius) + bias

with gain and bias solved so that firing starts exactly at the sampled
intercept (J = 1 there) and the rate at the far end of the representable
range equals the sampled maximum rate. The normalized input x / radius
is clipped to [-1, 1], the range the tunings are calibrated over, so
excursions beyond the radius saturate the population response and drop
out of the decoded signal.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import ConfigError, NumericError, check_int, check_real
from .neurons import LifParams, lif_rate


@dataclass(frozen=True)
class EnsembleConfig:
    n_neurons: int = 500
    radius: float = 1100.0
    lif: LifParams = field(default_factory=LifParams)
    intercept_range: tuple[float, float] = (-0.95, 0.95)
    max_rate_range: tuple[float, float] = (200.0, 400.0)
    decode_points: int = 1000
    decode_reg: float = 0.1

    def __post_init__(self) -> None:
        check_int("n_neurons", self.n_neurons, 1)
        check_int("decode_points", self.decode_points, 1)
        for name in ("radius", "decode_reg"):
            check_real(name, getattr(self, name))
        if not self.radius > 0:
            raise ConfigError(f"radius must be positive, got {self.radius}")
        lo, hi = self.intercept_range
        if not (-1.0 <= lo <= hi < 1.0):
            raise ConfigError(f"intercept range must lie within [-1, 1), got {self.intercept_range}")
        rlo, rhi = self.max_rate_range
        if not (0.0 < rlo <= rhi):
            raise ConfigError(f"max-rate range must be positive and non-empty, got {self.max_rate_range}")
        if rhi >= self.lif.rate_ceiling:
            raise ConfigError(
                f"max rate {rhi} Hz is unreachable: refractory period caps rates at "
                f"{self.lif.rate_ceiling} Hz"
            )
        if self.decode_reg < 0:
            raise ConfigError(f"decode_reg must be >= 0, got {self.decode_reg}")


@dataclass(frozen=True)
class Ensemble:
    """A built population; immutable and safe to share between runs."""

    config: EnsembleConfig
    seed: int
    encoders: np.ndarray
    gains: np.ndarray
    biases: np.ndarray
    intercepts: np.ndarray
    max_rates: np.ndarray
    decoders: np.ndarray

    @property
    def n_neurons(self) -> int:
        return self.config.n_neurons

    @property
    def radius(self) -> float:
        return self.config.radius

    @property
    def lif(self) -> LifParams:
        return self.config.lif

    def drive(self, x: float) -> np.ndarray:
        """Normalized per-neuron drive for a raw input value (receptive
        field clipped at the radius)."""
        x_norm = np.clip(x / self.radius, -1.0, 1.0)
        return self.gains * self.encoders * x_norm + self.biases


def drive_for_rate(rate, p: LifParams):
    """Normalized drive at which the steady firing rate equals `rate` (Hz).

    Inverse of lif_rate; requires 0 < rate < 1/tau_ref.
    """
    arr = np.asarray(rate, dtype=float)
    if np.any(arr <= 0) or np.any(arr >= p.rate_ceiling):
        raise ConfigError(f"rates must lie in (0, {p.rate_ceiling}) Hz")
    j = 1.0 + 1.0 / np.expm1((1.0 / arr - p.tau_ref) / p.tau_rc)
    if np.ndim(rate) == 0:
        return float(j)
    return j


def build_ensemble(config: EnsembleConfig | None = None, seed: int = 0) -> Ensemble:
    """Sample tunings and solve identity decoders; deterministic per seed.

    Encoders are +-1 with equal probability, intercepts and max rates
    uniform over their configured ranges. Gain and bias follow from the
    two calibration constraints (threshold at the intercept, max rate at
    the end of the range).
    """
    config = config if config is not None else EnsembleConfig()
    rng = np.random.default_rng(seed)
    n = config.n_neurons
    encoders = rng.choice(np.array([-1.0, 1.0]), size=n)
    lo, hi = config.intercept_range
    intercepts = rng.uniform(lo, hi, size=n)
    rlo, rhi = config.max_rate_range
    max_rates = rng.uniform(rlo, rhi, size=n)

    j_max = drive_for_rate(max_rates, config.lif)
    gains = (j_max - 1.0) / (1.0 - intercepts)
    biases = 1.0 - gains * intercepts

    ens = Ensemble(
        config=config,
        seed=seed,
        encoders=encoders,
        gains=gains,
        biases=biases,
        intercepts=intercepts,
        max_rates=max_rates,
        decoders=np.zeros(n),
    )
    decoders = solve_decoders(ens, target=lambda x: x)
    return replace(ens, decoders=decoders)


def tuning_curves(e: Ensemble, xs) -> np.ndarray:
    """Steady-state rates (neurons x points) at the given raw input values."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if not np.all(np.isfinite(xs)):
        raise ValueError("evaluation points must be finite")
    x_norm = np.clip(xs / e.radius, -1.0, 1.0)
    drive = e.gains[:, None] * e.encoders[:, None] * x_norm[None, :] + e.biases[:, None]
    return lif_rate(drive, e.lif)


def solve_decoders(
    e: Ensemble,
    target: Callable[[np.ndarray], np.ndarray],
    n_eval: int | None = None,
    reg: float | None = None,
) -> np.ndarray:
    """Ridge-regularized least-squares decode weights for target(x).

    Activities are evaluated on a uniform grid over the representable range
    and the weights minimize ||A d - y||^2 + n_eval * sigma^2 * ||d||^2 with
    sigma = reg * max(A), so `reg` is a dimensionless noise fraction.
    """
    n_eval = n_eval if n_eval is not None else e.config.decode_points
    reg = reg if reg is not None else e.config.decode_reg
    if n_eval < 1:
        raise ConfigError(f"n_eval must be >= 1, got {n_eval}")
    if reg < 0:
        raise ConfigError(f"reg must be >= 0, got {reg}")
    xs = np.linspace(-e.radius, e.radius, n_eval)
    a = tuning_curves(e, xs).T  # points x neurons
    y = np.asarray(target(xs), dtype=float)
    if y.shape != xs.shape:
        y = np.array([float(target(x)) for x in xs])
    sigma = reg * (a.max() if a.size else 0.0)
    gram = a.T @ a + n_eval * sigma**2 * np.eye(e.n_neurons)
    rhs = a.T @ y
    try:
        d = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as err:
        raise NumericError(
            f"decoder solve failed for {e.n_neurons} neurons, {n_eval} points, "
            f"reg={reg} (peak activity {a.max() if a.size else 0.0:.3g} Hz): {err}"
        ) from err
    if not np.all(np.isfinite(d)):
        raise NumericError(
            f"decoder solve produced non-finite weights (reg={reg}); "
            "the activity matrix is likely ill-conditioned"
        )
    return d
