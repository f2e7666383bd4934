"""Leaky integrate-and-fire neuron dynamics.

The membrane potential relaxes exponentially toward the steady level set
by the driving current; crossing the threshold emits a spike, resets the
potential, and starts the refractory period. Defaults use the normalized
convention (rest 0, threshold 1, unit leak conductance), so the drive J
is dimensionless and J = 1 sits exactly at the firing threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class LifParams:
    """Membrane constants of a LIF neuron.

    tau_rc   membrane time constant (s)
    tau_ref  absolute refractory period (s)
    v_th     spike threshold
    e_l      leak reversal, also the post-spike reset level
    g_l      leak conductance
    i_spk    magnitude of the emitted spike current
    """

    tau_rc: float = 0.02
    tau_ref: float = 0.002
    v_th: float = 1.0
    e_l: float = 0.0
    g_l: float = 1.0
    i_spk: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.tau_rc) and self.tau_rc > 0):
            raise ConfigError(f"tau_rc must be positive, got {self.tau_rc}")
        if not (math.isfinite(self.tau_ref) and self.tau_ref >= 0):
            raise ConfigError(f"tau_ref must be non-negative, got {self.tau_ref}")
        if not self.v_th > self.e_l:
            raise ConfigError(f"v_th ({self.v_th}) must exceed e_l ({self.e_l})")
        if not self.g_l > 0:
            raise ConfigError(f"g_l must be positive, got {self.g_l}")
        if not self.i_spk > 0:
            raise ConfigError(f"i_spk must be positive, got {self.i_spk}")

    @property
    def rate_ceiling(self) -> float:
        """Highest achievable firing rate (Hz), set by the refractory period."""
        return math.inf if self.tau_ref == 0 else 1.0 / self.tau_ref


@dataclass
class LifState:
    """Per-neuron integration state."""

    v: float = 0.0
    refractory_remaining: float = 0.0


def lif_rate(j, p: LifParams | None = None):
    """Steady-state firing rate (Hz) for a constant normalized drive j.

    Zero at or below threshold (j <= 1); above it the rate is
    1 / (tau_ref + tau_rc * ln(1 + 1/(j - 1))), strictly increasing in j
    and approaching 1/tau_ref from below. Accepts scalars or arrays.
    """
    p = p if p is not None else LifParams()
    arr = np.asarray(j, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("drive must be finite")
    with np.errstate(all="ignore"):
        isi = p.tau_ref + p.tau_rc * np.log1p(1.0 / (arr - 1.0))
        out = np.where(arr > 1.0, 1.0 / isi, 0.0)
    if np.ndim(j) == 0:
        return float(out)
    return out


def lif_step_arrays(
    v: np.ndarray,
    refr: np.ndarray,
    j: np.ndarray,
    dt: float,
    p: LifParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized one-step LIF update; returns (v_next, refr_next, spiked).

    Integrates the exact exponential solution over the part of the step not
    consumed by the refractory period. A threshold crossing inside the step
    is located analytically, and the refractory clock starts at the crossing
    rather than at the step edge, so spike timing does not inherit the step
    quantization. Inputs are not modified.
    """
    span = p.v_th - p.e_l
    v_ss = p.e_l + j * span
    delta = np.minimum(np.maximum(dt - refr, 0.0), dt)
    v_next = v_ss + (v - v_ss) * np.exp(-delta / p.tau_rc)
    # floor at the rest level: without it, strongly inhibited neurons charge
    # far below rest and take tens of ms to recover when the drive returns,
    # smearing the response past sudden signal steps
    v_next = np.maximum(v_next, p.e_l)
    refr_next = np.maximum(refr - dt, 0.0)
    spiked = v_next > p.v_th
    if spiked.any():
        # time between the crossing and the end of the step
        overshoot = (v_next[spiked] - p.v_th) / (v_ss[spiked] - p.v_th)
        t_after = -p.tau_rc * np.log1p(-overshoot)
        refr_next[spiked] = np.maximum(p.tau_ref - t_after, 0.0)
        v_next[spiked] = p.e_l
    return v_next, refr_next, spiked


def lif_step(
    state: LifState, j: float, dt: float, p: LifParams | None = None
) -> tuple[LifState, bool]:
    """Advance one neuron by one timestep; returns (new state, spiked)."""
    p = p if p is not None else LifParams()
    if not (math.isfinite(j) and math.isfinite(dt) and dt > 0):
        raise ValueError(f"invalid step inputs: j={j}, dt={dt}")
    v, refr, spiked = lif_step_arrays(
        np.array([state.v]),
        np.array([state.refractory_remaining]),
        np.array([j]),
        dt,
        p,
    )
    new_state = LifState(v=float(v[0]), refractory_remaining=float(refr[0]))
    return new_state, bool(spiked[0])
