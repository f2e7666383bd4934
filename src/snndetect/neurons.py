"""Leaky integrate-and-fire neuron dynamics.

The membrane potential relaxes exponentially toward the steady level set
by the driving current; crossing the threshold emits a spike, resets the
potential, and starts the refractory period. The model is fixed: the
Nengo LIF defaults (TAU_RC, TAU_REF) in the normalized convention (rest
and reset 0, threshold 1, unit leak conductance, unit spike current), so
the drive J is dimensionless and J = 1 sits exactly at the firing
threshold.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

TAU_RC = 0.02  # membrane time constant (s)
TAU_REF = 0.002  # absolute refractory period (s); caps rates below 1 / TAU_REF


def lif_rate(j):
    """Steady-state firing rate (Hz) for a constant normalized drive j.

    Zero at or below threshold (j <= 1); above it the rate is
    1 / (TAU_REF + TAU_RC * ln(1 + 1/(j - 1))), strictly increasing in j
    and approaching 1/TAU_REF from below. Accepts scalars or arrays.
    """
    arr = np.asarray(j, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("drive must be finite")
    with np.errstate(all="ignore"):
        isi = TAU_REF + TAU_RC * np.log1p(1.0 / (arr - 1.0))
        out = np.where(arr > 1.0, 1.0 / isi, 0.0)
    if np.ndim(j) == 0:
        return float(out)
    return out


def drive_for_rate(rate):
    """Normalized drive at which the steady firing rate equals `rate` (Hz).

    Inverse of lif_rate; requires 0 < rate < 1/TAU_REF.
    """
    arr = np.asarray(rate, dtype=float)
    if not np.all((arr > 0) & (arr < 1.0 / TAU_REF)):
        raise ConfigError(f"rates must lie in (0, {1.0 / TAU_REF}) Hz")
    j = 1.0 + 1.0 / np.expm1((1.0 / arr - TAU_REF) / TAU_RC)
    if np.ndim(rate) == 0:
        return float(j)
    return j


def lif_step_arrays(
    v: np.ndarray,
    refr: np.ndarray,
    j: np.ndarray,
    dt: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized one-step LIF update; returns (v_next, refr_next, spiked).

    Integrates the exact exponential solution over the part of the step not
    consumed by the refractory period. A threshold crossing inside the step
    is located analytically, and the refractory clock starts at the crossing
    rather than at the step edge, so spike timing does not inherit the step
    quantization. Inputs are not modified.
    """
    delta = np.minimum(np.maximum(dt - refr, 0.0), dt)
    v_next = j + (v - j) * np.exp(-delta / TAU_RC)
    # floor at the rest level: without it, strongly inhibited neurons charge
    # far below rest and take tens of ms to recover when the drive returns,
    # smearing the response past sudden signal steps
    v_next = np.maximum(v_next, 0.0)
    refr_next = np.maximum(refr - dt, 0.0)
    spiked = v_next > 1.0
    if spiked.any():
        # time between the crossing and the end of the step
        overshoot = (v_next[spiked] - 1.0) / (j[spiked] - 1.0)
        t_after = -TAU_RC * np.log1p(-overshoot)
        refr_next[spiked] = np.maximum(TAU_REF - t_after, 0.0)
        v_next[spiked] = 0.0
    return v_next, refr_next, spiked
