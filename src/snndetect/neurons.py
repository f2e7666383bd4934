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
    spiked: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized one-step LIF update, in place; returns (v, refr, spiked).

    Integrates the exact exponential solution over the part of the step not
    consumed by the refractory period. A threshold crossing inside the step
    is located analytically, and the refractory clock starts at the crossing
    rather than at the step edge, so spike timing does not inherit the step
    quantization. `v` and `refr` are overwritten with the next state and the
    spike mask is written into `spiked`, a bool array of the same shape
    (allocated when omitted); `j` is not modified.
    """
    decay = np.subtract(dt, refr)
    np.maximum(decay, 0.0, out=decay)
    np.minimum(decay, dt, out=decay)  # the integrated part of the step
    np.negative(decay, out=decay)
    decay /= TAU_RC
    np.exp(decay, out=decay)
    v -= j
    v *= decay
    v += j
    # floor at the rest level: without it, strongly inhibited neurons charge
    # far below rest and take tens of ms to recover when the drive returns,
    # smearing the response past sudden signal steps
    np.maximum(v, 0.0, out=v)
    refr -= dt
    np.maximum(refr, 0.0, out=refr)
    spiked = np.greater(v, 1.0, out=spiked)
    hit = np.flatnonzero(spiked)
    if hit.size:
        # time between the crossing and the end of the step
        overshoot = (v.take(hit) - 1.0) / (j.take(hit) - 1.0)
        t_after = -TAU_RC * np.log1p(-overshoot)
        refr.put(hit, np.maximum(TAU_REF - t_after, 0.0))
        v.put(hit, 0.0)
    return v, refr, spiked
