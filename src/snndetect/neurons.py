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


def _constant(value: float) -> np.ndarray:
    """A read-only 0-d float64 array: a cheaper ufunc operand than a Python float."""
    arr = np.array(value, dtype=float)
    arr.flags.writeable = False
    return arr


# the step's ufunc operands, converted once here rather than on every call
_ZERO = _constant(0.0)
_ONE = _constant(1.0)
_NEG_TAU_RC = _constant(-TAU_RC)
_TAU_REF = _constant(TAU_REF)


def lif_rate(j):
    """Steady-state firing rate (Hz) for a constant normalized drive j.

    Zero at or below threshold (j <= 1); above it the rate is
    1 / (TAU_REF + TAU_RC * ln(1 + 1/(j - 1))), strictly increasing in j
    and approaching 1/TAU_REF from below. Accepts scalars or arrays.
    """
    arr = np.asarray(j, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("drive must be finite")
    # the closed form is evaluated only above threshold, where it is finite
    out = np.zeros(arr.shape)
    above = arr > 1.0
    out[above] = 1.0 / (TAU_REF + TAU_RC * np.log1p(1.0 / (arr[above] - 1.0)))
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
    dt: float | np.ndarray,
    spiked: np.ndarray | None = None,
    decay: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized one-step LIF update, in place; returns (v, refr, spiked).

    Integrates the exact exponential solution over the part of the step not
    consumed by the refractory period. A threshold crossing inside the step
    is located analytically, and the refractory clock starts at the crossing
    rather than at the step edge, so spike timing does not inherit the step
    quantization. `v` and `refr` are overwritten with the next state; `j` is
    not modified. `dt` may be a float or a 0-d float64 array; a loop that
    passes the 0-d array spares each ufunc call the conversion of a Python
    scalar, with identical results.

    Two optional buffers of the state's shape take the step's arrays: the
    spike mask goes into `spiked` (bool) and the decay factor into `decay`
    (float64); each is allocated when omitted. With both given, a step
    allocates no array of the state's shape; the only temporaries are the
    gathered entries of the neurons that spiked. Either buffer may be a
    strided view.

    Preconditions: `v` and `refr` are C-contiguous, since the spike reset
    writes them through flat views (a ValueError names the one that is
    not); and `refr >= 0`, as the step leaves it. Then the integrated part
    of the step, max(dt - refr, 0), never exceeds dt, and one difference
    s = dt - refr gives both it and the refractory time left,
    max(s, 0) - s, which equals max(refr - dt, 0) exactly (IEEE subtraction
    is antisymmetric), signed zeros included.
    """
    for name, arr in (("v", v), ("refr", refr)):
        if not arr.flags.c_contiguous:
            raise ValueError(f"{name} must be C-contiguous: the spike reset writes it through a flat view")
    np.subtract(dt, refr, out=refr)  # refr holds s for the next two lines
    decay = np.maximum(refr, _ZERO, out=decay)  # the integrated part of the step
    np.subtract(decay, refr, out=refr)
    np.divide(decay, _NEG_TAU_RC, out=decay)
    np.exp(decay, out=decay)
    v -= j
    v *= decay
    v += j
    # floor at the rest level: without it, strongly inhibited neurons charge
    # far below rest and take tens of ms to recover when the drive returns,
    # smearing the response past sudden signal steps
    np.maximum(v, _ZERO, out=v)
    spiked = np.greater(v, _ONE, out=spiked)
    hit = spiked.ravel().nonzero()[0]
    if hit.size:
        # the time between the crossing and the end of the step,
        # -TAU_RC * log1p(-overshoot), sets the refractory time left;
        # 1 - v is -(v - 1) exactly, so t ends up as -overshoot. v and refr
        # are C-contiguous, so their ravel() views alias them
        vf = v.ravel()
        t = vf[hit]
        np.subtract(_ONE, t, out=t)
        jh = j.ravel()[hit]
        jh -= _ONE
        t /= jh
        np.log1p(t, out=t)
        t *= _NEG_TAU_RC
        np.subtract(_TAU_REF, t, out=t)
        np.maximum(t, _ZERO, out=t)
        refr.ravel()[hit] = t
        vf[hit] = 0.0
    return v, refr, spiked
