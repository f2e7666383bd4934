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

import math
import mmap
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericError
from .neurons import drive_for_rate, lif_rate

INTERCEPT_RANGE = (-0.95, 0.95)  # normalized input where each neuron starts firing
MAX_RATE_RANGE = (200.0, 400.0)  # rate (Hz) at the end of each neuron's range
DECODE_POINTS = 1000  # uniform grid over [-radius, radius] for the decoder solve
DECODE_REG = 0.1  # ridge noise, as a fraction of the peak activity
TABLE_CHUNK_BYTES = 1 << 18  # bytes of tuning-table rows filled per lif_rate call


@dataclass(frozen=True)
class Ensemble:
    """A built population; immutable and safe to share between runs."""

    n_neurons: int
    radius: float
    seed: int
    encoders: np.ndarray
    gains: np.ndarray
    biases: np.ndarray
    intercepts: np.ndarray
    max_rates: np.ndarray
    decoders: np.ndarray


@lru_cache(maxsize=32, typed=True)
def build_ensemble(n_neurons: int, radius: float, seed: int) -> Ensemble:
    """Sample tunings and solve identity decoders; deterministic per seed.

    Encoders are +-1 with equal probability, intercepts and max rates
    uniform over INTERCEPT_RANGE and MAX_RATE_RANGE. Gain and bias follow
    from the two calibration constraints (threshold at the intercept, max
    rate at the end of the range).

    Builds are memoised per (n_neurons, radius, seed) within a process:
    equal arguments return the same Ensemble, whose arrays are read-only.
    """
    rng = np.random.default_rng(seed)
    encoders = rng.choice(np.array([-1.0, 1.0]), size=n_neurons)
    intercepts = rng.uniform(*INTERCEPT_RANGE, size=n_neurons)
    max_rates = rng.uniform(*MAX_RATE_RANGE, size=n_neurons)

    j_max = drive_for_rate(max_rates)
    gains = (j_max - 1.0) / (1.0 - intercepts)
    biases = 1.0 - gains * intercepts

    xs = np.linspace(-radius, radius, DECODE_POINTS)
    # the table is an argument only, so it is freed before the solve copies the Gram
    decoders = _solve(*_normal_equations(_rates(gains * encoders, biases, xs / radius), xs))
    arrays = dict(
        encoders=encoders,
        gains=gains,
        biases=biases,
        intercepts=intercepts,
        max_rates=max_rates,
        decoders=decoders,
    )
    for arr in arrays.values():
        arr.flags.writeable = False
    return Ensemble(n_neurons=n_neurons, radius=radius, seed=seed, **arrays)


def _rates(gain_enc: np.ndarray, biases: np.ndarray, x_norm: np.ndarray) -> np.ndarray:
    """Steady-state rates (neurons x points) at normalized inputs, clipped to [-1, 1].

    The table is allocated once and filled TABLE_CHUNK_BYTES of rows at a
    time, so the drive and lif_rate's temporaries are chunk-sized. Every
    element gets the arithmetic of one whole-table lif_rate call.
    """
    x_norm = np.clip(x_norm, -1.0, 1.0)
    # a mapping of its own, not malloc: glibc raises its mmap threshold to
    # the size of a freed mmapped block, so a freed 4 MB table would leave
    # every later build's table and Gram resident on the brk heap
    table = shared_array((len(biases), len(x_norm)), np.float64)
    rows = max(1, TABLE_CHUNK_BYTES // max(1, table.itemsize * len(x_norm)))
    for start in range(0, len(table), rows):
        chunk = slice(start, start + rows)
        table[chunk] = lif_rate(gain_enc[chunk, None] * x_norm[None, :] + biases[chunk, None])
    return table


def shared_array(shape, dtype) -> np.ndarray:
    """A zeroed array viewing an anonymous shared mapping of its own, which
    is unmapped when the array is freed and which a forked child writes
    into as well."""
    count = math.prod(shape)
    # mmap rejects a length of 0, as a run of no steps would ask for
    buf = mmap.mmap(-1, max(1, count * np.dtype(dtype).itemsize))
    return np.frombuffer(buf, dtype, count).reshape(shape)


def _normal_equations(table: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, int]:
    """The ridge Gram, the right-hand side, the peak activity and the number
    of points, from the rate table (neurons x points) measured at xs. The
    decoders d they give minimize ||A d - x||^2 + n_eval * sigma^2 * ||d||^2
    over the n_eval points, with sigma = DECODE_REG * max(A), so DECODE_REG
    is a dimensionless noise fraction.

    Both products run over the whole table, through its transposed view
    `a` (points x neurons): their bits depend on the BLAS call, so they are
    never split over points. The ridge term is added on the diagonal in
    place: the same values as adding ridge * eye(n).
    """
    a = table.T
    n_eval, n_neurons = a.shape
    peak = a.max()
    sigma = DECODE_REG * peak
    gram = a.T @ a
    gram.flat[:: n_neurons + 1] += n_eval * sigma**2
    return gram, a.T @ xs, peak, n_eval


def _solve(gram: np.ndarray, rhs: np.ndarray, peak: float, n_eval: int) -> np.ndarray:
    """Decoders from the normal equations; NumericError when the solve fails."""
    try:
        d = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as err:
        raise NumericError(
            f"decoder solve failed for {len(gram)} neurons, {n_eval} points "
            f"(peak activity {peak:.3g} Hz): {err}"
        ) from err
    if not np.all(np.isfinite(d)):
        raise NumericError(
            "decoder solve produced non-finite weights; "
            "the activity matrix is likely ill-conditioned"
        )
    return d
