"""Clocked simulation of spiking filter networks, many lanes at once.

Each step low-passes the raw input, drives every neuron through its
tuning, collects spikes, low-passes each neuron's spike train, and
decodes. Cascaded populations chain through one synapse per link, so a
chain of N populations applies N + 1 filter stages in total. Spikes are
scaled by 1/dt when converted to current so the filtered trains are
rate-equivalent (Hz) and match the units the decoders were solved in.

A run carries a leading lane axis: every lane is an independent input
series pushed through the same populations, with its own neuron state
and, optionally, its own synaptic time constants, so a whole tau sweep
is one step loop. Lanes never interact; each lane of a batched run is
bit-for-bit the run of that lane alone. Spikes are kept as packed bits
and turned into (neuron, time) events only when a raster is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .ensembles import Ensemble
from .errors import ConfigError
from .neurons import lif_step_arrays
from .synapses import Lowpass

SPIKE_BLOCK_BYTES = 1 << 20  # bound on the unpacked spike masks held between packs


@dataclass(frozen=True)
class SpikeRaster:
    """Spike events from one run: parallel arrays of neuron ids and times."""

    neuron_ids: np.ndarray
    times: np.ndarray
    n_neurons: int
    duration: float
    dt: float

    def __post_init__(self) -> None:
        if len(self.neuron_ids) != len(self.times):
            raise ConfigError("neuron_ids and times must have equal length")

    def spike_counts(self) -> np.ndarray:
        """Total spikes per neuron."""
        return np.bincount(self.neuron_ids, minlength=self.n_neurons)


@dataclass(frozen=True)
class SimResult:
    """Output of one run.

    A run of a 1-D input has `decoded` of shape (steps,) and `rates` of
    shape (steps x neurons); a lane-batched run adds a leading lane axis to
    both. `spikes` holds one bit per neuron and step, packed along the
    neuron axis: (steps, lanes, ceil(neurons / 8)).
    """

    decoded: np.ndarray
    spikes: np.ndarray
    n_neurons: int
    dt: float
    rates: np.ndarray | None = None  # filtered rates of the last stage

    def lane(self, b: int, steps: int | None = None) -> "SimResult":
        """Lane `b` as a single-lane result, cut to its first `steps` steps."""
        decoded = self.decoded if self.decoded.ndim == 1 else self.decoded[b]
        rates = self.rates if self.rates is None or self.rates.ndim == 2 else self.rates[b]
        cut = slice(None, steps)
        return SimResult(
            decoded=decoded[cut],
            spikes=self.spikes[cut, b : b + 1],
            n_neurons=self.n_neurons,
            dt=self.dt,
            rates=None if rates is None else rates[cut],
        )

    @cached_property
    def raster(self) -> SpikeRaster:
        """Spike events, built from the packed bits on first read.

        Events are ordered by step, then neuron id. In a lane-batched run
        the lanes sit side by side: neuron i of lane b has id
        b * n_neurons + i.
        """
        steps, lanes, _ = self.spikes.shape
        bits = np.unpackbits(self.spikes, axis=-1, count=self.n_neurons)
        k, ids = np.nonzero(bits.reshape(steps, lanes * self.n_neurons))
        return SpikeRaster(
            neuron_ids=ids.astype(np.int64),
            times=k * self.dt,
            n_neurons=lanes * self.n_neurons,
            duration=steps * self.dt,
            dt=self.dt,
        )


def simulate_cascade(
    ensembles: Sequence[Ensemble],
    inputs,
    dt: float,
    taus,
    record_rates: bool = False,
) -> SimResult:
    """Run a chain of populations over time-stepped input signals.

    `inputs` is one signal (steps,) or one per lane (lanes, steps). `taus`
    holds one synaptic time constant per connection: the input link, each
    inter-population link, and the output link (len(ensembles) + 1
    entries), shared by every lane, or one such row per lane
    (lanes x links). Neuron ids in the raster are offset per stage in chain
    order. Fully deterministic: no randomness enters the loop.

    The input link depends on the input alone, so it is filtered and
    clipped at the first radius for the whole series before the step loop.
    The loop then makes one LIF update and one output-synapse step per
    stage and step, on buffers allocated once per call.
    """
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim not in (1, 2) or not np.all(np.isfinite(inputs)):
        raise ValueError("inputs must be a finite 1-D signal or a (lanes, steps) array")
    if not dt > 0:
        raise ConfigError(f"dt must be positive, got {dt}")
    if len(ensembles) < 1:
        raise ConfigError("at least one population is required")
    n_stages = len(ensembles)
    lanes, n_steps = (1, inputs.size) if inputs.ndim == 1 else inputs.shape
    taus = np.asarray(taus, dtype=float)
    if taus.shape not in ((n_stages + 1,), (lanes, n_stages + 1)):
        raise ConfigError(
            f"expected {n_stages + 1} time constants for {n_stages} populations "
            f"(or one row of them per lane), got shape {taus.shape}"
        )
    if not np.all(taus > 0):
        raise ConfigError(f"time constants must be positive, got {taus.tolist()}")
    for e in ensembles:
        if len(e.decoders) != e.n_neurons:
            raise ConfigError(
                f"decoder length {len(e.decoders)} does not match "
                f"{e.n_neurons} neurons"
            )

    taus = np.broadcast_to(taus, (lanes, n_stages + 1))
    sizes = [e.n_neurons for e in ensembles]
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    n_total = int(bounds[-1])

    # the input synapse sees only the input, so its whole output is filtered
    # up front and stage 0's clipped input is three whole-array calls
    in_syn = Lowpass(taus[:, 0], dt, lanes)
    columns = inputs.reshape(lanes, n_steps).T
    x_in = np.empty((n_steps, lanes))
    for k in range(n_steps):
        x_in[k] = in_syn.step(columns[k])
    np.divide(x_in, ensembles[0].radius, out=x_in)
    np.maximum(x_in, -1.0, out=x_in)
    np.minimum(x_in, 1.0, out=x_in)

    # every loop buffer is allocated here and updated in place by the loop;
    # the unit spike current 1/dt is folded into each output synapse's gain,
    # so a synapse takes the bool spike mask as it is
    out_syns = [Lowpass(taus[:, s + 1], dt, (lanes, sizes[s])) for s in range(n_stages)]
    for syn in out_syns:
        syn.gain = syn.gain * (1.0 / dt)
    gain_enc = [e.gains * e.encoders for e in ensembles]
    v = [np.zeros((lanes, n)) for n in sizes]
    refr = [np.zeros((lanes, n)) for n in sizes]
    drive = [np.empty((lanes, n)) for n in sizes]
    x_norm = np.empty(lanes)
    x_mid = np.empty(lanes)  # decoded output of a stage that feeds the next

    decoded = np.empty((lanes, n_steps))
    rates = np.empty((lanes, n_steps, sizes[-1])) if record_rates else None
    spikes = np.empty((n_steps, lanes, (n_total + 7) // 8), dtype=np.uint8)
    # spike masks of `block` steps, all stages side by side, packed once per block
    block = max(1, min(n_steps, SPIKE_BLOCK_BYTES // max(1, lanes * n_total)))
    spiked = np.empty((block, lanes, n_total), dtype=bool)
    masks = [[spiked[i, :, bounds[s] : bounds[s + 1]] for s in range(n_stages)]
             for i in range(block)]

    in_cols, norm_col = x_in[:, :, None], x_norm[:, None]
    for k in range(n_steps):
        i = k % block
        for s, e in enumerate(ensembles):
            if s:
                np.divide(x, e.radius, out=x_norm)
                np.maximum(x_norm, -1.0, out=x_norm)
                np.minimum(x_norm, 1.0, out=x_norm)
            np.multiply(gain_enc[s], norm_col if s else in_cols[k], out=drive[s])
            drive[s] += e.biases
            mask = masks[i][s]
            lif_step_arrays(v[s], refr[s], drive[s], dt, mask)
            r = out_syns[s].step(mask)
            # one dot product per lane row: vecdot runs the same per-row dot
            # as a one-lane run, where a single (lanes x n) @ (n,) product
            # sums in a different order and drifts from it
            x = np.vecdot(r, e.decoders, out=decoded[:, k] if s == n_stages - 1 else x_mid)
        if rates is not None:
            rates[:, k] = r
        if i == block - 1 or k == n_steps - 1:
            spikes[k - i : k + 1] = np.packbits(spiked[: i + 1], axis=-1)

    if inputs.ndim == 1:
        decoded = decoded[0]
        rates = None if rates is None else rates[0]
    return SimResult(decoded=decoded, spikes=spikes, n_neurons=n_total, dt=dt, rates=rates)
