"""Clocked simulation of spiking filter networks, many lanes at once.

Each step low-passes the raw input, drives every neuron through its
tuning, collects spikes, low-passes each neuron's spike train, and
decodes. Cascaded populations chain through one synapse per link, so a
chain of N populations applies N + 1 filter stages in total. Spikes are
scaled by 1/dt when converted to current so the filtered trains are
rate-equivalent (Hz) and match the units the decoders were solved in.

The model is clocked per step, but only the LIF update is computed step
by step. The input link reads only the input, so each lane's series is
filtered before the loop, as one recurrence on Python floats. A cascade is
feed-forward: a stage never reads a later one. So within a block of steps
each stage runs all the block's steps before the next stage starts, and
its output link, which reads only its spikes, filters the whole block at
once. Both use the same arithmetic as a per-step filter, and so give the
same doubles.

A run carries a leading lane axis: every lane is an independent input
series pushed through the same populations, with its own neuron state
and its own row of synaptic time constants, so a whole tau sweep is one
step loop. Lanes never interact; each lane of a batched run is
bit-for-bit the run of that lane alone. Spikes are kept as packed bits;
per-neuron totals are counted straight from them, and (neuron, time)
events are built only when a raster is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .ensembles import Ensemble
from .errors import ConfigError, check_int
from .neurons import lif_step_arrays
from .synapses import Lowpass, lowpass_series

# bound on one block of the step loop: the unpacked spike masks held between
# packs, plus one float64 buffer as wide as the widest stage that holds each
# stage's drive for the block's steps and then its filtered output rows (a
# cascade also packs from a transient side-by-side copy of its masks)
SPIKE_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class SpikeRaster:
    """Spike events from one run: parallel arrays of neuron ids and times."""

    neuron_ids: np.ndarray
    times: np.ndarray
    n_neurons: int
    duration: float

    def __post_init__(self) -> None:
        if len(self.neuron_ids) != len(self.times):
            raise ConfigError("neuron_ids and times must have equal length")


@dataclass(frozen=True)
class SimResult:
    """Output of one run.

    A run has `decoded` of shape (lanes, steps) and, when it was given step
    windows, `rates` of shape (lanes, neurons): each lane's filtered rates
    of the last stage, averaged over its window. A single lane (see `lane`)
    drops the lane axis from both. `spikes` holds one bit per neuron and
    step, packed along the neuron axis: (steps, lanes, ceil(neurons / 8)).
    """

    decoded: np.ndarray
    spikes: np.ndarray
    n_neurons: int
    dt: float
    rates: np.ndarray | None = None  # window-mean filtered rates of the last stage

    def lane(self, b: int, steps: int | None = None) -> "SimResult":
        """Lane `b` as a single-lane result, cut to its first `steps` steps
        (its window mean is kept whole)."""
        cut = slice(None, steps)
        return SimResult(
            decoded=self.decoded[b, cut],
            spikes=self.spikes[cut, b : b + 1],
            n_neurons=self.n_neurons,
            dt=self.dt,
            rates=None if self.rates is None else self.rates[b],
        )

    def spike_counts(self) -> np.ndarray:
        """Total spikes per neuron, in the raster's id order.

        Counted from the packed bits without building events: equal to
        np.bincount(raster.neuron_ids, minlength=raster.n_neurons).
        """
        lanes = self.spikes.shape[1]
        bits = np.unpackbits(self.spikes, axis=-1, count=self.n_neurons)
        return bits.sum(axis=0, dtype=np.int64).reshape(lanes * self.n_neurons)

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
        )


def simulate_cascade(
    ensembles: Sequence[Ensemble],
    inputs,
    dt: float,
    taus,
    windows: Sequence[tuple[int, int]] | None = None,
) -> SimResult:
    """Run a chain of populations over time-stepped input signals.

    `inputs` holds one signal per lane, (lanes, steps). `taus` holds one
    row of synaptic time constants per lane (lanes x links), one per
    connection: the input link, each inter-population link, and the output
    link (len(ensembles) + 1 links). Neuron ids in the raster are offset
    per stage in chain order. Fully deterministic: no randomness enters the
    loop.

    The input link depends on the input alone, so before the step loop
    each lane's series is filtered as one recurrence on Python floats
    (`lowpass_series`), with no numpy call per step, and the whole input is
    then clipped at the first radius. `dt` and every time constant must be
    positive and finite. The loop runs in blocks of steps, on buffers
    allocated once per call, and within a block stage by stage. A stage's
    drive for the whole block is computed in two calls from its input:
    the clipped input for stage 0, the previous stage's decoded output for
    a later one. One LIF update per step is the only per-step work. Then
    the stage's output synapse runs over the block's masks, one stacked
    vecdot decodes them, and, for a stage that feeds the next, one divide
    and clip turn them into the next stage's input. The masks of all
    stages are packed once per block. The masks and one block of float64
    drive or output rows, as wide as the widest stage, stay within
    SPIKE_BLOCK_BYTES.

    `windows`, when given, holds one step range (start, stop) per lane,
    non-empty and within [0, steps). As each block's output rows of the
    last stage are filtered, the rows inside a lane's window are added into
    a (lanes, neurons) sum in step order, and the sum is divided by the
    window's length once at the end: the same doubles as averaging the
    recorded rows with mean(axis=0), without a buffer as long as the run.
    Neighbouring lanes that share a window are summed by one add per step.
    """
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim != 2 or not np.all(np.isfinite(inputs)):
        raise ValueError("inputs must be a finite (lanes, steps) array")
    if not (math.isfinite(dt) and dt > 0):
        raise ConfigError(f"dt must be positive and finite, got {dt}")
    if len(ensembles) < 1:
        raise ConfigError("at least one population is required")
    n_stages = len(ensembles)
    lanes, n_steps = inputs.shape
    taus = np.asarray(taus, dtype=float)
    if taus.shape != (lanes, n_stages + 1):
        raise ConfigError(
            f"expected one row of {n_stages + 1} time constants per lane for "
            f"{lanes} lanes and {n_stages} populations, got shape {taus.shape}"
        )
    if not np.all(np.isfinite(taus) & (taus > 0)):
        raise ConfigError(f"time constants must be positive and finite, got {taus.tolist()}")
    for e in ensembles:
        if len(e.decoders) != e.n_neurons:
            raise ConfigError(
                f"decoder length {len(e.decoders)} does not match "
                f"{e.n_neurons} neurons"
            )

    sizes = [e.n_neurons for e in ensembles]
    n_total = sum(sizes)
    groups = None if windows is None else _window_groups(windows, lanes, n_steps)

    # the input link sees only the input, so each lane's series is filtered
    # in plain floats before the loop, then clipped at stage 0's radius in
    # three whole-array calls
    x_in = np.empty((n_steps, lanes))
    for b in range(lanes):
        x_in[:, b] = lowpass_series(inputs[b], taus[b, 0], dt)
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
    step_dt = np.asarray(dt, dtype=float)  # 0-d: spares each ufunc call a conversion

    decoded = np.empty((lanes, n_steps))
    rates = None if groups is None else np.zeros((lanes, sizes[-1]))
    spikes = np.empty((n_steps, lanes, (n_total + 7) // 8), dtype=np.uint8)
    # the loop runs in blocks of `block` steps. A cascade is feed-forward, so
    # within a block each stage runs all the block's steps before the next
    # stage starts. One float64 buffer, as wide as the widest stage, holds a
    # stage's drive for the block and then its filtered output rows. Each
    # stage's spike masks fill a contiguous block of their own, packed
    # together once per block
    width = max(sizes)
    step_bytes = lanes * (n_total + 8 * width)  # bool masks, float64 drive or rows
    block = max(1, min(n_steps, SPIKE_BLOCK_BYTES // max(1, step_bytes)))
    stage_masks = [np.empty((block, lanes, n), dtype=bool) for n in sizes]
    floats = np.empty(block * lanes * width)
    stage_rows = [floats[: block * lanes * n].reshape(block, lanes, n) for n in sizes]

    for k0 in range(0, n_steps, block):
        n = min(block, n_steps - k0)
        x = x_in[k0 : k0 + n]  # stage 0's clipped input, (steps, lanes)
        # each stage decodes into the block's columns of `decoded`; a stage
        # that feeds the next leaves its clipped output there as the next
        # stage's input, and the last stage's output overwrites it
        out = decoded[:, k0 : k0 + n].T
        for s, e in enumerate(ensembles):
            rows, masks = stage_rows[s][:n], stage_masks[s][:n]
            np.multiply(gain_enc[s], x[..., None], out=rows)
            rows += e.biases
            # the LIF update is the only work that runs per step
            for j, mask in zip(rows, masks):
                lif_step_arrays(v[s], refr[s], j, step_dt, mask)
            np.multiply(masks, out_syns[s].gain, out=rows)
            out_syns[s].run(rows)
            # one dot product per (step, lane) row: vecdot runs the same
            # per-row dot as a one-lane run, where a single (lanes x n) @ (n,)
            # product sums in a different order and drifts from it
            np.vecdot(rows, e.decoders, out=out)
            if s + 1 < n_stages:
                np.divide(out, ensembles[s + 1].radius, out=out)
                np.maximum(out, -1.0, out=out)
                np.minimum(out, 1.0, out=out)
                x = out
        # `rows` holds the last stage's filtered output rows of the block;
        # each group of lanes adds the rows inside its window, one per step
        for cut, start, stop in groups or ():
            acc = rates[cut]
            for row in rows[max(start - k0, 0) : max(stop - k0, 0), cut]:
                acc += row
        block_masks = [m[:n] for m in stage_masks]
        spiked = block_masks[0] if n_stages == 1 else np.concatenate(block_masks, axis=-1)
        spikes[k0 : k0 + n] = np.packbits(spiked, axis=-1)

    for cut, start, stop in groups or ():
        rates[cut] /= stop - start
    return SimResult(decoded=decoded, spikes=spikes, n_neurons=n_total, dt=dt, rates=rates)


def _window_groups(windows, lanes: int, n_steps: int) -> list[tuple[slice, int, int]]:
    """Check one non-empty step window per lane within [0, n_steps), and
    group neighbouring lanes that share a window: (lane slice, start, stop)."""
    try:
        windows = [tuple(w) for w in windows]
    except TypeError as err:
        raise ConfigError(f"step windows must be (start, stop) pairs: {err}") from err
    if len(windows) != lanes:
        raise ConfigError(f"need one step window per lane, got {len(windows)} for {lanes} lanes")
    groups = []
    for b, w in enumerate(windows):
        if len(w) != 2:
            raise ConfigError(f"a step window is (start, stop), got {w} for lane {b}")
        for k in w:
            check_int(f"step window bound of lane {b}", k)
        start, stop = int(w[0]), int(w[1])
        if not 0 <= start < stop <= n_steps:
            raise ConfigError(
                f"step window [{start}, {stop}) of lane {b} is empty or outside [0, {n_steps})"
            )
        if groups and groups[-1][1:] == (start, stop):
            groups[-1] = (slice(groups[-1][0].start, b + 1), start, stop)
        else:
            groups.append((slice(b, b + 1), start, stop))
    return groups
