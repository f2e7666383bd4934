"""Clocked simulation of spiking filter networks, many lanes at once.

Each step low-passes the raw input, drives every neuron through its
tuning, collects spikes, decodes them, and low-passes the decoded value.
Cascaded populations chain through one synapse per link, so a chain of N
populations applies N + 1 filter stages in total. The decoders and the
output synapse are both linear, so decoding a stage's spike mask before
its output link, rather than filtering every neuron's spike train and
decoding the filtered rates, filters one value per lane and step instead
of one per neuron. Each spike carries the unit current 1/dt, so the
filtered output is rate-equivalent (Hz) and in the units the decoders
were solved in.

The model is clocked per step, but only the LIF update is computed step
by step. Every link, input or output, is one first-order recurrence,
`synapses.lowpass_series`, run on Python floats one lane at a time. The
input link reads only the input, so each lane's series is filtered before
the loop into the decoded output. A cascade is feed-forward: a stage never
reads a later one. So the loop runs in blocks of steps and lets stage s
run one block behind stage s - 1: in one iteration every stage runs its
own block, and one LIF call per step updates the neurons of all stages,
laid side by side on one axis. Every stage reads its block from the
decoded output, clips it at its own radius just before its drive, and
decodes its spikes back into it, once per block, from the drive buffer
its LIF calls have finished with; its output link then filters each
lane's decoded block, its state carried from block to block. Each element
gets the arithmetic of a per-step loop, and so the same doubles.

A run carries a leading lane axis: every lane is an independent input
series pushed through the same populations, with its own neuron state
and its own row of synaptic time constants, so a whole tau sweep is one
step loop. Lanes never interact; each lane of a batched run is
bit-for-bit the run of that lane alone, and a large run splits its lanes
over forked processes that write into shared result arrays. Spikes are
kept as packed bits, which only `SimResult` unpacks: per-neuron totals
and (step, neuron) events are read from them when asked for.
"""

from __future__ import annotations

import math
import os
import signal
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Sequence

import numpy as np

from .ensembles import Ensemble, shared_array
from .errors import ConfigError, check_int
from .neurons import lif_step_arrays
from .synapses import lowpass_series

# bound on the buffers of one block of the step loop (see _block_steps)
SPIKE_BLOCK_BYTES = 1 << 20
# the least work, in neuron-steps (lanes x steps x neurons of every stage),
# that each worker of a run split over processes gets (see _lane_slices).
# A fork, its copy-on-write faults and the reap cost about 10 ms. Measured
# warm on a 2-CPU Xeon, median of 21 alternating runs, in-process vs split
# in two: cpu-pd1-66 (500 neurons) x 810 steps at 2 lanes (0.81 M
# neuron-steps) 20 vs 36 ms, 3 lanes 24 vs 43, 4 lanes 29 vs 32, 5 lanes
# (2.0 M) 35 vs 32, 6 lanes 46 vs 37, 16 lanes 87 vs 59; fpga-pd1-66
# (250 + 250) at 3 lanes 35 vs 34, 4 lanes 41 vs 36; 2 lanes x 30,000
# steps about 960 vs 760 ms
FORK_MIN_NEURON_STEPS = 1_000_000


@dataclass(frozen=True, eq=False)
class SpikeRaster:
    """Spike events from one run: parallel arrays of neuron ids and times."""

    neuron_ids: np.ndarray
    times: np.ndarray
    n_neurons: int
    duration: float


@dataclass(frozen=True, eq=False)
class SimResult:
    """Output of one run.

    A run has `decoded` of shape (lanes, steps), or None when it decoded
    nothing (`decode=False`), and, when it was given step windows, `rates`
    of shape (lanes, neurons): each last-stage neuron's spike count inside
    its lane's window over the window's length in seconds, in Hz. A single
    lane (see `lane`) drops the lane axis from both. `spikes` holds one bit
    per neuron and step, packed along the neuron axis: (steps, lanes,
    ceil(neurons / 8)).
    """

    decoded: np.ndarray | None
    spikes: np.ndarray
    n_neurons: int
    dt: float
    rates: np.ndarray | None = None  # window spike rates (Hz) of the last stage

    def lane(self, b: int, steps: int | None = None) -> "SimResult":
        """Lane `b` as a single-lane result, cut to its first `steps` steps
        (its window rates are kept whole)."""
        cut = slice(None, steps)
        return SimResult(
            decoded=None if self.decoded is None else self.decoded[b, cut],
            spikes=self.spikes[cut, b : b + 1],
            n_neurons=self.n_neurons,
            dt=self.dt,
            rates=None if self.rates is None else self.rates[b],
        )

    @property
    def n_steps(self) -> int:
        """Steps the run took."""
        return len(self.spikes)

    def _bits(self) -> np.ndarray:
        """The spike bits unpacked, (steps, lanes * n_neurons), one column
        per neuron id (see `spike_events`)."""
        steps, lanes, _ = self.spikes.shape
        bits = np.unpackbits(self.spikes, axis=-1, count=self.n_neurons)
        return bits.reshape(steps, lanes * self.n_neurons)

    def spike_counts(self) -> np.ndarray:
        """Total spikes per neuron, in the raster's id order.

        Counted from the packed bits without building events: equal to
        np.bincount(raster.neuron_ids, minlength=raster.n_neurons).
        """
        return self._bits().sum(axis=0, dtype=np.int64)

    def spike_events(self) -> tuple[np.ndarray, np.ndarray]:
        """The step and the neuron id of every spike, as two arrays ordered
        by step, then id. In a lane-batched run the lanes sit side by side:
        neuron i of lane b has id b * n_neurons + i."""
        return np.nonzero(self._bits())

    @cached_property
    def raster(self) -> SpikeRaster:
        """Spike events, built from `spike_events` on first read."""
        k, ids = self.spike_events()
        return SpikeRaster(neuron_ids=ids.astype(np.int64), times=k * self.dt,
                           n_neurons=self.spikes.shape[1] * self.n_neurons,
                           duration=self.n_steps * self.dt)


def simulate_cascade(
    ensembles: Sequence[Ensemble],
    inputs,
    dt: float,
    taus,
    windows: Sequence[tuple[int, int]] | None = None,
    decode: bool = True,
) -> SimResult:
    """Run a chain of populations over time-stepped input signals.

    `inputs` holds one signal per lane, (lanes, steps). `taus` holds one
    row of synaptic time constants per lane (lanes x links), one per
    connection: the input link, each inter-population link, and the output
    link (len(ensembles) + 1 links). Neuron ids in the raster are offset
    per stage in chain order. Fully deterministic: no randomness enters the
    loop.

    Every link runs `lowpass_series`, one recurrence on Python floats with
    no numpy call per step. The input link depends on the input alone, so
    before the step loop each lane's series is filtered into `decoded`.
    `dt` and every time constant must be positive and finite.

    The loop runs in blocks of `_block_steps` steps, on buffers allocated
    once per call, and stage s runs one block behind stage s - 1: in
    iteration i, stage s runs time block i - s. Every stage's neurons sit
    side by side on one (lanes, neurons) axis, so one LIF update per step,
    for all stages at once, is the only per-step work. Around it, once per
    iteration, every stage reads its block from `decoded` (the filtered
    input for stage 0, the block the previous stage decoded one iteration
    earlier for a later one), clips it at its own radius and computes its
    drive in two calls (an einsum outer product and the bias add). After
    the LIF calls, each decoded stage copies its block's spike masks into
    its own columns of the drive buffer, as 0/1 doubles, and one stacked
    vecdot there decodes them back into `decoded`, with no float64 copy of
    the masks allocated; its output link then filters each lane's row of
    that block in place by `lowpass_series` at the spike current 1/dt,
    from the state the previous block left. No neuron's spike train is
    filtered. A stage outside its blocks, before its first (ramp-up) or
    after its last (drain, or past the end of a short last block), gets a
    drive of exactly 0, which keeps a stage that has not started at rest.
    So a run of `block`-step blocks makes steps + (stages - 1) * block LIF
    calls. The masks go into a ring of one slot per stage, and a time
    block's masks are packed once the last stage has run it.

    `windows`, when given, holds one step range (start, stop) per lane,
    non-empty and within [0, steps). As each block of the last stage runs,
    each lane adds the spikes of its window's steps into a (lanes, neurons)
    count, one reduce per lane and block, and the count is divided by the
    window's length in seconds once at the end: each neuron's spike rate
    over the window, in Hz, an exact integer count over one float, without
    a buffer as long as the run.

    With `decode=False` the last stage's output is neither decoded nor
    filtered, and the result's `decoded` is None. A stage that feeds the
    next one is still decoded and filtered, so the spikes and the window
    rates are those of `decode=True`. Decoders are solved on their
    first read (see Ensemble), so a one-stage run without `decode` never
    solves them. The decoders of the stages the run decodes are read here,
    before any fork: a child's solve would be lost with it, and might run
    under another BLAS thread count.

    Once every argument is checked, the lanes are cut into contiguous
    slices (`_lane_slices`): one per CPU this process may run on, as long
    as each gets FORK_MIN_NEURON_STEPS of work. The first slice runs here
    and every other one in a forked child (`_run_split`); each writes its
    rows of the result arrays. Every run, split or not, allocates them in
    shared anonymous mappings (`_result_arrays`), so one path serves both.
    Lanes never interact, so the bits do not depend on the split.
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
    sizes = [e.n_neurons for e in ensembles]
    n_total = sum(sizes)
    if windows is not None:
        windows = _check_windows(windows, lanes, n_steps)

    # every check has run. The decoders of the stages the run decodes are
    # read here, so a first read solves them in this process, not in a
    # forked child. Then the lanes are split into slices, and each slice
    # writes its rows of the shared result arrays, here or in another process
    decoders = [e.decoders for e in ensembles[: n_stages if decode else n_stages - 1]]
    decoded, spikes, rates = _result_arrays(lanes, n_steps, n_total,
                                            None if windows is None else sizes[-1])

    def run_slice(lo: int, hi: int) -> None:
        _run_slice(ensembles, inputs[lo:hi], dt, taus[lo:hi],
                   None if windows is None else windows[lo:hi], decoders, decoded[lo:hi],
                   spikes[:, lo:hi], None if rates is None else rates[lo:hi])

    _run_split(_lane_slices(lanes, n_steps * n_total), run_slice)
    return SimResult(decoded=decoded if decode else None, spikes=spikes, n_neurons=n_total, dt=dt,
                     rates=rates)


@np.errstate(divide="ignore")
def _run_slice(ensembles, inputs, dt, taus, windows, decoders, decoded, spikes, rates) -> None:
    """The step loop over one slice of lanes, writing its rows of the result
    arrays in place: `decoded` (lanes, steps), `spikes` (steps, lanes,
    bytes) and, with one step window per lane, `rates` (lanes, neurons).
    `decoders` holds those of the leading stages it decodes. Every row it
    writes is overwritten or zeroed first, so a slice can run again.

    Division by zero is silenced once per call, not per step: when dt is so
    long that the LIF decay is exactly 0, a spiking neuron's overshoot is -1
    and log1p gives -inf, which leaves it no refractory time, as it should."""
    n_stages = len(ensembles)
    lanes, n_steps = inputs.shape
    sizes = [e.n_neurons for e in ensembles]
    n_total = sum(sizes)
    cols = [slice(end - n, end) for n, end in zip(sizes, accumulate(sizes))]  # each stage's neurons

    # every stage's neurons sit side by side on one (lanes, n_total) axis, and
    # every loop buffer is allocated here and updated in place by the loop
    gain_enc = [e.gains * e.encoders for e in ensembles]
    v = np.zeros((lanes, n_total))
    refr = np.zeros((lanes, n_total))
    decay = np.empty((lanes, n_total))  # the LIF step's decay factor, so it allocates none
    step_dt = np.asarray(dt, dtype=float)  # 0-d: spares each ufunc call a conversion

    # the input link sees only the input, so each lane's series is filtered
    # before the loop, as stage 0's input in `decoded`. Each decoded stage's
    # output link filters its decoded spikes, each of current 1/dt, block by
    # block: state[s][b] is lane b's state of stage s's link between blocks
    for b in range(lanes):
        decoded[b] = lowpass_series(inputs[b], taus[b, 0], dt)[0]
    state = [[0.0] * lanes for _ in decoders]
    if rates is not None:
        rates[...] = 0.0
    # in iteration i stage s runs time block i - s. One float64 buffer holds
    # every stage's drive for the iteration's steps. The spike masks go into
    # a ring of one slot per stage: a time block's masks are complete, and
    # packed, once the last stage has run it, before any stage writes into
    # their slot again
    block = _block_steps(lanes, sizes, n_steps)
    ring = np.empty((n_stages, block, lanes, n_total), dtype=bool)
    floats = np.empty((block, lanes, n_total))
    n_blocks = -(-n_steps // block)

    for i in range(n_blocks + n_stages - 1):
        # the first step and the length of the block each stage runs; a
        # stage before its first block or after its last runs none
        starts = [(i - s) * block for s in range(n_stages)]
        counts = [min(block, n_steps - k0) if 0 <= k0 < n_steps else 0 for k0 in starts]
        rows, masks = floats[: max(counts)], ring[i % n_stages, : max(counts)]
        # each stage clips its block of `decoded` at ±its own radius before
        # dividing by it, in place, so no radius overflows the quotient (a
        # clipped value gives ±1.0 exactly, as a clip after the divide
        # would), and computes its drive from it. A stage's steps outside its
        # block get a drive of exactly 0: a stage that has not started stays
        # at rest (v and refr hold +0.0, and it never spikes), and one that
        # has finished is never read again. The einsum writes one product
        # per element, but sums it into a zeroed output, so a -0.0 product
        # lands as +0.0; the bias add then gives the doubles of the plain
        # product, as a bias (1 - gain * intercept) is never -0.0
        for s, e in enumerate(ensembles):
            k0, n = starts[s], counts[s]
            drive = rows[:, :, cols[s]]
            if n:
                x = decoded[:, k0 : k0 + n]
                np.maximum(x, -e.radius, out=x)
                np.minimum(x, e.radius, out=x)
                np.divide(x, e.radius, out=x)
                np.einsum("kb,i->kbi", x.T, gain_enc[s], out=drive[:n])
                drive[:n] += e.biases
            drive[n:] = 0.0
        # the LIF update, one call for every stage, is the only work that
        # runs per step
        for j, mask in zip(rows, masks):
            lif_step_arrays(v, refr, j, step_dt, mask, decay)
        # each stage decodes its block's spikes over its input in `decoded`,
        # and its output link filters them there, where the next stage reads
        # them one iteration later. The drives are dead once the LIF calls
        # have run, so each stage casts its masks into its own columns of
        # them, and vecdot, which would cast a bool operand into a fresh
        # float64 copy, reads the 0/1 doubles there. One dot product per
        # (step, lane) row: vecdot runs the same per-row dot as a one-lane
        # run, where a single (lanes x n) @ (n,) product sums in a different
        # order and drifts from it
        for s, d in enumerate(decoders):
            k0, n = starts[s], counts[s]
            if n:
                spiked, u = rows[:n, :, cols[s]], decoded[:, k0 : k0 + n]
                spiked[...] = masks[:n, :, cols[s]]
                np.vecdot(spiked, d, out=u.T)
                for b in range(lanes):
                    u[b], state[s][b] = lowpass_series(u[b], taus[b, s + 1], dt, state[s][b], 1.0 / dt)
        # the last stage has now run time block i - (n_stages - 1): each lane
        # counts its spikes inside its window, and the block's masks are
        # packed, each stage's from the slot of the iteration that ran it
        k0, n = starts[-1], counts[-1]
        if not n:
            continue
        last = masks[:n, :, cols[-1]]
        for b, (start, stop) in enumerate(windows or ()):
            rates[b] += last[max(start - k0, 0) : max(stop - k0, 0), b].sum(axis=0)
        if n_stages == 1:
            spiked = masks[:n]
        else:
            spiked = np.concatenate(
                [ring[(i + 1 + s) % n_stages, :n, :, cols[s]] for s in range(n_stages)], axis=-1
            )
        spikes[k0 : k0 + n] = np.packbits(spiked, axis=-1)

    # a window's count over its length in seconds: its rate in Hz
    for b, (start, stop) in enumerate(windows or ()):
        rates[b] /= (stop - start) * dt


def _block_steps(lanes: int, sizes: Sequence[int], n_steps: int) -> int:
    """Steps per block of the step loop: as many as fit in SPIKE_BLOCK_BYTES,
    at least 1 and at most the run. A step holds, for every lane and every
    neuron of every stage, one bool mask per stage (the mask ring's slots)
    and one float64 (its drive); a cascade also packs from a transient
    side-by-side copy of one block's masks."""
    step_bytes = lanes * sum(sizes) * (len(sizes) + 8)
    return max(1, min(n_steps, SPIKE_BLOCK_BYTES // max(1, step_bytes)))


def _lane_slices(lanes: int, lane_work: int) -> list[tuple[int, int]]:
    """Contiguous lane slices (lo, hi), one per worker: as many workers as
    this process may run on CPUs, as there are lanes, and as give each at
    least FORK_MIN_NEURON_STEPS of the run's lanes x `lane_work`, but at
    least one. Without `os.sched_getaffinity` (outside Linux) there is one."""
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = 1 if affinity is None else len(affinity(0))
    workers = max(1, min(cpus, lanes, lanes * lane_work // FORK_MIN_NEURON_STEPS))
    bounds = [k * lanes // workers for k in range(workers + 1)]
    return list(zip(bounds, bounds[1:]))


def _result_arrays(lanes: int, n_steps: int, n_total: int, n_rates: int | None):
    """A run's `decoded` (lanes, steps), `spikes` (steps, lanes, bytes) and
    `rates` (lanes, n_rates) or None, each a `shared_array`: an anonymous
    shared mapping of its own, which a forked child writes into as well.

    Every array keeps its lanes apart: `spikes` is a (steps, lanes, bytes)
    view of lane-major bits, so each lane slice's rows are contiguous and
    a process touches only the pages of its own slice. Interleaved by step,
    every page of a split run's spikes went into both processes: over the
    `research-batch` op cycle run in one process, the peak resident size
    rose 0.86 MB above a run that never forks, and 0.43 MB lane-major."""
    decoded = shared_array((lanes, n_steps), np.float64)
    spikes = shared_array((lanes, n_steps, (n_total + 7) // 8), np.uint8).transpose(1, 0, 2)
    return decoded, spikes, None if n_rates is None else shared_array((lanes, n_rates), np.float64)


def _run_split(slices: Sequence[tuple[int, int]], run) -> None:
    """Call run(lo, hi) once for every lane slice: the first in this
    process, every other one in a forked child, which ends with os._exit in
    any case. The children run while this process runs its own slice, and
    each is reaped before this returns. A slice whose child exits non-zero
    or is killed, or that could not fork, runs here instead: each slice
    gives the same bits wherever it runs. On an exception, the children
    still running are killed and reaped, so none outlives the call.

    A child only runs numpy's elementwise loop over its slice and exits,
    so it imports nothing and takes no lock that another thread of this
    process may have held at the fork; malloc and OpenBLAS reset their own
    at a fork."""
    children = {}  # pid -> the slice its child runs
    pending = list(slices[1:])
    try:
        while pending:
            try:
                pid = os.fork()
            except OSError:
                break
            if pid == 0:
                code = 1
                try:
                    run(*pending[0])
                    code = 0
                finally:
                    os._exit(code)
            children[pid] = pending.pop(0)
        for lane_slice in (slices[0], *pending):
            run(*lane_slice)
        while children:
            pid = next(iter(children))
            try:
                status = os.waitpid(pid, 0)[1]
            except ChildProcessError:  # reaped elsewhere (SIGCHLD ignored): exit code unknown
                status = -1
            lane_slice = children.pop(pid)
            if status != 0:
                run(*lane_slice)
    finally:
        for pid in children:
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):  # reaped elsewhere
                pass


def _check_windows(windows, lanes: int, n_steps: int) -> list[tuple[int, int]]:
    """One non-empty step window (start, stop) per lane within [0, n_steps),
    checked."""
    try:
        windows = [tuple(w) for w in windows]
    except TypeError as err:
        raise ConfigError(f"step windows must be (start, stop) pairs: {err}") from err
    if len(windows) != lanes:
        raise ConfigError(f"need one step window per lane, got {len(windows)} for {lanes} lanes")
    for b, w in enumerate(windows):
        if len(w) != 2:
            raise ConfigError(f"a step window is (start, stop), got {w} for lane {b}")
        for k in w:
            check_int(f"step window bound of lane {b}", k)
        if not 0 <= w[0] < w[1] <= n_steps:
            raise ConfigError(
                f"step window [{w[0]}, {w[1]}) of lane {b} is empty or outside [0, {n_steps})"
            )
    return [(int(start), int(stop)) for start, stop in windows]
