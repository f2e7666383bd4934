"""The lane-batched step loop against the one-lane reference loop.

`oracles.reference_cascade` runs one lane at a time, out of place, one
step at a time: each stage decodes its spike mask and filters the decoded
value through its output link. The fast loop runs every lane at once, in
place, runs stage s one block of steps behind stage s - 1 with one LIF call
per step for every stage, and computes each stage's drive and decodes its
spikes a block of steps at a time, then filters each lane's decoded block
in plain floats. It must reproduce the reference exactly; the tolerance is
0 (array_equal) on decoded values, packed spikes and the window spike rates
of the last stage, and the runs and windows cross block boundaries. Every
lane, stage and block-size case also runs at a dt of 0.0005 and 0.0025,
where the 2 ms refractory period lasts four steps and less than one. A run
that decodes nothing (`decode=False`) must give the same packed spikes and
window rates. The output link before the decode (`filter_first_cascade`)
is equal in exact arithmetic only, so the loop is held to it within a
stated tolerance.
"""

import os

import numpy as np
import pytest
from oracles import filter_first_cascade, reference_cascade, window_rate

from snndetect import simulator
from snndetect.ensembles import build_ensemble
from snndetect.simulator import simulate_cascade
from snndetect.synapses import lowpass_series

STEPS = 97  # not a multiple of the small blocks below
SIZES = (40, 30, 25)
DECODED_ATOL = 2e-12  # decode first against filter first (see the last test)


def reference_lanes(chain, inputs, dt, taus):
    """reference_cascade of each lane, laid out as simulate_cascade lays out
    a run: decoded (lanes, steps), packed spikes (steps, lanes, bytes), and
    the last stage's spike masks (lanes, steps, neurons) that window rates
    are counted from."""
    runs = [reference_cascade(chain, signal, dt, row) for signal, row in zip(inputs, taus)]
    decoded = np.array([d for d, _, _ in runs]).reshape(inputs.shape)
    spikes = np.stack([np.packbits(s, axis=-1) for _, s, _ in runs], axis=1)
    last = np.array([m for _, _, m in runs])
    return decoded, spikes, last


@pytest.fixture(scope="module")
def ensembles():
    return [build_ensemble(n, 1100.0, s) for s, n in enumerate(SIZES)]


def window_cases(lanes, steps):
    """No windows, one window shared by every lane, and windows that differ
    between pairs of neighbouring lanes. At 97 steps each starts and ends
    inside a 7-step block."""
    if steps == 0:
        return [None]
    if steps == 5:
        return [None, [(1, 4)] * lanes, [(b % 3, 5 - b % 2) for b in range(lanes)]]
    if steps == 12:
        return [None, [(5, 12)] * lanes, [(b // 2 % 3 + 2, 12 - b // 2 % 4) for b in range(lanes)]]
    return [None, [(10, 88)] * lanes,
            [(3 * (b // 2) + 2, 90 - 4 * (b // 2)) for b in range(lanes)]]


def loop_cases():
    """Each lane count and stage count at each dt; the 1 ms cases keep their
    bare lanes-stages names."""
    for dt in (0.001, 0.0005, 0.0025):
        for stages in (1, 2, 3):
            for lanes in (1, 3, 16):
                name = f"{lanes}-{stages}" + ("" if dt == 0.001 else f"-dt{dt}")
                yield pytest.param(lanes, stages, dt, id=name)


@pytest.mark.parametrize("lanes, stages, dt", loop_cases())
def test_step_loop_equals_previous_loop(ensembles, stages, lanes, dt, monkeypatch):
    chain = ensembles[:stages]
    rng = np.random.default_rng(100 * stages + lanes)
    # layer-like steps held for 10 time steps, wide enough that the filtered
    # input clips at the radius on both sides
    levels = rng.uniform(-2500.0, 2500.0, (lanes, STEPS // 10 + 1))
    inputs = np.repeat(levels, 10, axis=1)[:, :STEPS]
    shared_taus = np.full((lanes, stages + 1), 0.002)
    lane_taus = rng.uniform(0.0005, 0.012, (lanes, stages + 1))
    lo, hi = sum(SIZES[: stages - 1]), sum(SIZES[:stages])  # the last stage's neurons
    last_stage_spikes = 0
    cases = [(steps, taus, reference_lanes(chain, inputs[:, :steps], dt, taus))
             for steps in (STEPS, 12, 5, 0) for taus in (shared_taus, lane_taus)]
    # one block for the whole run, then blocks of 1 and of 7 steps: in 7-step
    # blocks, 97 steps cross 13 block boundaries and end in a partial block,
    # a 12-step run is two blocks, fewer than 3 stages, so the pipeline of
    # stages never fills, a 5-step run is shorter than one block, and a
    # 0-step run has none
    for block in (STEPS, 1, 7):
        monkeypatch.setattr(simulator, "_block_steps", lambda *_: block)
        for steps, taus, (decoded, spikes, last) in cases:
            for windows in window_cases(lanes, steps):
                res = simulate_cascade(chain, inputs[:, :steps], dt, taus, windows)
                np.testing.assert_array_equal(res.decoded, decoded)
                np.testing.assert_array_equal(res.spikes, spikes)
                assert res.decoded.shape == (lanes, steps)
                if windows is None:
                    assert res.rates is None
                else:
                    want = [window_rate(m, w, dt) for m, w in zip(last, windows)]
                    np.testing.assert_array_equal(res.rates, np.array(want))
                last_stage_spikes += np.unpackbits(spikes, axis=-1)[..., lo:hi].sum()
    assert last_stage_spikes > 0


@pytest.mark.parametrize("block", [STEPS, 1, 7])
def test_each_stage_clips_its_input_at_its_own_radius(block, monkeypatch):
    # stages of unequal radii: the input clips at 1100 on both sides, stage
    # 0's output at 600, and stage 2 scales stage 1's output by 1800, so a
    # stage that divides by another stage's radius drifts from the reference
    chain = [build_ensemble(n, r, s) for s, (n, r) in enumerate(zip(SIZES, (1100.0, 600.0, 1800.0)))]
    rng = np.random.default_rng(5)
    inputs = np.repeat(rng.uniform(-2500.0, 2500.0, (3, STEPS // 10 + 1)), 10, axis=1)[:, :STEPS]
    taus = rng.uniform(0.0005, 0.012, (3, 4))
    windows = [(10, 88), (10, 88), (2, 97)]
    decoded, spikes, last = reference_lanes(chain, inputs, 0.001, taus)
    monkeypatch.setattr(simulator, "_block_steps", lambda *_: block)
    res = simulate_cascade(chain, inputs, 0.001, taus, windows)
    np.testing.assert_array_equal(res.decoded, decoded)
    np.testing.assert_array_equal(res.spikes, spikes)
    want = [window_rate(m, w, 0.001) for m, w in zip(last, windows)]
    np.testing.assert_array_equal(res.rates, np.array(want))
    assert np.abs(reference_lanes(chain[:1], inputs, 0.001, taus[:, :2])[0]).max() > 600.0


@pytest.mark.parametrize("stages", [1, 2, 3])
def test_a_run_without_its_output_link_spikes_as_the_reference(ensembles, stages, monkeypatch):
    # decode=False skips the last stage's decode and its output link; every
    # stage that feeds another is still decoded and filtered, so the spikes
    # are the reference's and those of decode=True, at tolerance 0
    chain = ensembles[:stages]
    rng = np.random.default_rng(7 + stages)
    inputs = np.repeat(rng.uniform(-2500.0, 2500.0, (3, STEPS // 10 + 1)), 10, axis=1)[:, :STEPS]
    taus = rng.uniform(0.0005, 0.012, (3, stages + 1))
    _, spikes, last = reference_lanes(chain, inputs, 0.001, taus)
    windows = [(10, 88), (10, 88), (2, 97)]
    means = np.array([window_rate(m, w, 0.001) for m, w in zip(last, windows)])
    lo = sum(SIZES[: stages - 1])  # the last stage's first neuron
    assert np.unpackbits(spikes, axis=-1)[..., lo : sum(SIZES[:stages])].any()
    for block in (STEPS, 1, 7):
        monkeypatch.setattr(simulator, "_block_steps", lambda *_: block)
        full = simulate_cascade(chain, inputs, 0.001, taus)
        res = simulate_cascade(chain, inputs, 0.001, taus, decode=False)
        assert res.decoded is None and res.rates is None
        np.testing.assert_array_equal(res.spikes, spikes)
        np.testing.assert_array_equal(res.spikes, full.spikes)
        np.testing.assert_array_equal(res.spike_counts(), full.spike_counts())
        one = res.lane(1, 50)
        assert one.decoded is None
        np.testing.assert_array_equal(one.spikes, spikes[:50, 1:2])
        np.testing.assert_array_equal(one.raster.neuron_ids, full.lane(1, 50).raster.neuron_ids)
        # windows without the decode still count the last stage's spikes:
        # its window rates are the reference's and a decoded run's, split
        # and unsplit
        windowed = simulate_cascade(chain, inputs, 0.001, taus, windows)
        np.testing.assert_array_equal(windowed.rates, means)
        for workers in (1, 2) if hasattr(os, "fork") else (1,):
            monkeypatch.setattr(os, "sched_getaffinity", lambda _: set(range(workers)),
                                raising=False)
            monkeypatch.setattr(simulator, "FORK_MIN_NEURON_STEPS", 1)
            res = simulate_cascade(chain, inputs, 0.001, taus, windows, decode=False)
            assert res.decoded is None
            np.testing.assert_array_equal(res.rates, windowed.rates)
            np.testing.assert_array_equal(res.spikes, spikes)


@pytest.mark.parametrize("decode", [True, False])
@pytest.mark.parametrize("stages", [1, 2, 3])
def test_each_lif_call_gets_the_reference_drive_bits(ensembles, stages, decode, monkeypatch):
    # the spikes, and so the decoded output, rarely see an ulp of the drive,
    # so the drive handed to each LIF call is compared as bits: stage s's
    # neurons at call c get step c - s of its input (blocks of one step),
    # clipped at its radius, times gain * encoder, plus bias, and exactly
    # +0.0 outside its steps
    chain = ensembles[:stages]
    rng = np.random.default_rng(11 + stages)
    inputs = np.repeat(rng.uniform(-2500.0, 2500.0, (3, STEPS // 10 + 1)), 10, axis=1)[:, :STEPS]
    taus = rng.uniform(0.0005, 0.012, (3, stages + 1))
    dt = 0.001
    stage_inputs = [np.array([lowpass_series(x, row[0], dt)[0] for x, row in zip(inputs, taus)])]
    stage_inputs += [reference_lanes(chain[:s], inputs, dt, taus[:, : s + 1])[0] for s in range(1, stages)]
    drives = []
    lif_step = simulator.lif_step_arrays

    def recorded(v, refr, j, *args):
        drives.append(j.copy())
        return lif_step(v, refr, j, *args)

    monkeypatch.setattr(simulator, "lif_step_arrays", recorded)
    monkeypatch.setattr(simulator, "_block_steps", lambda *_: 1)
    simulate_cascade(chain, inputs, dt, taus, decode=decode)
    assert len(drives) == STEPS + stages - 1
    ends = np.cumsum(SIZES[:stages])
    for c, j in enumerate(drives):
        for s, e in enumerate(chain):
            k = c - s
            want = np.zeros((3, e.n_neurons))
            if 0 <= k < STEPS:
                x = np.clip(stage_inputs[s][:, k : k + 1] / e.radius, -1.0, 1.0)
                want = e.gains * e.encoders * x + e.biases
            got = j[:, ends[s] - e.n_neurons : ends[s]]
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


# every stage count at a preset's width: one 500-neuron population, two of
# 250 and three of 167/167/166
PRESET_WIDTHS = {1: (500,), 2: (250, 250), 3: (167, 167, 166)}


@pytest.mark.parametrize("stages", [1, 2, 3])
def test_decoding_before_the_output_link_stays_near_filtering_after_it(stages):
    # the output link and the decode are both linear, so decoding a stage's
    # spike mask and filtering one value per lane equals filtering every
    # neuron's spike train and decoding the filtered rates, in exact
    # arithmetic. In doubles the sums round apart in about 60% of entries:
    # over 2 lanes x 3000 steps the decoded output stays within
    # DECODED_ATOL of the filter-first form on values up to about 1240
    # (measured at most 6.8e-13 here, and 9.1e-13 over 30,000 steps), and
    # every spike bit of every stage is equal
    chain = [build_ensemble(n, 1100.0, 7 + s) for s, n in enumerate(PRESET_WIDTHS[stages])]
    rng = np.random.default_rng(20 + stages)
    inputs = np.repeat(rng.uniform(200.0, 1600.0, (2, 300)), 10, axis=1)
    taus = np.array([[0.002] * (stages + 1), [0.004] * (stages + 1)])
    res = simulate_cascade(chain, inputs, 0.001, taus)
    for b in range(2):
        decoded, spikes = filter_first_cascade(chain, inputs[b], 0.001, taus[b])
        np.testing.assert_array_equal(res.spikes[:, b], np.packbits(spikes, axis=-1))
        np.testing.assert_allclose(res.decoded[b], decoded, rtol=0.0, atol=DECODED_ATOL)
        assert not np.array_equal(res.decoded[b], decoded)  # the two forms differ in doubles
    assert spikes[:, -PRESET_WIDTHS[stages][-1]:].sum() > 10_000
