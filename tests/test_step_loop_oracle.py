"""The lane-batched step loop against the one-lane reference loop.

`oracles.reference_cascade` runs one lane at a time, out of place, with
the spike current applied before the output synapse's gain. The fast loop
runs every lane at once, in place, with the spike current folded into the
gain, runs stage s one block of steps behind stage s - 1 with one LIF call
per step for every stage, and computes each stage's drive and filters and
decodes its spikes a block of steps at a time. It must
reproduce the reference exactly; the tolerance is 0 (array_equal) on
decoded values, packed spikes and the window means of the last stage's
rates, and the runs and windows cross block boundaries. Every lane, stage and block-size case also runs at a dt
of 0.0005 and 0.0025, where the 2 ms refractory period lasts four steps
and less than one.
"""

import numpy as np
import pytest
from oracles import reference_cascade, window_mean

from snndetect import simulator
from snndetect.ensembles import build_ensemble
from snndetect.simulator import simulate_cascade

STEPS = 97  # not a multiple of the small blocks below
SIZES = (40, 30, 25)


def reference_lanes(chain, inputs, dt, taus):
    """reference_cascade of each lane, laid out as simulate_cascade lays out
    a run: decoded (lanes, steps), packed spikes (steps, lanes, bytes), and
    the last stage's rates (lanes, steps, neurons) that window means are
    taken of."""
    runs = [reference_cascade(chain, signal, dt, row) for signal, row in zip(inputs, taus)]
    decoded = np.array([d for d, _, _ in runs]).reshape(inputs.shape)
    spikes = np.stack([np.packbits(s, axis=-1) for _, s, _ in runs], axis=1)
    rates = np.array([r for _, _, r in runs])
    return decoded, spikes, rates


@pytest.fixture(scope="module")
def ensembles():
    return [build_ensemble(n, 1100.0, s) for s, n in enumerate(SIZES)]


def block_budget(lanes, chain, steps):
    """The SPIKE_BLOCK_BYTES that makes the loop's blocks `steps` steps long:
    each step holds, for every neuron of every stage, one bool mask per
    stage (the mask ring's slots) and one float64 (its drive, then its
    output rows)."""
    return steps * lanes * sum(e.n_neurons for e in chain) * (len(chain) + 8)


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
    budgets = [simulator.SPIKE_BLOCK_BYTES] + [block_budget(lanes, chain, n) for n in (1, 7)]
    for budget in budgets:
        monkeypatch.setattr(simulator, "SPIKE_BLOCK_BYTES", budget)
        for steps, taus, (decoded, spikes, rates) in cases:
            for windows in window_cases(lanes, steps):
                res = simulate_cascade(chain, inputs[:, :steps], dt, taus, windows)
                np.testing.assert_array_equal(res.decoded, decoded)
                np.testing.assert_array_equal(res.spikes, spikes)
                assert res.decoded.shape == (lanes, steps)
                if windows is None:
                    assert res.rates is None
                else:
                    means = [window_mean(r, w) for r, w in zip(rates, windows)]
                    np.testing.assert_array_equal(res.rates, np.array(means))
                last_stage_spikes += np.unpackbits(spikes, axis=-1)[..., lo:hi].sum()
    assert last_stage_spikes > 0
