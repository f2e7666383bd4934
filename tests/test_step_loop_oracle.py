"""The step loop against its previous form, kept here as the slow path.

`previous_cascade` is simulate_cascade's loop as it was before the input
synapse was hoisted out of it and the spike current folded into the output
synapses' gain: every step filters the input, clips it at the radius per
stage, scales a copy of the spike mask by 1/dt and filters that.
`previous_lif_step` is the LIF update of that loop, with its separate
negate and divide and its allocating spike branch. The fast loop must
reproduce them exactly; the tolerance is 0 (array_equal) on decoded
values, packed spikes and recorded rates. The fast loop computes stage 0's
drive a block of steps at a time, so the runs cross block boundaries.
"""

import numpy as np
import pytest

from snndetect import simulator
from snndetect.ensembles import build_ensemble
from snndetect.neurons import TAU_RC, TAU_REF
from snndetect.simulator import simulate_cascade
from snndetect.synapses import Lowpass

DT = 0.001
STEPS = 97  # not a multiple of the small blocks below
SIZES = (40, 30, 25)


def previous_lif_step(v, refr, j, dt, spiked):
    decay = np.subtract(dt, refr)
    np.maximum(decay, 0.0, out=decay)
    np.minimum(decay, dt, out=decay)
    np.negative(decay, out=decay)
    decay /= TAU_RC
    np.exp(decay, out=decay)
    v -= j
    v *= decay
    v += j
    np.maximum(v, 0.0, out=v)
    refr -= dt
    np.maximum(refr, 0.0, out=refr)
    np.greater(v, 1.0, out=spiked)
    hit = np.flatnonzero(spiked)
    if hit.size:
        overshoot = (v.take(hit) - 1.0) / (j.take(hit) - 1.0)
        t_after = -TAU_RC * np.log1p(-overshoot)
        refr.put(hit, np.maximum(TAU_REF - t_after, 0.0))
        v.put(hit, 0.0)


def previous_cascade(ensembles, inputs, dt, taus, record_rates=False):
    """The previous lane-batched loop; returns (decoded, spikes, rates)."""
    inputs = np.asarray(inputs, dtype=float)
    n_stages = len(ensembles)
    lanes, n_steps = inputs.shape
    taus = np.asarray(taus, dtype=float)
    sizes = [e.n_neurons for e in ensembles]
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    n_total = int(bounds[-1])

    in_syn = Lowpass(taus[:, 0], dt, lanes)
    out_syns = [Lowpass(taus[:, s + 1], dt, (lanes, sizes[s])) for s in range(n_stages)]
    gain_enc = [e.gains * e.encoders for e in ensembles]
    spike_scale = 1.0 / dt
    v = [np.zeros((lanes, n)) for n in sizes]
    refr = [np.zeros((lanes, n)) for n in sizes]
    drive = [np.empty((lanes, n)) for n in sizes]
    x_norm = np.empty(lanes)
    x_mid = np.empty(lanes)

    columns = np.ascontiguousarray(inputs.T)
    decoded = np.empty((lanes, n_steps))
    rates = np.empty((lanes, n_steps, sizes[-1])) if record_rates else None
    spikes = np.empty((n_steps, lanes, (n_total + 7) // 8), dtype=np.uint8)
    block = max(1, min(n_steps, simulator.SPIKE_BLOCK_BYTES // max(1, lanes * n_total)))
    spiked = np.empty((block, lanes, n_total), dtype=bool)

    for k in range(n_steps):
        i = k % block
        x = in_syn.step(columns[k])
        for s, e in enumerate(ensembles):
            np.divide(x, e.radius, out=x_norm)
            np.maximum(x_norm, -1.0, out=x_norm)
            np.minimum(x_norm, 1.0, out=x_norm)
            np.multiply(gain_enc[s], x_norm[:, None], out=drive[s])
            drive[s] += e.biases
            mask = spiked[i, :, bounds[s] : bounds[s + 1]]
            previous_lif_step(v[s], refr[s], drive[s], dt, mask)
            np.copyto(drive[s], mask)
            drive[s] *= spike_scale
            r = out_syns[s].step(drive[s])
            x = np.vecdot(r, e.decoders, out=decoded[:, k] if s == n_stages - 1 else x_mid)
        if rates is not None:
            rates[:, k] = r
        if i == block - 1 or k == n_steps - 1:
            spikes[k - i : k + 1] = np.packbits(spiked[: i + 1], axis=-1)

    return decoded, spikes, rates


@pytest.fixture(scope="module")
def ensembles():
    return [build_ensemble(n, 1100.0, s) for s, n in enumerate(SIZES)]


def block_budget(lanes, chain, steps):
    """The SPIKE_BLOCK_BYTES that makes the loop's blocks `steps` steps long:
    each step holds one bool mask per neuron and stage 0's float64 drive."""
    return steps * lanes * (sum(e.n_neurons for e in chain) + 8 * chain[0].n_neurons)


@pytest.mark.parametrize("stages", [1, 2, 3])
@pytest.mark.parametrize("lanes", [1, 3, 16], ids=["1", "3", "16"])
def test_step_loop_equals_previous_loop(ensembles, stages, lanes, monkeypatch):
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
    # one block for the whole run, then blocks of 1 and of 7 steps: in 7-step
    # blocks, 97 steps cross 13 block boundaries and end in a partial block,
    # a 5-step run is shorter than one block, and a 0-step run has none
    budgets = [simulator.SPIKE_BLOCK_BYTES] + [block_budget(lanes, chain, n) for n in (1, 7)]
    for budget in budgets:
        monkeypatch.setattr(simulator, "SPIKE_BLOCK_BYTES", budget)
        for steps in (STEPS, 5, 0):
            for taus in (shared_taus, lane_taus):
                for record_rates in (False, True):
                    run = inputs[:, :steps]
                    decoded, spikes, rates = previous_cascade(chain, run, DT, taus, record_rates)
                    res = simulate_cascade(chain, run, DT, taus, record_rates=record_rates)
                    np.testing.assert_array_equal(res.decoded, decoded)
                    np.testing.assert_array_equal(res.spikes, spikes)
                    assert res.decoded.shape == (lanes, steps)
                    if record_rates:
                        np.testing.assert_array_equal(res.rates, rates)
                    else:
                        assert res.rates is None
                    last_stage_spikes += np.unpackbits(spikes, axis=-1)[..., lo:hi].sum()
    assert last_stage_spikes > 0
