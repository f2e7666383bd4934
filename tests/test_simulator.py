import os
import signal
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from oracles import rate_twin, reference_cascade, tuning_curves, window_mean

from snndetect import simulator
from snndetect.ensembles import build_ensemble
from snndetect.errors import ConfigError
from snndetect.neurons import TAU_REF
from snndetect.pipeline import build_filter_ensembles
from snndetect.presets import get_preset
from snndetect.simulator import simulate_cascade

DT = 0.001


@pytest.fixture(scope="module")
def ens():
    return build_ensemble(500, 1100.0, 42)


def one_lane(ensembles, signal, taus, window=None):
    """The run of one signal under one row of time constants, as lane 0,
    averaging its last stage's rates over the step window when given."""
    res = simulate_cascade(ensembles, np.asarray(signal, dtype=float)[None], DT, [taus],
                           None if window is None else [window])
    return res.lane(0)


def settled_value(e, x, tau=0.005, duration=0.4, tail=0.15):
    steps = int(duration / DT)
    res = one_lane([e], np.full(steps, float(x)), [tau, tau])
    return res.decoded[-int(tail / DT):].mean()


def test_run_is_deterministic(ens):
    inputs = np.linspace(-800, 800, 300)
    a = one_lane([ens], inputs, [0.003, 0.003])
    b = one_lane([ens], inputs, [0.003, 0.003])
    np.testing.assert_array_equal(a.decoded, b.decoded)
    np.testing.assert_array_equal(a.raster.neuron_ids, b.raster.neuron_ids)
    np.testing.assert_array_equal(a.raster.times, b.raster.times)


def test_zero_input_decodes_near_zero(ens):
    assert abs(settled_value(ens, 0.0)) <= 0.02 * ens.radius


def test_constant_input_decodes_within_tolerance(ens):
    x = 0.5 * ens.radius
    assert settled_value(ens, x) == pytest.approx(x, rel=0.05)


def test_beyond_radius_saturates(ens):
    at_radius = settled_value(ens, ens.radius)
    beyond = settled_value(ens, 2.0 * ens.radius)
    assert beyond == pytest.approx(at_radius, rel=0.10)


def test_raster_invariants(ens):
    steps = 2000
    res = one_lane([ens], np.full(steps, 0.6 * ens.radius), [0.003, 0.003])
    raster = res.raster
    assert raster.duration == pytest.approx(steps * DT)
    assert np.all(raster.times >= 0)
    assert np.all(raster.times < raster.duration)
    # times are step multiples (up to float product rounding)
    np.testing.assert_allclose(raster.times / DT, np.round(raster.times / DT), atol=1e-9)
    # per-neuron inter-spike intervals respect the refractory period
    for i in np.unique(raster.neuron_ids)[:50]:
        t = raster.times[raster.neuron_ids == i]
        if t.size > 1:
            assert np.diff(t).min() >= TAU_REF - DT / 2


def test_empirical_rates_match_tuning_curves(ens):
    x = 0.55 * ens.radius
    duration = 2.0
    res = one_lane([ens], np.full(int(duration / DT), x), [0.003, 0.003])
    counts = res.spike_counts()
    predicted = tuning_curves(ens, [x])[:, 0]
    active = predicted >= 20.0
    empirical = counts / duration
    # drop the settle transient from the comparison budget: 2 s >> settle
    np.testing.assert_allclose(empirical[active], predicted[active], rtol=0.02, atol=0.6)


def test_decoded_response_monotone_and_flat_beyond_radius(ens):
    xs = np.array([-1.6, -1.0, -0.6, -0.2, 0.2, 0.6, 1.0, 1.3, 1.6]) * ens.radius
    decoded = np.array([settled_value(ens, x) for x in xs])
    assert np.all(np.diff(decoded) >= -0.02 * ens.radius)
    interior_slope = (decoded[6] - decoded[1]) / (xs[6] - xs[1])
    outer_slope = abs(decoded[8] - decoded[6]) / (xs[8] - xs[6])
    assert outer_slope <= 0.1 * interior_slope


def test_cascade_raster_offsets():
    e1 = build_ensemble(40, 1100.0, 1)
    e2 = build_ensemble(30, 1100.0, 2)
    res = one_lane([e1, e2], np.full(500, 600.0), [0.004, 0.004, 0.004])
    assert res.raster.n_neurons == 70
    assert res.raster.neuron_ids.max() >= 40  # second stage spiked too
    assert res.raster.neuron_ids.min() < 40


def test_rates_recording_shape(ens):
    res = one_lane([ens], np.full(50, 100.0), [0.003, 0.003], window=(10, 50))
    assert res.rates.shape == (ens.n_neurons,)
    assert np.all(res.rates >= 0) and np.any(res.rates > 0)
    assert one_lane([ens], np.full(50, 100.0), [0.003, 0.003]).rates is None


BAD_WINDOWS = [
    [(0, 10)],                      # one window for two lanes
    [(0, 10)] * 3,                  # three windows for two lanes
    [(0, 10), (4, 4)],              # an empty window
    [(0, 10), (6, 3)],              # a window that ends before it starts
    [(-1, 10), (0, 10)],            # starts before step 0
    [(0, 10), (0, 11)],             # ends after the last step
    [(0, 10), (0.0, 10)],           # a bound that is not an integer
    [(0, 10), (0, 5, 10)],          # not a (start, stop) pair
    [(0, 10), 5],                   # not a pair at all
]


@pytest.mark.parametrize(
    "windows",
    BAD_WINDOWS,
    ids=["too-few", "too-many", "empty", "reversed", "before-start", "past-end",
         "float-bound", "triple", "scalar"],
)
def test_bad_windows_are_config_errors(ens, windows):
    with pytest.raises(ConfigError):
        simulate_cascade([ens], np.zeros((2, 10)), DT, [[0.003, 0.003]] * 2, windows)


def test_config_errors(ens):
    with pytest.raises(ConfigError):
        simulate_cascade([ens], np.zeros((1, 10)), DT, [[0.003]])  # missing output tau
    with pytest.raises(ConfigError):
        simulate_cascade([ens], np.zeros((1, 10)), DT, [[0.003, -0.001]])
    with pytest.raises(ConfigError):
        simulate_cascade([ens], np.zeros((1, 10)), 0.0, [[0.003, 0.003]])
    with pytest.raises(ValueError):
        simulate_cascade([ens], np.array([[1.0, np.nan]]), DT, [[0.003, 0.003]])
    bad = replace(build_ensemble(20, 1100.0, 3), decoders=np.zeros(5))
    with pytest.raises(ConfigError):
        simulate_cascade([bad], np.zeros((1, 10)), DT, [[0.003, 0.003]])
    # inputs come as lanes and time constants as one row per lane
    with pytest.raises(ValueError):
        simulate_cascade([ens], np.zeros(10), DT, [[0.003, 0.003]])  # a 1-D input
    with pytest.raises(ConfigError):
        simulate_cascade([ens], np.zeros((2, 10)), DT, [0.003, 0.003])  # a shared tau row


@pytest.mark.parametrize(
    "dt, taus, named",
    [
        (float("inf"), [[0.002, 0.002]], "inf"),
        (float("nan"), [[0.002, 0.002]], "nan"),
        (DT, [[float("inf"), 0.002]], "inf"),  # would silence the input link
        (DT, [[0.002, float("inf")]], "inf"),  # would silence the output link
        (DT, [[0.002, float("nan")]], "nan"),
    ],
    ids=["dt-inf", "dt-nan", "tau-in-inf", "tau-out-inf", "tau-out-nan"],
)
def test_non_finite_dt_or_time_constant_is_a_config_error(dt, taus, named):
    ens = build_ensemble(20, 1100.0, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # raised before any numpy warning
        with pytest.raises(ConfigError, match=named):
            simulate_cascade([ens], np.full((1, 30), 900.0), dt, taus)


# ------------------------------------------------------------ lane batching

def lane_signals(lanes, steps):
    rng = np.random.default_rng(11)
    return rng.uniform(-1500.0, 1500.0, size=(lanes, steps))


# (25, 40) has a last stage wider than stage 0, and (25, 40, 30) and
# (30, 60, 20, 45) a middle stage wider than both ends; every stage's
# neurons share one axis, with its own column slice of each loop buffer
@pytest.mark.parametrize(
    "sizes", [(60,), (40, 30), (40, 30, 25), (25, 40), (25, 40, 30), (30, 60, 20, 45)]
)
def test_lanes_match_reference_loop_bit_for_bit(sizes, monkeypatch):
    ensembles = [build_ensemble(n, 1100.0, s) for s, n in enumerate(sizes)]
    inputs = lane_signals(2, 150)
    taus = np.array([[0.002] * (len(sizes) + 1), [0.006] * (len(sizes) + 1)])
    refs = [reference_cascade(ensembles, inputs[b], DT, taus[b]) for b in range(2)]
    # one spike block for the whole run, then blocks of 7 steps: 150 is not
    # a multiple of 7, so the last block is partial
    # Windows: none, one shared by both lanes, and one per lane; each starts
    # and ends inside a 7-step block, and the second lane's runs to the end
    for block in (150, 7):
        monkeypatch.setattr(simulator, "_block_steps", lambda *_: block)
        for windows in (None, [(30, 125)] * 2, [(3, 139), (60, 150)]):
            res = simulate_cascade(ensembles, inputs, DT, taus, windows)
            for b, (decoded, spikes, rates) in enumerate(refs):
                lane = res.lane(b)
                k, ids = np.nonzero(spikes)
                np.testing.assert_array_equal(lane.decoded, decoded)
                np.testing.assert_array_equal(lane.raster.neuron_ids, ids)
                np.testing.assert_array_equal(lane.raster.times, k * DT)
                if windows is None:
                    assert lane.rates is None
                else:
                    np.testing.assert_array_equal(lane.rates, window_mean(rates, windows[b]))
    assert ids.size > 100 and np.any(ids >= sum(sizes[:-1]))  # the last stage fires too


def test_one_lif_call_per_step_for_the_whole_cascade(monkeypatch):
    # stage s runs one block behind stage s - 1, and one LIF call updates
    # the neurons of every stage: a run in `block`-step blocks makes
    # steps + (stages - 1) * block calls, where one call per stage and step
    # made stages * steps
    shapes = []
    lif_step = simulator.lif_step_arrays

    def counted(v, *args):
        shapes.append(v.shape)
        return lif_step(v, *args)

    monkeypatch.setattr(simulator, "lif_step_arrays", counted)
    inputs = lane_signals(2, 97)

    def calls(sizes, block=None):
        ensembles = [build_ensemble(n, 1100.0, s) for s, n in enumerate(sizes)]
        if block is not None:
            monkeypatch.setattr(simulator, "_block_steps", lambda *_: block)
        shapes.clear()
        simulate_cascade(ensembles, inputs, DT, [[0.002] * (len(sizes) + 1)] * 2)
        assert set(shapes) == {(2, sum(sizes))}
        return len(shapes)

    assert calls((60,)) == calls((60,), 7) == 97
    assert calls((40, 30), 7) == 97 + 7
    assert calls((40, 30, 25), 7) == 97 + 2 * 7


def test_block_steps_fit_the_budget_within_the_run():
    # a short run is one block; a long one is cut into blocks that fit in
    # SPIKE_BLOCK_BYTES (104 steps for fpga-*'s 2 lanes of 250 + 250
    # neurons); a step over the budget, or an empty run, gets 1-step blocks
    assert simulator._block_steps(2, (40, 30), 150) == 150
    assert simulator._block_steps(2, (250, 250), 30_000) == 104
    assert simulator._block_steps(4096, (500,), 10) == 1
    assert simulator._block_steps(2, (60,), 0) == 1


def assert_same_run(batched, single):
    np.testing.assert_array_equal(batched.decoded, single.decoded)
    np.testing.assert_array_equal(batched.raster.neuron_ids, single.raster.neuron_ids)
    np.testing.assert_array_equal(batched.raster.times, single.raster.times)
    assert batched.raster.n_neurons == single.raster.n_neurons
    assert batched.raster.duration == single.raster.duration
    if single.rates is None:
        assert batched.rates is None
    else:
        np.testing.assert_array_equal(batched.rates, single.rates)


@pytest.mark.parametrize("per_lane_taus", [False, True])
@pytest.mark.parametrize("sizes", [(60,), (40, 30)])
def test_each_lane_equals_its_single_run(sizes, per_lane_taus):
    ensembles = [build_ensemble(n, 1100.0, s) for s, n in enumerate(sizes)]
    inputs = lane_signals(4, 120)
    links = len(sizes) + 1
    if per_lane_taus:
        taus = np.array([[t] * links for t in (0.0005, 0.001, 0.004, 0.012)])
        taus[1, -1] = 0.003  # lanes may differ per link too
    else:
        taus = np.full((4, links), 0.002)
    # lanes 1 and 2 share a window, and the others differ from it
    windows = [(0, 120), (15, 97), (15, 97), (40, 41)]
    res = simulate_cascade(ensembles, inputs, DT, taus, windows)
    assert res.decoded.shape == (4, 120)
    assert res.rates.shape == (4, sizes[-1])
    for b in range(4):
        assert_same_run(res.lane(b), one_lane(ensembles, inputs[b], taus[b], windows[b]))


def test_padded_lane_prefix_is_exact(ens, monkeypatch):
    # the loop is causal: a short lane padded with anything runs exactly
    # like the short input alone over its own steps
    short = lane_signals(1, 70)[0]
    padded = np.stack([np.concatenate([short, np.full(30, 900.0)]), lane_signals(2, 100)[1]])
    alone = one_lane([ens], short, [0.003, 0.003], (20, 70))
    # the short lane's window ends at its own last step, before the padding,
    # in one block for the whole run and in blocks of 1 and of 7 steps
    for block in (100, 1, 7):
        monkeypatch.setattr(simulator, "_block_steps", lambda *_: block)
        res = simulate_cascade([ens], padded, DT, [[0.003, 0.003]] * 2, [(20, 70), (20, 100)])
        assert_same_run(res.lane(0, 70), alone)


def test_batched_raster_lays_lanes_side_by_side():
    e = build_ensemble(40, 1100.0, 1)
    inputs = np.stack([np.full(200, 600.0), np.full(200, -600.0)])
    res = simulate_cascade([e], inputs, DT, [[0.004, 0.004]] * 2)
    raster = res.raster
    assert raster.n_neurons == 80
    lanes = [res.lane(b).raster for b in range(2)]
    assert raster.neuron_ids.size == sum(r.neuron_ids.size for r in lanes)
    np.testing.assert_array_equal(np.sort(raster.neuron_ids[raster.neuron_ids >= 40] - 40),
                                  np.sort(lanes[1].neuron_ids))
    assert res.spikes.shape == (200, 2, 5)  # 40 neurons pack into 5 bytes


def test_lane_shape_errors(ens):
    with pytest.raises(ConfigError):
        simulate_cascade([ens], np.zeros((2, 10)), DT, np.full((3, 2), 0.003))  # 3 rows, 2 lanes
    with pytest.raises(ValueError):
        simulate_cascade([ens], np.zeros((2, 3, 4)), DT, [[0.003, 0.003]] * 2)


def test_empty_runs_keep_their_shapes():
    e = build_ensemble(20, 1100.0, 1)
    no_lanes = simulate_cascade([e], np.zeros((0, 5)), DT, np.zeros((0, 2)))
    assert no_lanes.decoded.shape == (0, 5) and no_lanes.spikes.shape == (5, 0, 3)
    no_steps = one_lane([e], np.zeros(0), [0.002, 0.002])
    assert no_steps.decoded.shape == (0,) and no_steps.spikes.shape == (0, 1, 3)


# ------------------------------------------------------------ spike counts

def assert_counts_match_raster(res):
    raster = res.raster
    expected = np.bincount(raster.neuron_ids, minlength=raster.n_neurons)
    np.testing.assert_array_equal(res.spike_counts(), expected)


@pytest.mark.parametrize("lanes", [1, 3, 16])
@pytest.mark.parametrize("sizes", [(500,), (250, 250), (40, 30, 25)])
def test_spike_counts_equal_the_raster_bincount(sizes, lanes):
    # the stage boundaries at 250 and 70 fall inside a packed byte
    ensembles = [build_ensemble(n, 1100.0, s + 1) for s, n in enumerate(sizes)]
    taus = np.full((lanes, len(sizes) + 1), 0.003)
    res = simulate_cascade(ensembles, lane_signals(lanes, 120), DT, taus)
    assert res.spike_counts().shape == (lanes * sum(sizes),)
    assert res.spike_counts().sum() > 0
    assert_counts_match_raster(res)
    assert_counts_match_raster(res.lane(lanes - 1, 70))


def test_spike_counts_of_one_signal_and_of_no_steps():
    ensembles = [build_ensemble(40, 1100.0, 1), build_ensemble(30, 1100.0, 2)]
    taus = [0.003, 0.003, 0.003]
    one = one_lane(ensembles, lane_signals(1, 150)[0], taus)
    assert one.decoded.ndim == 1
    assert_counts_match_raster(one)
    for inputs in (np.zeros((1, 0)), np.zeros((2, 0))):
        empty = simulate_cascade(ensembles, inputs, DT, [taus] * len(inputs))
        assert_counts_match_raster(empty)
        assert not empty.spike_counts().any()



def test_spike_events_read_the_bits_in_step_then_id_order():
    # the oracle reads each bit by hand, the most significant first as
    # np.packbits packs them; 13 + 20 neurons end inside a byte, and the
    # lanes sit side by side as in the raster
    ensembles = [build_ensemble(13, 1100.0, 1), build_ensemble(20, 1100.0, 2)]
    res = simulate_cascade(ensembles, lane_signals(3, 60), DT, np.full((3, 3), 0.003))
    n = res.n_neurons
    expected = [(k, b * n + i) for k in range(60) for b in range(3) for i in range(n)
                if res.spikes[k, b, i // 8] >> (7 - i % 8) & 1]
    k, ids = res.spike_events()
    assert expected and list(zip(k.tolist(), ids.tolist())) == expected
    assert res.n_steps == 60 and res.lane(1, 25).n_steps == 25
    np.testing.assert_array_equal(res.raster.neuron_ids, ids)
    np.testing.assert_array_equal(res.raster.times, k * DT)

TWIN_LEVELS = (-900.0, -600.0, -300.0, 0.0, 400.0, 800.0, 1090.0)


@pytest.mark.parametrize("preset, bound, top_bound", [
    # measured gaps: at most 0.004 on one stage; on two, at most 0.45 below
    # 1090 and 6.4 at it, where stage 0's spike noise clips at stage 1's
    # radius and the twin, without noise, does not clip
    ("cpu-pd1-66", 0.1, 0.1),
    ("fpga-pd1-66", 1.0, 10.0),
])
def test_settled_decode_matches_the_rate_twin(preset, bound, top_bound):
    # each population's spiking decode of a constant level, averaged once
    # settled, is the level its steady-state rates decode to: ties the
    # stepped neurons to lif_rate, which the decoders were solved from
    cfg = replace(get_preset(preset), seed=7)
    ensembles = build_filter_ensembles(cfg)
    taus = [cfg.tau_in] + [cfg.tau_out] * cfg.stages
    inputs = np.repeat(np.array(TWIN_LEVELS)[:, None], 20_000, axis=1)
    decoded = simulate_cascade(ensembles, inputs, cfg.dt, [taus] * len(TWIN_LEVELS)).decoded
    for level, spiking, row in zip(TWIN_LEVELS, decoded, inputs):
        gap = spiking[2_000:].mean() - rate_twin(ensembles, row, cfg.dt, taus)[2_000:].mean()
        assert abs(gap) <= (top_bound if level == TWIN_LEVELS[-1] else bound), (level, gap)


# ------------------------------------------------------------ process split

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="the split forks")


def force_workers(monkeypatch, cpus, min_work=1):
    """Make simulate_cascade see `cpus` CPUs and split runs of any size."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda _: set(range(cpus)), raising=False)
    monkeypatch.setattr(simulator, "FORK_MIN_NEURON_STEPS", min_work)


def count_forks(monkeypatch):
    """Count os.fork calls (made in this process) in the returned list."""
    forks, fork = [], os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def assert_same_arrays(split, whole):
    for name in ("decoded", "spikes", "rates"):
        a, b = getattr(split, name), getattr(whole, name)
        assert (a is None) == (b is None), name
        if b is not None:
            np.testing.assert_array_equal(a, b, err_msg=name)


def split_cases(lanes, steps):
    """(windows, decode) cases: no windows, one shared window, a window per
    lane, a window per pair of neighbouring lanes, and a run without its
    output link. In the pairs case a group of lanes that share a window
    crosses a slice cut at 2 workers (2, 3, 6 and 7 lanes) and at 3 (3, 4
    and 5 lanes), and groups start inside a slice, so each slice must group
    its own lanes."""
    return [(None, True), ([(10, 88)] * lanes, True),
            ([(3 + b, steps - 2 * b) for b in range(lanes)], True),
            ([(3 + b // 2, steps - 2 * (b // 2)) for b in range(lanes)], True), (None, False)]


@needs_fork
@pytest.mark.parametrize("stages", [1, 2, 3])
@pytest.mark.parametrize("lanes", [2, 3, 4, 5, 6, 7])
def test_split_runs_equal_one_process(lanes, stages, monkeypatch):
    # at tolerance 0: lanes never interact, so every slice, here or in a
    # child, writes the bits the one-process run does. 97 steps in blocks of
    # 7 end in a short block
    ensembles = [build_ensemble(n, 1100.0, s) for s, n in enumerate((40, 30, 25)[:stages])]
    inputs = lane_signals(lanes, 97)
    taus = np.random.default_rng(lanes).uniform(0.0005, 0.012, (lanes, stages + 1))
    forks = count_forks(monkeypatch)
    for block in (97, 7):
        monkeypatch.setattr(simulator, "_block_steps", lambda *_: block)
        for windows, decode in split_cases(lanes, 97):
            force_workers(monkeypatch, 1)
            whole = simulate_cascade(ensembles, inputs, DT, taus, windows, decode)
            assert not forks
            for workers in (2, 3):
                force_workers(monkeypatch, workers)
                split = simulate_cascade(ensembles, inputs, DT, taus, windows, decode)
                assert len(forks) == min(workers, lanes) - 1
                forks.clear()
                assert_no_child_left()
                assert_same_arrays(split, whole)


@needs_fork
@pytest.mark.parametrize("failure", ["exit", "raise", "kill"])
def test_a_failed_child_leaves_its_slice_to_this_process(failure, monkeypatch):
    ensembles = [build_ensemble(40, 1100.0, 1), build_ensemble(30, 1100.0, 2)]
    inputs = lane_signals(5, 60)
    taus = np.full((5, 3), 0.003)
    windows = [(5, 60), (5, 60), (0, 30), (20, 50), (20, 50)]
    whole = simulate_cascade(ensembles, inputs, DT, taus, windows)
    parent, ran_here = os.getpid(), []
    run_slice = simulator._run_slice

    def failing(*args):
        if os.getpid() != parent:
            run_slice(*args)  # a child that fails after writing its rows
            if failure == "exit":
                os._exit(3)
            if failure == "raise":
                raise RuntimeError("a failing child")
            os.kill(os.getpid(), signal.SIGKILL)
        ran_here.append(len(args[1]))
        run_slice(*args)

    monkeypatch.setattr(simulator, "_run_slice", failing)
    force_workers(monkeypatch, 3)
    split = simulate_cascade(ensembles, inputs, DT, taus, windows)
    assert_no_child_left()
    assert ran_here == [1, 2, 2]  # this process's slice, then each child's again
    assert_same_arrays(split, whole)


@needs_fork
def test_a_fork_that_fails_leaves_its_slice_to_this_process(monkeypatch):
    ensembles = [build_ensemble(40, 1100.0, 1)]
    inputs = lane_signals(4, 60)
    taus = np.full((4, 2), 0.003)
    whole = simulate_cascade(ensembles, inputs, DT, taus, [(5, 50)] * 4)

    def no_fork():
        raise OSError("no process left")

    monkeypatch.setattr(os, "fork", no_fork)
    force_workers(monkeypatch, 2)
    assert_same_arrays(simulate_cascade(ensembles, inputs, DT, taus, [(5, 50)] * 4), whole)


@needs_fork
@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_an_interrupted_run_leaves_no_child(error, monkeypatch):
    # this process's own slice raises while its children still run: each
    # is killed and reaped before the error propagates
    parent = os.getpid()

    def slow_children(*args):
        if os.getpid() != parent:
            time.sleep(30)
        raise error("stop")

    monkeypatch.setattr(simulator, "_run_slice", slow_children)
    force_workers(monkeypatch, 3)
    t0 = time.perf_counter()
    with pytest.raises(error):
        simulate_cascade([build_ensemble(20, 1100.0, 1)], lane_signals(3, 30), DT,
                         np.full((3, 2), 0.003))
    assert time.perf_counter() - t0 < 10
    assert_no_child_left()


def test_no_fork_where_none_is_due(monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    ensembles = [build_ensemble(40, 1100.0, 1)]
    inputs = lane_signals(4, 50)
    taus = np.full((4, 2), 0.003)
    # one CPU
    force_workers(monkeypatch, 1)
    simulate_cascade(ensembles, inputs, DT, taus)
    # two CPUs, but one worker's share: 4 lanes x 50 steps x 40 neurons
    force_workers(monkeypatch, 2, min_work=4 * 50 * 40 // 2 + 1)
    simulate_cascade(ensembles, inputs, DT, taus)
    # no affinity to read (outside Linux)
    monkeypatch.setattr(simulator, "FORK_MIN_NEURON_STEPS", 1)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    simulate_cascade(ensembles, inputs, DT, taus)


def test_slices_follow_cpus_lanes_and_work(monkeypatch):
    force_workers(monkeypatch, 2, min_work=simulator.FORK_MIN_NEURON_STEPS)
    # the measured table: 81 layers x 10 steps of a 500-neuron population
    assert simulator._lane_slices(2, 810 * 500) == [(0, 2)]
    assert simulator._lane_slices(4, 810 * 500) == [(0, 4)]
    assert simulator._lane_slices(5, 810 * 500) == [(0, 2), (2, 5)]
    assert simulator._lane_slices(16, 810 * 500) == [(0, 8), (8, 16)]
    assert simulator._lane_slices(2, 30_000 * 500) == [(0, 1), (1, 2)]
    force_workers(monkeypatch, 8, min_work=1)
    assert simulator._lane_slices(3, 10) == [(0, 1), (1, 2), (2, 3)]
    assert simulator._lane_slices(20, 10) == [(0, 2), (2, 5), (5, 7), (7, 10), (10, 12),
                                              (12, 15), (15, 17), (17, 20)]
    assert simulator._lane_slices(0, 10) == [(0, 0)]


def test_checks_run_before_any_fork(ens, monkeypatch):
    def no_fork():
        raise AssertionError("forked before the checks")

    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    force_workers(monkeypatch, 2)
    for windows in BAD_WINDOWS:
        with pytest.raises(ConfigError):
            simulate_cascade([ens], np.zeros((2, 10)), DT, [[0.003, 0.003]] * 2, windows)
    with pytest.raises(ConfigError, match="decode=True"):
        simulate_cascade([ens], np.zeros((2, 10)), DT, [[0.003, 0.003]] * 2, [(0, 10)] * 2,
                         decode=False)
