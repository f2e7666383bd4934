import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from oracles import reference_rate, reference_step

from snndetect.ensembles import DECODE_POINTS, build_ensemble
from snndetect.errors import ConfigError
from snndetect import neurons
from snndetect.neurons import TAU_RC, TAU_REF, drive_for_rate, lif_rate, lif_step_arrays

# frozen expectation for j=2, tau_rc=0.02, tau_ref=0.002:
# 1 / (0.002 + 0.02 * ln 2)
RATE_J2 = 63.04000219064139


def fine_step_rate(j, duration=1.0, dt=1e-6):
    """Independent oracle: forward-Euler stepping of the membrane equation
    at a fine timestep, counting spikes per second."""
    v = 0.0
    refr = 0.0
    count = 0
    inv_tau = dt / TAU_RC
    steps = int(round(duration / dt))
    for _ in range(steps):
        if refr > 0:
            refr -= dt
            continue
        v += inv_tau * (-v + j)
        if v >= 1.0:
            count += 1
            v = 0.0
            refr = TAU_REF
    return count / duration


def step(v, refr, j, dt=0.001):
    """One neuron through one lif_step_arrays call: (v, refr, spiked)."""
    v, refr, spiked = lif_step_arrays(np.array([v]), np.array([refr]), np.array([j]), dt)
    return float(v[0]), float(refr[0]), bool(spiked[0])


def test_rate_at_threshold_is_zero():
    assert lif_rate(1.0) == 0.0
    assert lif_rate(0.3) == 0.0
    assert lif_rate(-5.0) == 0.0


def test_rate_approaches_refractory_ceiling():
    assert lif_rate(1e12) == pytest.approx(1.0 / TAU_REF, rel=1e-3)
    assert lif_rate(50.0) < 1.0 / TAU_REF


def test_rate_closed_form_matches_fine_simulation():
    assert lif_rate(2.0) == pytest.approx(RATE_J2, rel=1e-9)
    empirical = fine_step_rate(2.0)
    assert empirical == pytest.approx(RATE_J2, rel=0.01)


def test_rate_rejects_non_finite():
    with pytest.raises(ValueError):
        lif_rate(float("nan"))
    with pytest.raises(ValueError):
        lif_rate(np.array([2.0, float("inf")]))


def test_rate_vectorized_matches_scalar():
    js = np.array([0.5, 1.0, 1.5, 4.0])
    rates = lif_rate(js)
    assert rates.shape == js.shape
    for j, r in zip(js, rates):
        assert r == lif_rate(float(j))


def test_rate_is_bitwise_the_all_points_formula():
    # threshold and its neighbours, sub-threshold and negative drives, the
    # refractory ceiling, and a build's whole tuning grid
    edges = np.array([1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0), 0.5, 0.0, -0.0,
                      -3.0, -1e12, 2.0, 50.0, 1e12])
    e = build_ensemble(250, 1100.0, 7)
    x_norm = np.linspace(-e.radius, e.radius, DECODE_POINTS) / e.radius
    grid = (e.gains * e.encoders)[:, None] * x_norm + e.biases[:, None]
    for js in (edges, grid, grid[:3, :5].T):
        assert np.array_equal(lif_rate(js).view(np.uint64), reference_rate(js).view(np.uint64))
    for j in edges:
        rate = lif_rate(float(j))
        assert type(rate) is float
        assert np.float64(rate).view(np.uint64) == reference_rate(j).view(np.uint64)


@given(st.floats(min_value=1.0001, max_value=1e3), st.floats(min_value=1e-4, max_value=1e3))
def test_rate_strictly_increasing_above_threshold(j, delta):
    assert lif_rate(j + delta) > lif_rate(j)


def test_step_pure_leak_decay_is_exact():
    dt = 0.003
    v, _, spiked = step(0.7, 0.0, 0.0, dt)
    assert not spiked
    assert v == pytest.approx(0.7 * math.exp(-dt / TAU_RC), abs=1e-15)


def test_step_spike_resets_to_rest():
    v, refr, spiked = step(0.999, 0.0, 50.0)
    assert spiked
    assert v == 0.0
    assert refr > 0


def test_step_spike_count_matches_closed_form_rate():
    v, refr, count = 0.0, 0.0, 0
    for _ in range(1000):
        v, refr, spiked = step(v, refr, 2.0)
        count += spiked
    assert abs(count - RATE_J2 * 1.0) <= 1.0


def test_step_refractory_holds_integration():
    v, refr, spiked = step(0.5, 0.01, 5.0)
    assert not spiked
    assert v == pytest.approx(0.5)
    assert refr == pytest.approx(0.009)


def test_step_inter_spike_intervals_respect_refractory():
    dt = 0.001
    v, refr = 0.0, 0.0
    spike_steps = []
    for k in range(3000):
        v, refr, spiked = step(v, refr, 9.0, dt)
        if spiked:
            spike_steps.append(k)
    assert len(spike_steps) > 100
    isis = np.diff(spike_steps) * dt
    assert isis.min() >= TAU_REF - dt / 2


def test_step_voltage_never_ends_above_threshold():
    v, refr = 0.0, 0.0
    rng = np.random.default_rng(0)
    for _ in range(500):
        v, refr, _ = step(v, refr, float(rng.uniform(-3, 6)))
        assert v <= 1.0


def test_exact_threshold_drive_never_fires():
    # at j = 1 the voltage converges to the threshold without crossing it;
    # rounding must not make it fire
    v, refr = 0.0, 0.0
    for _ in range(3000):
        v, refr, spiked = step(v, refr, 1.0)
        assert not spiked


def in_place_cases():
    """Each case at a dt of a quarter of, half of and more than the refractory
    period, so it lasts four steps, two steps and less than one; the 1 ms
    cases keep their bare names."""
    for case in ("random", "refractory", "threshold"):
        for dt in (0.0005, 0.001, 0.0025):
            yield pytest.param(case, dt, id=case if dt == 0.001 else f"{case}-dt{dt}")


@pytest.mark.parametrize("case, dt", in_place_cases())
def test_in_place_step_matches_the_out_of_place_reference(case, dt):
    rng = np.random.default_rng(5)
    shape = (3, 200)
    v = rng.uniform(0.0, 1.0, shape)
    refr = np.zeros(shape)
    j = rng.uniform(-3.0, 8.0, shape)
    if case == "refractory":
        # below, at and above one step of refractory time left
        refr = rng.choice([0.0, 0.5 * dt, dt, 1.5 * dt, TAU_REF], size=shape)
    elif case == "threshold":
        j[:, ::2] = 1.0  # the voltage creeps up to the threshold and must never cross
        v[:, ::4] = 1.0
    j_before = j.copy()
    want_v, want_refr = v.copy(), refr.copy()
    # a strided mask buffer: the step only reads it through a flat copy, so
    # any layout works (the simulator hands in whole (lanes, neurons) rows)
    spiked = np.ones((shape[0], shape[1] + 50), dtype=bool)[:, 20 : 20 + shape[1]]
    fired = 0
    for _ in range(300):
        want_v, want_refr, want_spiked = reference_step(want_v, want_refr, j, dt)
        out = lif_step_arrays(v, refr, j, dt, spiked)
        assert out[0] is v and out[1] is refr and out[2] is spiked
        # compared as bits, so a -0.0 where the reference has 0.0 fails
        np.testing.assert_array_equal(v.view(np.uint64), want_v.view(np.uint64))
        np.testing.assert_array_equal(refr.view(np.uint64), want_refr.view(np.uint64))
        np.testing.assert_array_equal(spiked, want_spiked)
        assert np.all(refr >= 0)  # the precondition the step keeps
        fired += int(spiked.sum())
    np.testing.assert_array_equal(j, j_before)
    assert fired > 1000
    # without a mask buffer the step allocates one and computes the same
    want = reference_step(v.copy(), refr.copy(), j, dt)
    got = lif_step_arrays(v, refr, j, dt)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)


def test_step_takes_dt_as_float_or_0d_array():
    rng = np.random.default_rng(8)
    v = rng.uniform(0.0, 1.0, (2, 300))
    refr = rng.choice([0.0, 0.0005, 0.001, TAU_REF], size=v.shape)
    j = rng.uniform(-3.0, 8.0, v.shape)
    state = [(v.copy(), refr.copy()), (v.copy(), refr.copy())]
    for _ in range(50):
        got = [lif_step_arrays(sv, sr, j, dt) for (sv, sr), dt in zip(state, (0.001, np.array(0.001)))]
        for a, b in zip(*got):
            np.testing.assert_array_equal(a, b)
    assert got[0][2].any()


def test_step_writes_v_and_refr_only_when_c_contiguous():
    # the spike reset writes v and refr through flat views, which would be
    # copies of a strided array and silently lose the reset
    rng = np.random.default_rng(6)
    shape = (2, 300)
    j = rng.uniform(2.0, 8.0, shape)
    for name in ("v", "refr"):
        state = {"v": np.full(shape, 0.99), "refr": np.zeros(shape)}
        state[name] = np.zeros((shape[0], 2 * shape[1]))[:, ::2]
        with pytest.raises(ValueError, match=f"^{name} must be C-contiguous"):
            lif_step_arrays(state["v"], state["refr"], j, 0.001)
    # j, spiked and decay may be strided: the step gives the reference's bits
    v, refr = np.full(shape, 0.99), np.zeros(shape)
    want_v, want_refr, want_spiked = reference_step(v.copy(), refr.copy(), j, 0.001)
    wide = np.zeros((shape[0], 2 * shape[1]))
    wide[:, ::2] = j
    spiked = np.zeros((shape[0], 2 * shape[1]), dtype=bool)[:, 1::2]
    decay = np.zeros((shape[0], 2 * shape[1]))[:, 1::2]
    lif_step_arrays(v, refr, wide[:, ::2], 0.001, spiked, decay)
    assert want_spiked.all()
    np.testing.assert_array_equal(v.view(np.uint64), want_v.view(np.uint64))
    np.testing.assert_array_equal(refr.view(np.uint64), want_refr.view(np.uint64))
    np.testing.assert_array_equal(spiked, want_spiked)


def test_a_step_with_both_buffers_allocates_no_state_sized_array():
    rng = np.random.default_rng(5)
    shape = (2, 500)
    v = rng.uniform(0.0, 1.0, shape)
    refr = np.zeros(shape)
    j = rng.uniform(-3.0, 8.0, shape)
    spiked = np.empty(shape, dtype=bool)
    decay = np.empty(shape)
    dt = np.asarray(0.001)
    for _ in range(20):
        lif_step_arrays(v, refr, j, dt, spiked, decay)
    # each step's mask is copied into a buffer made before tracing and
    # counted after it: a bool sum allocates a cast buffer of its own
    masks = np.empty((50,) + shape, dtype=bool)
    tracemalloc.start()
    try:
        for mask in masks:
            out = lif_step_arrays(v, refr, j, dt, spiked, decay)
            mask[...] = spiked
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out[2] is spiked
    assert masks.sum() > 50 * 50  # about 80 spikes a step: the spike branch ran
    assert peak < v.size * 8  # less than one float64 array of the state's shape


def test_step_constants_are_read_only():
    constants = {"_ZERO": 0.0, "_ONE": 1.0, "_NEG_TAU_RC": -TAU_RC, "_TAU_REF": TAU_REF}
    for name, value in constants.items():
        c = getattr(neurons, name)
        assert c.shape == () and c.dtype == np.float64 and c == value
        with pytest.raises(ValueError):
            c[...] = 5.0
        with pytest.raises(ValueError):
            np.add(c, 1.0, out=c)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"rate": 0.0},
        {"rate": -1.0},
        {"rate": 1.0 / TAU_REF},  # the refractory ceiling itself
        {"rate": 600.0},
        {"rate": float("nan")},
        {"rate": np.array([300.0, float("inf")])},
    ],
)
def test_params_validation(kwargs):
    # the rate is the one parameter a caller hands the fixed neuron model
    with pytest.raises(ConfigError):
        drive_for_rate(**kwargs)
