import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from oracles import SynapseState, synapse_step

from snndetect.errors import ConfigError
from snndetect.synapses import Lowpass, lowpass_series


def run_filter_sequence(xs, tau, dt, y0=0.0):
    s = SynapseState(tau_syn=tau, y=y0)
    out = []
    for x in xs:
        s, y = synapse_step(s, x, dt)
        out.append(y)
    return np.array(out)


def lane_grid(taus, shape):
    """One time constant per lane of `taus`, repeated over the trailing axes
    of `shape`: a full grid of that shape."""
    shape = (shape,) if np.ndim(shape) == 0 else tuple(shape)
    return np.broadcast_to(np.reshape(taus, (len(taus),) + (1,) * (len(shape) - 1)), shape)


def test_impulse_response_is_exact():
    tau, dt = 0.002, 0.001
    a = math.exp(-dt / tau)
    assert a == pytest.approx(math.exp(-0.5), abs=0)
    xs = [1.0] + [0.0] * 30
    ys = run_filter_sequence(xs, tau, dt)
    expected = (1 - a) * a ** np.arange(31)
    assert np.max(np.abs(ys - expected)) < 1e-12


def test_dc_gain_is_one():
    tau, dt = 0.004, 0.001
    steps = int(10 * tau / dt)
    ys = run_filter_sequence([3.7] * steps, tau, dt)
    assert abs(ys[-1] - 3.7) / 3.7 < 1e-3


def test_matches_fine_integration_of_continuous_filter():
    # oracle: integrate dy/dt = (x - y) / tau at dt = 1e-6 for a
    # piecewise-constant input held over coarse steps
    tau, dt = 0.003, 0.001
    rng = np.random.default_rng(5)
    xs = rng.uniform(-2, 2, 40)
    coarse = run_filter_sequence(xs, tau, dt)

    sub = 1000
    fine_dt = dt / sub
    y = 0.0
    fine = []
    for x in xs:
        for _ in range(sub):
            y += fine_dt * (x - y) / tau
        fine.append(y)
    assert np.max(np.abs(coarse - np.array(fine))) < 1e-3


@given(
    st.floats(min_value=-5, max_value=5),
    st.floats(min_value=-5, max_value=5),
    st.floats(min_value=-10, max_value=10),
    st.floats(min_value=-10, max_value=10),
)
def test_linearity(alpha, beta, x, z):
    tau, dt = 0.002, 0.001
    sx = SynapseState(tau_syn=tau, y=0.3)
    sz = SynapseState(tau_syn=tau, y=-0.4)
    sc = SynapseState(tau_syn=tau, y=alpha * 0.3 + beta * -0.4)
    _, yx = synapse_step(sx, x, dt)
    _, yz = synapse_step(sz, z, dt)
    _, yc = synapse_step(sc, alpha * x + beta * z, dt)
    assert abs(yc - (alpha * yx + beta * yz)) < 1e-9


@given(st.floats(min_value=-100, max_value=100))
def test_zero_input_decays_monotonically(y0):
    ys = run_filter_sequence([0.0] * 20, 0.002, 0.001, y0=y0)
    mags = np.abs(np.concatenate([[y0], ys]))
    assert np.all(np.diff(mags) <= 1e-12)


def test_lowpass_vector_matches_scalar():
    tau, dt = 0.005, 0.001
    lp = Lowpass([[tau] * 3], dt)
    xs = np.array([1.0, -2.0, 0.5])
    out = None
    for _ in range(10):
        out = lp.step(xs)
    scalar = run_filter_sequence([1.0] * 10, tau, dt)[-1]
    assert out[0, 0] == pytest.approx(scalar, abs=1e-15)


def test_validation():
    with pytest.raises(ConfigError):
        SynapseState(tau_syn=0.0)
    with pytest.raises(ConfigError):
        Lowpass([0.0], 0.001)
    with pytest.raises(ValueError):
        synapse_step(SynapseState(tau_syn=0.01), float("nan"), 0.001)
    with pytest.raises(ValueError):
        synapse_step(SynapseState(tau_syn=0.01), 1.0, -0.001)


def test_lowpass_per_lane_time_constants():
    dt = 0.001
    taus = [0.001, 0.004, 0.02]
    lp = Lowpass(lane_grid(taus, (3, 2)), dt)
    xs = np.array([[1.0, -2.0], [0.5, 3.0], [4.0, 0.0]])
    for _ in range(10):
        out = lp.step(xs)
    for b, tau in enumerate(taus):
        alone = Lowpass([[tau, tau]], dt)
        for _ in range(10):
            ref = alone.step(xs[b])
        np.testing.assert_array_equal(out[b], ref[0])
    with pytest.raises(ConfigError):
        Lowpass([0.001, -0.002], dt)


def test_lowpass_time_constant_grid_equals_one_lowpass_per_column_block():
    # a (lanes, n) grid, as the simulator's output link has it: each stage's
    # time constant repeated over its neurons, one row of stages per lane
    dt = 0.001
    taus = np.array([[0.002, 0.005, 0.002], [0.0007, 0.002, 0.03]])
    sizes = [3, 1, 2]
    grid = Lowpass(np.repeat(taus, sizes, axis=1), dt)
    start = 0
    for s, n in enumerate(sizes):
        block = Lowpass(np.repeat(taus[:, s : s + 1], n, axis=1), dt)
        for name in ("decay", "gain", "y"):
            got = getattr(grid, name)[:, start : start + n]
            np.testing.assert_array_equal(got.view(np.uint64), getattr(block, name).view(np.uint64))
        start += n


@pytest.mark.parametrize("shape", [3, (3, 4), (3, 2, 2)])
def test_lowpass_coefficients_have_the_state_shape(shape):
    dt, taus = 0.001, [0.001, 0.004, 0.02]
    grid = lane_grid(taus, shape)
    lp = Lowpass(grid, dt)
    assert lp.decay.shape == lp.gain.shape == lp.y.shape == grid.shape
    for b, tau in enumerate(taus):
        assert np.all(lp.decay[b] == math.exp(-dt / tau))
        assert np.all(lp.gain[b] == 1 - math.exp(-dt / tau))


@pytest.mark.parametrize("tau, dt", [(float("inf"), 0.001), (0.002, float("inf")),
                                     (float("nan"), 0.001), (0.002, float("nan"))])
def test_non_finite_time_constant_or_dt_is_a_config_error(tau, dt):
    named = "nan" if math.isnan(tau) or math.isnan(dt) else "inf"
    with pytest.raises(ConfigError, match=named):
        Lowpass([[0.002] * 3, [tau] * 3], dt)
    with pytest.raises(ConfigError, match=named):
        lowpass_series([1.0, 2.0], tau, dt)


@pytest.mark.parametrize("tau", [1e-320, 5e-324])
def test_a_subnormal_time_constant_passes_its_input_through(tau):
    # -dt / tau is -inf, so the decay is 0.0 and the gain 1.0, without a
    # numpy overflow warning for a numpy scalar tau, as the simulator hands in
    np.testing.assert_array_equal(lowpass_series([1.0, 2.0], np.float64(tau), 0.001)[0], [1.0, 2.0])
    assert Lowpass([tau], 0.001).decay.tolist() == [0.0]


@pytest.mark.parametrize("tau", [0.0005, 0.002, 0.02])
def test_lowpass_series_equals_the_stepped_filter(tau):
    # the plain-float recurrence must give a Lowpass's doubles bit for bit,
    # signed zeros included: a -0.0 input from rest leaves the state +0.0
    dt = 0.001
    rng = np.random.default_rng(3)
    xs = np.concatenate([[-0.0, 0.0, -0.0], rng.uniform(-2500.0, 2500.0, 60), [0.0] * 5])
    lp = Lowpass([tau], dt)
    want = np.array([lp.step(x).copy() for x in xs]).reshape(len(xs))
    got, end = lowpass_series(xs, tau, dt)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    assert end == got[-1]
    none, end = lowpass_series([], tau, dt, y0=0.5)
    assert none.shape == (0,) and end == 0.5


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


finite = st.floats(min_value=-3000.0, max_value=3000.0, allow_nan=False)


@given(
    xs=st.lists(finite, max_size=60),
    cuts=st.lists(st.integers(min_value=0, max_value=60), max_size=6),
    tau=st.one_of(st.floats(min_value=1e-4, max_value=0.05), st.sampled_from([1e-320, 5e-324])),
    unit=st.booleans(),
)
def test_carried_state_equals_one_call_and_the_stepped_filter(xs, cuts, tau, unit):
    # a link run block by block, each call starting from the end state of
    # the one before, as the simulator runs an output link, gives the bits
    # of one call over the whole series; at unit current, those of a
    # stepped Lowpass too. A subnormal tau makes the decay exactly 0
    dt = 0.001
    current = 1.0 if unit else 1.0 / dt
    whole, end = lowpass_series(xs, tau, dt, current=current)
    pieces, y = [], 0.0
    bounds = sorted({0, len(xs), *(min(c, len(xs)) for c in cuts)})
    for lo, hi in zip(bounds, bounds[1:]):
        part, y = lowpass_series(xs[lo:hi], tau, dt, y, current)
        pieces.append(part)
    assert bits(np.concatenate([[], *pieces])) == bits(whole)
    assert bits([y]) == bits([end]) == bits([whole[-1] if xs else 0.0])
    if unit:
        lp = Lowpass([tau], dt)
        assert bits([lp.step(x)[0] for x in xs]) == bits(whole)
