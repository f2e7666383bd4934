import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from oracles import reference_decoders, tuning_curves

import snndetect
from snndetect.ensembles import (
    DECODE_POINTS, TABLE_CHUNK_BYTES, _normal_equations, _solve, build_ensemble,
)
from snndetect.errors import ConfigError, NumericError
from snndetect.neurons import lif_rate, lif_step_arrays
from snndetect.pipeline import FilterConfig

ARRAYS = ("encoders", "gains", "biases", "intercepts", "max_rates", "decoders")


@pytest.fixture(scope="module")
def ens():
    return build_ensemble(500, 1100.0, 42)


def spike_count(j, steps, dt=0.001):
    """Spikes of one neuron held at the constant drive j for `steps` steps."""
    v, refr, j = np.zeros(1), np.zeros(1), np.array([j])
    count = 0
    for _ in range(steps):
        v, refr, spiked = lif_step_arrays(v, refr, j, dt)
        count += int(spiked[0])
    return count


def drive(ens, x):
    """Normalized per-neuron drive for a raw input value (receptive field
    clipped at the radius), from the population's arrays."""
    return ens.gains * ens.encoders * np.clip(x / ens.radius, -1.0, 1.0) + ens.biases


def simulated_rate(j, duration=2.0, dt=0.001):
    return spike_count(j, int(duration / dt), dt) / duration


def test_build_is_deterministic(ens):
    other = build_ensemble.__wrapped__(500, 1100.0, 42)  # a fresh build, past the memo
    assert other is not ens
    for attr in ARRAYS:
        np.testing.assert_array_equal(getattr(ens, attr), getattr(other, attr))
    different = build_ensemble(500, 1100.0, 43)
    assert not np.array_equal(ens.gains, different.gains)


def test_builds_are_memoised_and_read_only():
    e = build_ensemble(80, 1100.0, 5)
    assert build_ensemble(80, 1100.0, 5) is e
    other = build_ensemble(80, 1100.0, 6)
    assert other is not e and not np.array_equal(other.gains, e.gains)
    for attr in ARRAYS:
        arr = getattr(e, attr)
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_tuning_constraints_hold_exactly(ens):
    assert np.all(np.abs(ens.encoders) == 1.0)
    assert np.all(ens.gains > 0)
    # drive at the intercept is the firing threshold
    j_at_intercept = ens.gains * ens.intercepts + ens.biases
    np.testing.assert_allclose(j_at_intercept, 1.0, atol=1e-9)
    # closed-form rate at the end of the range equals the sampled max rate
    j_at_max = ens.gains + ens.biases
    rates = lif_rate(j_at_max)
    np.testing.assert_allclose(rates, ens.max_rates, rtol=0.01)


def test_simulated_max_rate_matches(ens):
    for i in (3, 77, 401):
        x = ens.radius * ens.encoders[i]
        j = float(drive(ens, x)[i])
        rate = simulated_rate(j)
        assert rate == pytest.approx(ens.max_rates[i], rel=0.02)


def test_simulated_rate_at_intercept_is_silent(ens):
    for i in (3, 77, 401):
        x = ens.radius * ens.encoders[i] * ens.intercepts[i]
        j = float(drive(ens, x)[i])
        assert spike_count(j, 2000) <= 1  # at most one spurious spike


def test_curves_zero_below_intercept_and_monotone(ens):
    xs = np.linspace(-ens.radius, ens.radius, 101)
    rates = tuning_curves(ens, xs)
    for i in (0, 123, 499):
        proj = ens.encoders[i] * xs / ens.radius
        below = proj < ens.intercepts[i] - 1e-9
        assert np.all(rates[i][below] == 0)
        order = np.argsort(proj)
        assert np.all(np.diff(rates[i][order]) >= -1e-9)


def test_curves_positive_above_intercept(ens):
    negative_intercept = np.where((ens.intercepts < -0.05) & (ens.encoders > 0))[0][0]
    rates = tuning_curves(ens, [0.0])
    assert rates[negative_intercept, 0] > 0


def test_curves_match_empirical_rates(ens):
    xs = np.array([-0.9, -0.4, 0.0, 0.45, 0.9]) * ens.radius
    predicted = tuning_curves(ens, xs)
    for i in (11, 222):
        for k, x in enumerate(xs):
            j = float(drive(ens, x)[i])
            rate = simulated_rate(j)
            if predicted[i, k] >= 20.0:
                assert rate == pytest.approx(predicted[i, k], rel=0.02)
            else:
                assert rate <= max(2.0 * predicted[i, k], 5.0)


def test_curves_saturate_beyond_radius(ens):
    inside = tuning_curves(ens, [ens.radius])
    beyond = tuning_curves(ens, [2.5 * ens.radius])
    np.testing.assert_array_equal(inside, beyond)


def test_identity_decode_rmse_within_bound(ens):
    # held-out grid, distinct from the uniform solve grid
    xs = np.linspace(-0.97 * ens.radius, 0.97 * ens.radius, 137)
    decoded = tuning_curves(ens, xs).T @ ens.decoders
    rmse = np.sqrt(np.mean((decoded - xs) ** 2))
    assert rmse <= 0.05 * ens.radius


def test_more_neurons_decode_better():
    def rmse(n, seed):
        e = build_ensemble(n, 1100.0, seed)
        xs = np.linspace(-0.9 * e.radius, 0.9 * e.radius, 101)
        decoded = tuning_curves(e, xs).T @ e.decoders
        return np.sqrt(np.mean((decoded - xs) ** 2))

    assert rmse(500, 11) < rmse(50, 11)


def test_config_validation():
    # neuron count and radius are the only population inputs; FilterConfig
    # checks them before any population is built
    for bad in ({"neurons": 0}, {"radius": 0.0}, {"radius": -1100.0}, {"radius": 1e308}):
        with pytest.raises(ConfigError):
            FilterConfig(**bad)


def test_non_finite_inputs_rejected(ens):
    with pytest.raises(ValueError):
        tuning_curves(ens, [np.nan])


def test_silent_population_fails_the_solve():
    # no activity anywhere leaves the ridge term at zero and the system singular
    with pytest.raises(NumericError, match=r"3 neurons, 10 points \(peak activity 0 Hz\)"):
        _solve(*_normal_equations(np.zeros((3, 10)), np.linspace(-1.0, 1.0, 10)))


CHUNK_ROWS = TABLE_CHUNK_BYTES // (8 * DECODE_POINTS)


@pytest.mark.parametrize("n, radius, seed", [
    (1, 1100.0, 3), (7, 1100.0, 4), (250, 1100.0, 7), (333, 1100.0, 8), (500, 1100.0, 42),
    (1000, 1100.0, 9),
    (CHUNK_ROWS, 1100.0, 10),  # exactly one chunk of the table
    (CHUNK_ROWS + 1, 1100.0, 11),  # one chunk and one row
    (500, 37.5, 12), (250, 1800.0, 13),
])
def test_decoders_equal_the_whole_table_solve_bit_for_bit(n, radius, seed):
    # the table is filled a chunk of rows at a time and the ridge term is
    # added on the diagonal in place; every decoder bit must be the one the
    # whole table through lif_rate at once, plus n_eval * sigma^2 * eye(n),
    # gives
    built = build_ensemble.__wrapped__(n, radius, seed).decoders
    np.testing.assert_array_equal(built.view(np.uint64), reference_decoders(n, radius, seed).view(np.uint64))


def test_build_memory_stays_near_one_tuning_table():
    # the (neurons x points) tuning table of 500 neurons is 4 MB and the
    # Gram 2 MB; whole-table temporaries (drive, mask, compacted drive,
    # log1p) and a table kept alive through the solve's copy of the Gram
    # took the peak to 12.5 MB. numpy reports its buffers to tracemalloc,
    # but not the table, which views a mapping of its own (the resident
    # test below covers it); OpenBLAS's and LAPACK's own workspace is not
    # seen either. The Gram, at 0.5 table, is most of what is left. The
    # decoders are read, since the solve runs on their first read
    table_bytes = 500 * DECODE_POINTS * 8
    tracemalloc.start()
    try:
        build_ensemble.__wrapped__(500, 1100.0, 42).decoders
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.75 * table_bytes, f"build peaked at {peak} B, table {table_bytes} B"


def rss_anon_known():
    try:
        with open("/proc/self/status") as f:
            return any(line.startswith("RssAnon:") for line in f)
    except OSError:
        return False


@pytest.mark.skipif(not rss_anon_known(), reason="no RssAnon in /proc/self/status")
def test_later_builds_leave_no_table_resident():
    # glibc raises its mmap threshold to the size of a freed mmapped block:
    # a malloc'd 4 MB table, once freed, sent every later build's table and
    # Gram to the brk heap, and after four builds RssAnon stood 3.8 MiB
    # above its value after the first. Fresh process, so no earlier
    # allocation has moved the threshold; each build's decoders are read,
    # since the table and the Gram are made on that first read
    script = (
        "from snndetect.ensembles import build_ensemble\n"
        "def anon():\n"
        "    with open('/proc/self/status') as f:\n"
        "        return next(int(l.split()[1]) for l in f if l.startswith('RssAnon:'))\n"
        "marks = []\n"
        "for seed in range(1, 5):\n"
        "    build_ensemble.__wrapped__(500, 1100.0, seed).decoders\n"
        "    marks.append(anon())\n"
        "print(marks[0], marks[-1])\n"
    )
    src = os.path.dirname(os.path.dirname(snndetect.__file__))
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    first_kb, last_kb = map(int, proc.stdout.split())
    half_table = 500 * DECODE_POINTS * 8 // 2
    grew = (last_kb - first_kb) * 1024
    assert grew < half_table, f"RssAnon grew {grew} B over three more builds, half a table {half_table} B"
