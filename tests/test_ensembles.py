import numpy as np
import pytest

from snndetect.ensembles import (
    EnsembleConfig,
    build_ensemble,
    drive_for_rate,
    solve_decoders,
    tuning_curves,
)
from snndetect.errors import ConfigError
from snndetect.neurons import LifParams, LifState, lif_rate, lif_step


@pytest.fixture(scope="module")
def ens():
    return build_ensemble(EnsembleConfig(), seed=42)


def simulated_rate(j, p, duration=2.0, dt=0.001):
    state = LifState(v=p.e_l)
    count = 0
    for _ in range(int(duration / dt)):
        state, spiked = lif_step(state, j, dt, p)
        count += spiked
    return count / duration


def test_build_is_deterministic(ens):
    other = build_ensemble(EnsembleConfig(), seed=42)
    for attr in ("encoders", "gains", "biases", "intercepts", "max_rates", "decoders"):
        np.testing.assert_array_equal(getattr(ens, attr), getattr(other, attr))
    different = build_ensemble(EnsembleConfig(), seed=43)
    assert not np.array_equal(ens.gains, different.gains)


def test_tuning_constraints_hold_exactly(ens):
    assert np.all(np.abs(ens.encoders) == 1.0)
    assert np.all(ens.gains > 0)
    # drive at the intercept is the firing threshold
    j_at_intercept = ens.gains * ens.intercepts + ens.biases
    np.testing.assert_allclose(j_at_intercept, 1.0, atol=1e-9)
    # closed-form rate at the end of the range equals the sampled max rate
    j_at_max = ens.gains + ens.biases
    rates = lif_rate(j_at_max, ens.lif)
    np.testing.assert_allclose(rates, ens.max_rates, rtol=0.01)


def test_simulated_max_rate_matches(ens):
    for i in (3, 77, 401):
        x = ens.radius * ens.encoders[i]
        j = float(ens.drive(x)[i])
        rate = simulated_rate(j, ens.lif)
        assert rate == pytest.approx(ens.max_rates[i], rel=0.02)


def test_simulated_rate_at_intercept_is_silent(ens):
    for i in (3, 77, 401):
        x = ens.radius * ens.encoders[i] * ens.intercepts[i]
        j = float(ens.drive(x)[i])
        state = LifState(v=ens.lif.e_l)
        count = 0
        for _ in range(2000):
            state, spiked = lif_step(state, j, 0.001, ens.lif)
            count += spiked
        assert count <= 1  # at most one spurious spike


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
            j = float(ens.drive(x)[i])
            rate = simulated_rate(j, ens.lif)
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


def test_zero_target_gives_zero_decoders(ens):
    d = solve_decoders(ens, target=lambda x: np.zeros_like(x))
    np.testing.assert_allclose(d, 0.0, atol=1e-12)


def test_huge_regularization_shrinks_decoders(ens):
    d_default = solve_decoders(ens, target=lambda x: x)
    d_ridge = solve_decoders(ens, target=lambda x: x, reg=1e6)
    assert np.linalg.norm(d_ridge) < 1e-6 * np.linalg.norm(d_default)


def test_more_neurons_decode_better():
    def rmse(n, seed):
        e = build_ensemble(EnsembleConfig(n_neurons=n), seed=seed)
        xs = np.linspace(-0.9 * e.radius, 0.9 * e.radius, 101)
        decoded = tuning_curves(e, xs).T @ e.decoders
        return np.sqrt(np.mean((decoded - xs) ** 2))

    assert rmse(500, 11) < rmse(50, 11)


def test_scalar_target_fallback(ens):
    d = solve_decoders(ens, target=lambda x: 100.0, n_eval=200)
    xs = np.linspace(-ens.radius, ens.radius, 57)
    decoded = tuning_curves(ens, xs).T @ d
    assert np.mean(np.abs(decoded - 100.0)) < 10.0


def test_config_validation():
    with pytest.raises(ConfigError):
        EnsembleConfig(n_neurons=0)
    with pytest.raises(ConfigError):
        EnsembleConfig(radius=0.0)
    with pytest.raises(ConfigError):
        EnsembleConfig(intercept_range=(0.5, 0.2))
    with pytest.raises(ConfigError):
        EnsembleConfig(intercept_range=(-0.5, 1.0))
    with pytest.raises(ConfigError):
        EnsembleConfig(max_rate_range=(400.0, 200.0))
    with pytest.raises(ConfigError):
        # unreachable: the refractory period caps rates at 500 Hz
        EnsembleConfig(max_rate_range=(200.0, 600.0))
    with pytest.raises(ConfigError):
        drive_for_rate(500.0, LifParams())
    for bad in ({"n_neurons": 50.0}, {"n_neurons": False}, {"radius": float("inf")},
                {"decode_points": "1000"}, {"decode_reg": float("nan")}):
        with pytest.raises(ConfigError):
            EnsembleConfig(**bad)


def test_non_finite_inputs_rejected(ens):
    with pytest.raises(ValueError):
        tuning_curves(ens, [np.nan])
