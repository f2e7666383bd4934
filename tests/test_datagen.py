import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from snndetect.cli import main
from snndetect.datagen import NOISE_STD, DefectSpec, GenParams, gen_defective, gen_healthy
from snndetect.errors import ConfigError


def test_noiseless_flat_series_is_constant():
    p = GenParams(noise_std=0.0, junction_spike_amplitude=0.0, seed=1)
    s = gen_healthy(p)
    np.testing.assert_array_equal(s.values, 1000.0)
    assert s.layers[0] == 570 and s.layers[-1] == 650


def test_junction_spike_count():
    p = GenParams(layer_range=(570, 650), noise_std=0.0, junction_period=10, seed=1)
    s = gen_healthy(p)
    spiky = s.values > 1000.0
    expected = np.arange(570, 651) % 10 == 0  # 570, 580, ..., 650
    np.testing.assert_array_equal(spiky, expected)
    assert spiky.sum() == 9


def test_noise_mean_within_standard_error():
    p = GenParams(noise_std=20.0, junction_spike_amplitude=0.0, seed=7)
    s = gen_healthy(p)
    n = s.values.size
    assert abs(s.values.mean() - 1000.0) <= 3 * 20.0 / np.sqrt(n)


def test_zero_reduction_is_identity():
    p = GenParams(seed=3)
    d = DefectSpec(power_reduction_percent=0.0)
    np.testing.assert_array_equal(gen_defective(p, d).values, gen_healthy(p).values)


def test_full_reduction_leaves_junction_term():
    p = GenParams(noise_std=0.0, junction_period=8, seed=1)
    d = DefectSpec(start_layer=613, n_layers=7, power_reduction_percent=100.0)
    s = gen_defective(p, d)
    vals = dict(zip(s.layers.tolist(), s.values.tolist()))
    assert vals[613] == 0.0  # baseline fully removed
    assert vals[616] == 600.0  # 616 is a junction layer (616 % 8 == 0)


def test_twothirds_reduction_dip_level():
    p = GenParams(noise_std=0.0, junction_period=10, seed=1)
    d = DefectSpec(start_layer=613, n_layers=7, power_reduction_percent=66.0)
    s = gen_defective(p, d)
    vals = dict(zip(s.layers.tolist(), s.values.tolist()))
    for layer in range(613, 620):
        assert vals[layer] == pytest.approx(340.0)
    assert vals[612] == pytest.approx(1000.0)
    assert vals[620] == pytest.approx(1600.0)  # junction layer, dip over
    assert vals[621] == pytest.approx(1000.0)


def test_matched_seeds_cancel_noise_exactly():
    p = GenParams(noise_std=20.0, seed=11)
    d = DefectSpec(start_layer=613, n_layers=5, power_reduction_percent=66.0)
    healthy = gen_healthy(p)
    defective = gen_defective(p, d)
    diff = healthy.values - defective.values
    on = np.isin(healthy.layers, list(d.layers))
    np.testing.assert_allclose(diff[on], 660.0, atol=1e-9)
    np.testing.assert_allclose(diff[~on], 0.0, atol=1e-9)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n_layers=st.sampled_from([1, 3, 5, 7, 9]),
    reduction=st.sampled_from([33.0, 66.0]),
)
def test_matched_seed_property(seed, n_layers, reduction):
    # noise small enough that the zero clip never binds
    p = GenParams(noise_std=10.0, seed=seed)
    d = DefectSpec(start_layer=613, n_layers=n_layers, power_reduction_percent=reduction)
    diff = gen_healthy(p).values - gen_defective(p, d).values
    dip = 1000.0 * reduction / 100.0
    expected = np.where(np.isin(np.arange(570, 651), list(d.layers)), dip, 0.0)
    np.testing.assert_allclose(diff, expected, atol=1e-9)


def test_values_clipped_at_zero():
    p = GenParams(noise_std=60.0, seed=5)
    d = DefectSpec(start_layer=613, n_layers=9, power_reduction_percent=100.0)
    s = gen_defective(p, d)
    assert np.all(s.values >= 0.0)


def test_for_sensor_noise_defaults(tmp_path):
    # gen-data fills in the sensor's noise level unless --noise-std is given
    for sensor in ("PD2", "PD1"):
        default, explicit = tmp_path / f"{sensor}-default", tmp_path / f"{sensor}-explicit"
        assert main(["gen-data", "--sensor", sensor, "--outdir", str(default)]) == 0
        assert main(["gen-data", "--sensor", sensor, "--noise-std", str(NOISE_STD[sensor]),
                     "--outdir", str(explicit)]) == 0
        assert (default / "defective.csv").read_bytes() == (explicit / "defective.csv").read_bytes()
    assert main(["gen-data", "--sensor", "PD9", "--outdir", str(tmp_path / "bad")]) == 1


def test_validation():
    with pytest.raises(ConfigError):
        GenParams(baseline_level=0.0)
    with pytest.raises(ConfigError):
        GenParams(noise_std=-1.0)
    with pytest.raises(ConfigError):
        GenParams(junction_period=0)
    for bad in ({"seed": -1}, {"seed": True}, {"junction_period": 8.0},
                {"noise_std": float("inf")}, {"layer_range": (570.5, 650)}):
        with pytest.raises(ConfigError):
            GenParams(**bad)
    with pytest.raises(ConfigError):
        DefectSpec(n_layers=0)
    with pytest.raises(ConfigError):
        DefectSpec(power_reduction_percent=150.0, dip_fraction=1.0)
    with pytest.raises(ConfigError):
        # defect window must fit inside the series window
        gen_defective(GenParams(), DefectSpec(start_layer=648, n_layers=7))
