import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from snndetect.energy import (
    ENERGY_SAMPLES,
    HARDWARE_ORDER,
    REFERENCE_ENERGY_UJ,
    HardwareEnergyProfile,
    OpCounts,
    count_ops,
    estimate_energy,
    profiles_from_dict,
    profiles_to_dict,
    reference_profiles,
)
from snndetect.datagen import DefectSpec, GenParams, gen_defective
from snndetect.errors import ConfigError, DataError, NumericError
from snndetect.pipeline import run_filter
from snndetect.presets import get_preset


def counts(ids, n_neurons):
    """Per-neuron spike totals of a list of spiking neuron ids."""
    return np.bincount(np.asarray(ids, dtype=np.int64), minlength=n_neurons)


def test_empty_raster_counts():
    c = count_ops(counts([], 20), [20], steps=100)
    assert c.synaptic_ops == 0
    assert c.neuron_updates == 2000


def test_uniform_fanout_counts_spikes():
    c = count_ops(counts([0, 1, 2, 3, 4, 0, 1, 2, 3, 4], 5), [5], steps=50)
    assert c.synaptic_ops == 10


def test_chain_topology_fanouts():
    # one spike of each neuron alone prices at that neuron's fan-out
    fan_out = [count_ops(counts([i], 5), [3, 2], steps=10).synaptic_ops for i in range(5)]
    assert fan_out == [2, 2, 2, 1, 1]
    c = count_ops(counts([0, 3], 5), [3, 2], steps=10)
    assert c.synaptic_ops == 3  # one stage-1 spike (fan-out 2) + one stage-2 spike


def test_counts_match_independent_recount(tmp_path):
    # oracle: serialize the spikes, re-parse them, and re-sum fan-outs per spike
    rng = np.random.default_rng(6)
    ids = rng.integers(0, 30, 500)
    times = np.sort(rng.uniform(0, 1, 500))
    c = count_ops(counts(ids, 30), [20, 10], steps=1000)

    path = tmp_path / "raster.csv"
    path.write_text("neuron,time\n" + "\n".join(f"{i},{t!r}" for i, t in zip(ids, times)) + "\n")
    total = 0
    for line in path.read_text().splitlines()[1:]:
        neuron = int(line.split(",")[0])
        total += 10 if neuron < 20 else 1
    assert c.synaptic_ops == total


@pytest.mark.parametrize("preset", ["cpu-pd1-66", "fpga-pd1-66"])
def test_counts_equal_a_raster_recount_on_the_energy_samples(preset):
    # the six samples the energy command prices, in one batched run
    cfg = replace(get_preset(preset), seed=7)
    sizes = cfg.stage_sizes()
    # a neuron's fan-out is the size of the next stage, or 1 in the last one
    stage_ends, fans = np.cumsum(sizes), np.array(sizes[1:] + [1])
    samples = [
        gen_defective(GenParams(layer_range=(570, 650), noise_std=20.0, seed=cfg.seed + i),
                      DefectSpec(start_layer=613, n_layers=n_layers,
                                 power_reduction_percent=reduction))
        for i, (_, reduction, n_layers) in enumerate(ENERGY_SAMPLES)
    ]
    for sim in run_filter(samples, cfg)[1]:
        c = count_ops(sim.spike_counts(), sizes, steps=len(sim.decoded))
        stage = np.searchsorted(stage_ends, sim.raster.neuron_ids, side="right")
        assert c.synaptic_ops == int(fans[stage].sum()) > 0


def test_count_ops_validation():
    with pytest.raises(DataError):
        count_ops(counts([0], 5), [3], steps=10)  # one count per neuron
    with pytest.raises(DataError):
        count_ops(np.array([1, -1, 0]), [3], steps=10)  # negative count
    with pytest.raises(DataError):
        count_ops(np.array([1.0, 0.0, 0.0]), [3], steps=10)  # not integer counts
    with pytest.raises(DataError):
        count_ops(counts([0], 3), [3], steps=-1)


def test_zero_counts_price_at_static():
    p = HardwareEnergyProfile(name="CPU", e_static_per_inference=17.2e-6)
    assert estimate_energy(OpCounts(0, 0), p) == pytest.approx(17.2)


def test_synop_pricing_hand_value():
    p = HardwareEnergyProfile(name="x", e_synop=0.8e-12)
    assert estimate_energy(OpCounts(10**6, 0), p) == pytest.approx(0.8)


@given(
    s1=st.integers(min_value=0, max_value=10**7),
    s2=st.integers(min_value=0, max_value=10**7),
    u=st.integers(min_value=0, max_value=10**7),
)
def test_energy_monotone_in_counts(s1, s2, u):
    p = HardwareEnergyProfile(name="x", e_synop=1e-12, e_update=1e-12, e_static_per_inference=1e-9)
    lo, hi = sorted((s1, s2))
    assert estimate_energy(OpCounts(lo, u), p) <= estimate_energy(OpCounts(hi, u), p)


def test_overflowing_energy_is_a_numeric_error():
    # each constant is finite, but the product with the op counts is not
    p = HardwareEnergyProfile(name="CPU", e_synop=1e300)
    with pytest.raises(NumericError, match="CPU"):
        estimate_energy(OpCounts(60000, 0), p)
    assert estimate_energy(OpCounts(0, 0), p) == 0.0


def test_reference_profiles_reproduce_reference_row():
    ref = OpCounts(synaptic_ops=57855, neuron_updates=405000)
    profiles = reference_profiles(ref)
    for name in HARDWARE_ORDER:
        assert estimate_energy(ref, profiles[name]) == pytest.approx(
            REFERENCE_ENERGY_UJ[name], rel=1e-9
        )


def test_reference_profiles_ordering_is_stable_under_activity_changes():
    ref = OpCounts(synaptic_ops=60000, neuron_updates=405000)
    profiles = reference_profiles(ref)
    for scale in (0.8, 0.95, 1.0, 1.05, 1.2):
        c = OpCounts(int(ref.synaptic_ops * scale), ref.neuron_updates)
        e = {n: estimate_energy(c, profiles[n]) for n in HARDWARE_ORDER}
        assert e["GPU"] < e["Loihi"] < e["FPGA"] < e["CPU"] < e["SpiNNaker2"]


def test_event_driven_varies_dense_stays_flat():
    ref = OpCounts(synaptic_ops=60000, neuron_updates=405000)
    other = OpCounts(synaptic_ops=55000, neuron_updates=405000)
    profiles = reference_profiles(ref)
    for name in ("CPU", "GPU", "FPGA"):
        assert estimate_energy(ref, profiles[name]) == estimate_energy(other, profiles[name])
    for name in ("Loihi", "SpiNNaker2"):
        assert estimate_energy(ref, profiles[name]) != estimate_energy(other, profiles[name])


def test_reference_profiles_need_spikes():
    with pytest.raises(ConfigError):
        reference_profiles(OpCounts(0, 100))


def test_profiles_json_round_trip():
    ref = OpCounts(synaptic_ops=60000, neuron_updates=405000)
    profiles = reference_profiles(ref)
    again = profiles_from_dict(json.loads(json.dumps(profiles_to_dict(profiles))))
    assert again == profiles
    # also accepts the wrapped document the CLI emits
    wrapped = json.loads(json.dumps({"seed": 1, "profiles": profiles_to_dict(profiles)}))
    assert profiles_from_dict(wrapped) == profiles
    with pytest.raises(DataError):
        profiles_from_dict([])
    with pytest.raises(DataError):
        profiles_from_dict({"CPU": {"bogus": 1}})


def test_topology_validation():
    with pytest.raises(ConfigError):
        count_ops(counts([], 3), [3, 0], steps=10)  # an empty stage
    with pytest.raises(ConfigError):
        count_ops(counts([], 0), [], steps=10)  # no stages
    with pytest.raises(ConfigError):
        OpCounts(-1, 0)
    with pytest.raises(ConfigError):
        HardwareEnergyProfile(name="x", e_synop=-1.0)
