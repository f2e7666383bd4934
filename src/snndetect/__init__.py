"""Spiking-ensemble filtering and layer-wise anomaly detection.

Layer-averaged photodiode series from a powder-bed build are passed
through populations of leaky integrate-and-fire neurons that clip benign
positive junction spikes (via the population radius) and smooth noise
(via synaptic low-pass filters). Comparing a defective build against a
healthy reference as a per-layer percent deviation exposes laser-power
dips, which a threshold policy turns into flagged layers.
"""

__version__ = "0.1.0"

from .baselines import BaselineFilterSpec, apply_baseline_filter, default_specs
from .classifier import (
    ClassifierModel,
    SampleFeature,
    cross_entropy,
    encode_sample,
    predict,
    softmax,
    train_classifier,
)
from .datagen import DefectSpec, GenParams, gen_defective, gen_healthy
from .energy import (
    HardwareEnergyProfile,
    NetworkTopology,
    OpCounts,
    count_ops,
    estimate_energy,
    reference_profiles,
)
from .ensembles import Ensemble, build_ensemble, solve_decoders, tuning_curves
from .errors import ConfigError, DataError, NumericError, SnnDetectError
from .evaluation import GroundTruth, SweepResult, compare_filters, f1_score, sweep_tau
from .neurons import lif_rate
from .pipeline import (
    AdaptivePolicy,
    DetectionReport,
    DeviationSeries,
    FilterConfig,
    FixedPolicy,
    SignalSeries,
    flag_anomalies,
    load_layer_series,
    percent_deviation,
    snn_filter,
)
from .presets import get_preset, preset_names
from .simulator import SimResult, SpikeRaster, simulate_cascade
from .synapses import SynapseState, synapse_step
