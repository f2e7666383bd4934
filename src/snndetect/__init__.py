"""Spiking-ensemble filtering and layer-wise anomaly detection.

Layer-averaged photodiode series from a powder-bed build are passed
through populations of leaky integrate-and-fire neurons that clip benign
positive junction spikes (via the population radius) and smooth noise
(via synaptic low-pass filters). Comparing a defective build against a
healthy reference as a per-layer percent deviation exposes laser-power
dips, which a threshold policy turns into flagged layers.
"""

__version__ = "0.1.0"

# the library API README documents; everything else is imported from its module
from .classifier import encode_sample
from .datagen import DefectSpec, GenParams, gen_defective, gen_healthy
from .energy import count_ops, estimate_energy, reference_profiles
from .ensembles import Ensemble, build_ensemble
from .evaluation import GroundTruth, evaluate
from .pipeline import FilterConfig, flag_anomalies, percent_deviation, run_filter
from .simulator import SimResult, simulate_cascade
