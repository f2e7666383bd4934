"""Operation counting and per-hardware energy pricing of an inference.

One inference is a full series pass through the filter network. Dense
hardware (CPU, GPU, FPGA) burns a fixed amount per inference regardless
of spiking activity, while event-driven hardware pays per synaptic op,
so its cost tracks the firing rates of each sample. The shipped profiles
are calibrated against a reference run rather than measured, and should
be read as relative orderings, not absolute power figures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, DataError, NumericError, check_real

# muJ per inference on the reference run (66% reduction over 7 layers, PD1),
# in the order energy tables list the hardware
REFERENCE_ENERGY_UJ = {
    "CPU": 17.2,
    "GPU": 0.6,
    "FPGA": 1.8,
    "Loihi": 0.821,
    "SpiNNaker2": 22.1,
}
HARDWARE_ORDER = tuple(REFERENCE_ENERGY_UJ)

# the energy table's samples, (sample id, power reduction in percent, defect
# layers): the three build batches (33/66/100 % reduction) with short and
# long defect extents. The 66%/7-layer one is the reference run above
ENERGY_SAMPLES = (
    ("S1V3", 33.0, 3),
    ("S1V7", 33.0, 7),
    ("S2V3", 66.0, 3),
    ("S2V7", 66.0, 7),
    ("S3V3", 100.0, 3),
    ("S3V7", 100.0, 7),
)
ENERGY_REFERENCE_SAMPLE = "S2V7"

# priced per synaptic op; every other reference hardware is priced per inference
SYNOP_DOMINATED = ("Loihi", "SpiNNaker2")


@dataclass(frozen=True)
class OpCounts:
    synaptic_ops: int
    neuron_updates: int

    def __post_init__(self) -> None:
        if min(self.synaptic_ops, self.neuron_updates) < 0:
            raise ConfigError("operation counts must be non-negative")


@dataclass(frozen=True)
class HardwareEnergyProfile:
    """Per-operation energy constants, in joules."""

    name: str
    e_synop: float = 0.0
    e_update: float = 0.0
    e_static_per_inference: float = 0.0

    def __post_init__(self) -> None:
        for attr in ("e_synop", "e_update", "e_static_per_inference"):
            label = f"{attr} of profile {self.name!r}"
            value = getattr(self, attr)
            check_real(label, value)
            if value < 0:
                raise ConfigError(f"{label} must be non-negative, got {value}")


def count_ops(spike_counts, stage_sizes: Sequence[int], steps: int) -> OpCounts:
    """Tally operations from one run of a chain of stages: each spike
    reaches every neuron of the next stage, or the one decoded output from
    the last stage, plus one state update per neuron per timestep.

    `spike_counts` holds one spike total per neuron, stage by stage, as
    SimResult.spike_counts returns them.
    """
    sizes = list(stage_sizes)
    if not sizes or any(s < 1 for s in sizes):
        raise ConfigError(f"stage sizes must be positive, got {sizes}")
    fan_out = np.repeat(sizes[1:] + [1], sizes)
    counts = np.asarray(spike_counts)
    if counts.shape != fan_out.shape:
        raise DataError(
            f"stages hold {fan_out.size} neurons but got spike counts of shape {counts.shape}"
        )
    if not np.issubdtype(counts.dtype, np.integer) or np.any(counts < 0):
        raise DataError("spike counts must be non-negative integers")
    if steps < 0:
        raise DataError(f"steps must be >= 0, got {steps}")
    return OpCounts(synaptic_ops=int(fan_out @ counts), neuron_updates=fan_out.size * steps)


def estimate_energy(c: OpCounts, p: HardwareEnergyProfile) -> float:
    """Energy per inference in microjoules.

    Finite constants can still overflow against the op counts; such a
    result raises NumericError rather than pricing the run at infinity.
    """
    joules = (
        c.synaptic_ops * p.e_synop
        + c.neuron_updates * p.e_update
        + p.e_static_per_inference
    )
    uj = joules * 1e6
    if not math.isfinite(uj):
        raise NumericError(f"profile {p.name!r} prices {c.synaptic_ops} synaptic ops and "
                           f"{c.neuron_updates} neuron updates at {uj} uJ, which is not finite")
    return uj


def reference_profiles(reference: OpCounts) -> dict[str, HardwareEnergyProfile]:
    """Profiles calibrated so the reference run reproduces the shipped
    per-hardware energies exactly.

    SYNOP_DOMINATED hardware is priced per synaptic op, so its estimates
    move with each sample's spiking; the rest is static-per-inference.
    """
    if reference.synaptic_ops <= 0:
        raise ConfigError("reference run produced no synaptic ops; cannot calibrate")
    profiles: dict[str, HardwareEnergyProfile] = {}
    for name, uj in REFERENCE_ENERGY_UJ.items():
        if name in SYNOP_DOMINATED:
            profiles[name] = HardwareEnergyProfile(name=name, e_synop=uj * 1e-6 / reference.synaptic_ops)
        else:
            profiles[name] = HardwareEnergyProfile(name=name, e_static_per_inference=uj * 1e-6)
    return profiles


def profiles_to_dict(profiles: Mapping[str, HardwareEnergyProfile]) -> dict:
    """The JSON-ready name -> constants mapping that profiles_from_dict reads."""
    return {
        name: {
            "e_synop": p.e_synop,
            "e_update": p.e_update,
            "e_static_per_inference": p.e_static_per_inference,
        }
        for name, p in profiles.items()
    }


def profiles_from_dict(doc) -> dict[str, HardwareEnergyProfile]:
    """The inverse of profiles_to_dict. Accepts either a bare name->constants
    mapping or a document with the mapping under a "profiles" key (the CLI
    emits the latter, with run metadata alongside)."""
    if isinstance(doc, dict) and isinstance(doc.get("profiles"), dict):
        doc = doc["profiles"]
    if not isinstance(doc, dict):
        raise DataError("profiles must map names to energy constants")
    out = {}
    for name, fields in doc.items():
        try:
            out[name] = HardwareEnergyProfile(name=name, **fields)
        except TypeError as err:
            raise DataError(f"bad profile {name!r}: {err}") from None
    return out
