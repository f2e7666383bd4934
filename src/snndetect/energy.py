"""Operation counting and per-hardware energy pricing of an inference.

One inference is a full series pass through the filter network. Dense
hardware (CPU, GPU, FPGA) burns a fixed amount per inference regardless
of spiking activity, while event-driven hardware pays per synaptic op,
so its cost tracks the firing rates of each sample. The shipped profiles
are calibrated against a reference run rather than measured, and should
be read as relative orderings, not absolute power figures.
"""

from __future__ import annotations

import json
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

# priced per synaptic op; every other reference hardware is priced per inference
SYNOP_DOMINATED = ("Loihi", "SpiNNaker2")


@dataclass(frozen=True)
class NetworkTopology:
    """Per-neuron fan-out of the simulated network."""

    fan_out: np.ndarray

    def __post_init__(self) -> None:
        fan_out = np.asarray(self.fan_out, dtype=np.int64)
        object.__setattr__(self, "fan_out", fan_out)
        if fan_out.ndim != 1 or np.any(fan_out < 0):
            raise ConfigError("fan_out must be a 1-D array of non-negative counts")

    @property
    def n_neurons(self) -> int:
        return int(self.fan_out.size)

    @classmethod
    def chain(cls, stage_sizes: Sequence[int]) -> "NetworkTopology":
        """Cascade topology: each stage projects onto the next, the last decodes
        to a single output."""
        if not stage_sizes or any(s < 1 for s in stage_sizes):
            raise ConfigError(f"stage sizes must be positive, got {list(stage_sizes)}")
        fans = []
        for s, size in enumerate(stage_sizes):
            target = stage_sizes[s + 1] if s + 1 < len(stage_sizes) else 1
            fans.append(np.full(size, target, dtype=np.int64))
        return cls(fan_out=np.concatenate(fans))


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


def count_ops(spike_counts, topology: NetworkTopology, steps: int) -> OpCounts:
    """Tally operations from one run: each neuron's spikes priced by its
    fan-out, plus one state update per neuron per timestep.

    `spike_counts` holds one spike total per neuron of the topology, as
    SimResult.spike_counts returns them.
    """
    counts = np.asarray(spike_counts)
    if counts.shape != (topology.n_neurons,):
        raise DataError(
            f"topology has {topology.n_neurons} neurons but got spike counts "
            f"of shape {counts.shape}"
        )
    if not np.issubdtype(counts.dtype, np.integer) or np.any(counts < 0):
        raise DataError("spike counts must be non-negative integers")
    if steps < 0:
        raise DataError(f"steps must be >= 0, got {steps}")
    return OpCounts(
        synaptic_ops=int(topology.fan_out @ counts),
        neuron_updates=topology.n_neurons * steps,
    )


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
    """The JSON-ready name -> constants mapping that profiles_from_json reads."""
    return {
        name: {
            "e_synop": p.e_synop,
            "e_update": p.e_update,
            "e_static_per_inference": p.e_static_per_inference,
        }
        for name, p in profiles.items()
    }


def profiles_from_json(text: str) -> dict[str, HardwareEnergyProfile]:
    """Accepts either a bare name->constants mapping or a document with the
    mapping under a "profiles" key (the CLI emits the latter, with run
    metadata alongside)."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise DataError(f"invalid profiles JSON: {err}") from err
    if isinstance(data, dict) and isinstance(data.get("profiles"), dict):
        data = data["profiles"]
    if not isinstance(data, dict):
        raise DataError("profiles JSON must map names to energy constants")
    out = {}
    for name, fields in data.items():
        try:
            out[name] = HardwareEnergyProfile(name=name, **fields)
        except TypeError as err:
            raise DataError(f"bad profile {name!r}: {err}") from None
    return out
