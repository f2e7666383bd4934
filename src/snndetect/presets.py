"""Named filter presets: per-hardware, per-sensor, per-reduction time constants.

Preset names follow {hardware}-{sensor}-{reduction}, e.g. "cpu-pd1-66".
The fpga presets run the two-stage cascade (250 + 250 neurons); cpu and
loihi presets run a single 500-neuron population. Noisier channels and
weaker dips get larger time constants.
"""

from __future__ import annotations

from .errors import ConfigError
from .pipeline import FilterConfig

# hardware -> sensor -> power reduction (%) -> synaptic time constant (s)
TAU_TABLE: dict[str, dict[str, dict[int, float]]] = {
    "cpu": {
        "pd1": {33: 0.003, 66: 0.002, 100: 0.002},
        "pd2": {33: 0.006, 66: 0.004, 100: 0.004},
        "bd": {33: 0.006, 66: 0.006, 100: 0.005},
    },
    "fpga": {
        "pd1": {33: 0.003, 66: 0.002, 100: 0.002},
        "pd2": {33: 0.008, 66: 0.004, 100: 0.004},
        "bd": {33: 0.004, 66: 0.004, 100: 0.004},
    },
    "loihi": {
        "pd1": {33: 0.003, 66: 0.002, 100: 0.002},
        "pd2": {33: 0.009, 66: 0.008, 100: 0.006},
        "bd": {33: 0.02, 66: 0.008, 100: 0.006},
    },
}

STAGES = {"cpu": 1, "fpga": 2, "loihi": 1}


def preset_names() -> list[str]:
    return [
        f"{hw}-{sensor}-{red}"
        for hw, sensors in TAU_TABLE.items()
        for sensor, taus in sensors.items()
        for red in taus
    ]


def get_preset(name: str) -> FilterConfig:
    """Resolve a preset name to a FilterConfig (same tau on input and output)."""
    parts = name.lower().split("-")
    if len(parts) != 3:
        raise ConfigError(f"preset name must look like 'cpu-pd1-66', got {name!r}")
    hw, sensor, red_s = parts
    try:
        red = int(red_s)
        tau = TAU_TABLE[hw][sensor][red]
    except (KeyError, ValueError):
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        ) from None
    return FilterConfig(tau_in=tau, tau_out=tau, stages=STAGES[hw])
