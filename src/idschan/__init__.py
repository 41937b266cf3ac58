"""Toolkit for 28 GHz multipath channels in dense cabins (aircraft, wagons, pods).

Synthesizes and ingests multipath datasets, extracts large-scale, small-scale
and angular channel statistics, draws stochastic channel realizations from
parameter tables, and evaluates RSSI and uncoded BPSK error rates.
"""

from .pathdata import (
    Condition,
    Interaction,
    LinkBudget,
    MultipathComponent,
    PathTable,
    Provenance,
    RxRecord,
    ScenarioDataset,
    classify,
    load_dataset,
    make_record,
    save_dataset,
)
from .tracer import (
    Blocker,
    CabinLayout,
    Material,
    MATERIALS,
    Scene,
    ScenarioPreset,
    build_scenario,
    scene_from_json,
    trace_link,
    trace_scenario,
)
from .params import ChannelParamSet, ConditionParams, PRESETS, preset
from .extract import (
    PathLossFit,
    angular_spread,
    fit_path_loss,
    k_factor,
    path_loss_of,
    rms_delay_spread,
    summarize,
)
from .genchan import ChannelRealization, draw_realization, realizations_to_dataset
from .linksim import BerPoint, BerSweep, ber_bpsk, ber_sweep, noise_floor, rssi_map

__version__ = "0.1.0"

__all__ = [
    "Condition",
    "Interaction",
    "MultipathComponent",
    "PathTable",
    "Provenance",
    "RxRecord",
    "ScenarioDataset",
    "classify",
    "load_dataset",
    "make_record",
    "save_dataset",
    "Blocker",
    "CabinLayout",
    "Material",
    "MATERIALS",
    "Scene",
    "ScenarioPreset",
    "build_scenario",
    "scene_from_json",
    "trace_link",
    "trace_scenario",
    "ChannelParamSet",
    "ConditionParams",
    "PRESETS",
    "preset",
    "PathLossFit",
    "angular_spread",
    "fit_path_loss",
    "k_factor",
    "path_loss_of",
    "rms_delay_spread",
    "summarize",
    "ChannelRealization",
    "draw_realization",
    "realizations_to_dataset",
    "BerPoint",
    "BerSweep",
    "LinkBudget",
    "ber_bpsk",
    "ber_sweep",
    "noise_floor",
    "rssi_map",
    "__version__",
]
