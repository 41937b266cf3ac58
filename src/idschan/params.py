"""Per-condition channel parameter sets and the built-in scenario presets.

Each set carries the large-scale fit (intercept A at 1 m, slope B, shadow
fading sigma), the K-factor and RMS delay-spread statistics, and mean/std of
the four RMS angular spreads, separately for LOS and NLOS. The bundled
presets cover the four cabin scenarios plus an indoor-office reference
column; values are stored exactly as published, including a few oddities
(negative sigma_KF entries and the indoor-office sigma_DS magnitudes, see
the generator for how those are consumed).
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .pathdata import Condition, format_float, write_rows


@dataclass(frozen=True)
class ConditionParams:
    """Statistics for one propagation condition (LOS or NLOS)."""

    a_db: float | None
    b: float | None
    sigma_sf_db: float | None
    mu_kf_db: float | None
    sigma_kf_db: float | None
    mu_ds_ns: float
    sigma_ds_ns: float
    mu_asd_deg: float
    sigma_asd_deg: float
    mu_asa_deg: float
    sigma_asa_deg: float
    mu_esd_deg: float
    sigma_esd_deg: float
    mu_esa_deg: float
    sigma_esa_deg: float
    # Optional log10-domain delay-spread sigma (log10 of DS in ns). When set,
    # generators draw DS as 10**Normal(log10(mu_ds_ns), ds_log10_sigma)
    # instead of moment-matching a lognormal to (mu_ds_ns, sigma_ds_ns).
    ds_log10_sigma: float | None = None


@dataclass(frozen=True)
class ChannelParamSet:
    """Named LOS/NLOS parameter pair; blocks may be absent."""

    name: str
    los: ConditionParams | None = None
    nlos: ConditionParams | None = None

    def block(self, condition: Condition | str) -> ConditionParams:
        condition = Condition(condition)
        blk = {Condition.LOS: self.los, Condition.NLOS: self.nlos}.get(condition)
        if blk is None:
            raise KeyError(f"{self.name}: no {condition.value} parameter block")
        return blk


BL = ChannelParamSet(
    "BL",
    los=ConditionParams(58.49, 1.45, 5.58, -4.51, -8.11, 5.60, 2.35,
                        39.02, 15.35, 39.25, 15.10, 31.66, 39.97, 50.18, 25.40),
    nlos=ConditionParams(59.00, 3.62, 7.76, None, None, 3.82, 2.45,
                         15.88, 10.51, 19.18, 11.02, 16.34, 12.39, 72.83, 26.63),
)

CV = ChannelParamSet(
    "CV",
    los=ConditionParams(61.72, 1.91, 4.55, 4.3, 2.32, 2.58, 1.46,
                        18.12, 12.63, 15.36, 10.11, 22.87, 25.33, 35.36, 18.65),
    nlos=ConditionParams(64.90, 4.00, 7.22, None, None, 2.60, 1.83,
                         6.32, 6.19, 14.25, 7.49, 11.33, 6.76, 70.33, 28.51),
)

REC_V = ChannelParamSet(
    "RecV",
    los=ConditionParams(60.37, 1.66, 5.80, -1.98, -4.69, 11.82, 5.56,
                        11.87, 7.02, 29.80, 17.19, 70.24, 30.21, 61.72, 19.44),
    nlos=ConditionParams(62.52, 3.64, 6.84, None, None, 5.68, 3.22,
                         3.80, 3.61, 14.35, 8.23, 30.31, 18.03, 70.68, 28.15),
)

EM_V = ChannelParamSet(
    "EmV",
    los=ConditionParams(59.00, 1.41, 5.64, -4.81, -8.07, 5.92, 2.50,
                        38.67, 15.12, 41.66, 9.81, 31.48, 39.23, 52.01, 25.55),
    nlos=ConditionParams(59.28, 3.94, 9.38, None, None, 4.70, 3.22,
                         15.30, 10.96, 13.61, 13.60, 17.51, 14.18, 70.18, 28.36),
)

# Indoor-office reference. The published sigma_DS magnitudes (1.51e8 /
# 1.58e8 ns) are kept verbatim for table dumps but are unusable as linear
# moments; ds_log10_sigma carries the log-domain spreads of the indoor-office
# model family, whose medians reproduce the 19.65 / 26.15 ns entries at the
# 28 GHz carrier.
GPP_INO = ChannelParamSet(
    "3GPP-InO",
    los=ConditionParams(61.34, 1.73, 3.0, 7.0, 4.0, 19.65, 1.51e8,
                        39.81, 1.51, 31.85, 1.97, 1.37, 3.09, 11.47, 1.60,
                        ds_log10_sigma=0.18),
    nlos=ConditionParams(53.33, 3.83, 8.03, None, None, 26.15, 1.58e8,
                         41.68, 1.72, 50.36, 1.71, 12.02, 2.29, 14.71, 4.11,
                         ds_log10_sigma=0.10),
)

PRESETS: dict[str, ChannelParamSet] = {p.name: p for p in (BL, CV, REC_V, EM_V, GPP_INO)}

_ALIASES = {
    "bl": "BL",
    "cv": "CV",
    "c-v": "CV",
    "recv": "RecV",
    "rec-v": "RecV",
    "emv": "EmV",
    "em-v": "EmV",
    "3gpp-ino": "3GPP-InO",
    "3gppino": "3GPP-InO",
    "ino": "3GPP-InO",
}


def preset(name: str) -> ChannelParamSet:
    """Look up a built-in parameter set by (case-insensitive) name or alias; an unknown name is
    quoted cut short by ``reprlib``."""
    key = _ALIASES.get(name.strip().lower())
    if key is None:
        raise KeyError(f"unknown preset {reprlib.repr(name)}; choose from {sorted(PRESETS)}")
    return PRESETS[key]


# Table row labels, in ConditionParams' field order; each label's field is ``label.lower()``.
PARAM_ROWS = ("A_dB", "B", "sigma_SF_dB", "mu_KF_dB", "sigma_KF_dB", "mu_DS_ns", "sigma_DS_ns",
              "mu_ASD_deg", "sigma_ASD_deg", "mu_ASA_deg", "sigma_ASA_deg",
              "mu_ESD_deg", "sigma_ESD_deg", "mu_ESA_deg", "sigma_ESA_deg")


def _cell(value: float | None) -> str:
    """A statistic's table cell; n/a (None) means no fit was possible, as summarize lets no NaN through."""
    return "n/a" if value is None else format_float(value)


def params_table(sets: Sequence[ChannelParamSet]) -> list[list[str]]:
    """Parameter rows x (scenario, condition) columns, as CSV-ready strings."""
    header = ["param"]
    blocks: list[ConditionParams | None] = []
    for ps in sets:
        for cond, blk in (("LOS", ps.los), ("NLOS", ps.nlos)):
            header.append(f"{ps.name}:{cond}")
            blocks.append(blk)
    rows = [header]
    for label in PARAM_ROWS:
        row = [label]
        for blk in blocks:
            row.append("absent" if blk is None else _cell(getattr(blk, label.lower())))
        rows.append(row)
    return rows


def write_params_csv(sets: Sequence[ChannelParamSet], path: str | Path) -> None:
    write_rows(path, params_table(sets))


def write_ratios_csv(
    ratios_by_scenario: Sequence[tuple[str, dict[Condition, float]]], path: str | Path
) -> None:
    """Condition-share table: one row per scenario, columns LOS/NLOS/DS/Outage."""
    write_rows(path, [["scenario"] + [c.value.lower() for c in Condition]] + [
        [name] + [format_float(ratios.get(c, 0.0)) for c in Condition] for name, ratios in ratios_by_scenario
    ])
