"""Channel statistics from multipath datasets.

Per-record statistics work on linear powers (milliwatts): path loss against
total received power, K-factor as direct-to-rest power ratio, RMS delay
spread as the second central moment of the power delay profile, and the four
angular spreads via the power-weighted linear mean, wrapped deviation and
power-weighted RMS, computed in radians and reported in degrees.

``summarize`` aggregates these over a dataset into a ChannelParamSet plus the
LOS/NLOS/DS/Outage share vector.

The delay and angular spreads are block kernels over C-contiguous (R, n)
power and value arrays, one row per record: ``summarize`` groups a
condition's records by path count and calls each kernel once per group, and
the per-record ``rms_delay_spread``/``angular_spread`` are its R = 1 case.
A row sum of such a block is bit-identical to ``np.sum`` of the row alone,
so a record's statistics do not depend on the records it is grouped with
(``np.add.reduceat`` is not: it moves the last bit). The square of the mean
delay stays a numpy scalar's ``**``, which calls libm ``pow``; an array's
``**2`` is ``x*x`` and differs from it in the last bit on some values. The
K-factor and its ``math.fsum`` stay per record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pathdata import Condition, Interaction, LinkBudget, RxRecord, ScenarioDataset
from .params import ChannelParamSet, ConditionParams


class FitError(ValueError):
    """Path-loss fit impossible: too few points or degenerate distances."""


class NoPathError(ValueError):
    """Statistic requested for an outage record."""


ANGLE_FIELDS = {
    "ASD": "aod_az_deg",
    "ASA": "aoa_az_deg",
    "ESD": "aod_el_deg",
    "ESA": "aoa_el_deg",
}


@dataclass(frozen=True)
class PathLossFit:
    """A/B model fit: PL = A + 10 B log10(d / 1 m) + Normal(0, sigma_SF)."""

    a_db: float
    b: float
    sigma_sf_db: float
    condition: Condition
    n_points: int


def path_loss_of(record: RxRecord, budget: LinkBudget) -> float:
    """Loss in dB against the total (summed) received power of the record."""
    if not record.paths:
        raise NoPathError(f"rx {record.rx_id} is in outage, path loss undefined")
    rx_dbm = 10.0 * math.log10(record.total_power_mw)
    return budget.lossless_rx_dbm - rx_dbm


def fit_path_loss(ds: ScenarioDataset, condition: Condition) -> PathLossFit:
    """Ordinary least squares of PL over 10 log10(d), against the dataset's own
    link budget; shadow fading is the sample standard deviation (n-1
    denominator) of the residuals."""
    records = ds.records_of(condition)
    if len(records) < 2:
        raise FitError(f"need >= 2 {condition.value} records, have {len(records)}")
    d = np.array([r.distance_3d_m for r in records])
    pl = np.array([path_loss_of(r, ds.link_budget) for r in records])
    x = 10.0 * np.log10(d)
    if np.ptp(x) < 1e-12:
        raise FitError(f"all {condition.value} records share one distance; fit is singular")
    xm = x.mean()
    ym = pl.mean()
    b = float(np.sum((x - xm) * (pl - ym)) / np.sum((x - xm) ** 2))
    a = float(ym - b * xm)
    resid = pl - (a + b * x)
    sigma = float(np.sqrt(np.sum(resid**2) / (len(records) - 1)))
    return PathLossFit(a_db=a, b=b, sigma_sf_db=sigma, condition=condition, n_points=len(records))


def k_factor(record: RxRecord) -> float | None:
    """K-factor in dB: direct-path power over the summed power of the rest.

    Records without an unobstructed direct path (NLOS/DS/Outage) yield None;
    a single-path record has an empty "rest" and yields +inf.
    """
    direct = np.flatnonzero(record.paths.interactions == Interaction.DIRECT.value)
    if direct.size == 0:
        return None
    ref_idx = int(direct[0])
    powers = record.paths.power_mw.tolist()
    rest = math.fsum(powers[:ref_idx] + powers[ref_idx + 1:])
    if rest == 0.0:
        return math.inf
    return 10.0 * math.log10(powers[ref_idx] / rest)


def rms_delay_spreads(power_mw: np.ndarray, delay_ns: np.ndarray) -> np.ndarray:
    """Power-weighted RMS spread of the path delays, in ns, of each row of
    (R, n) power and delay blocks."""
    psum = power_mw.sum(axis=1)
    m1 = np.sum(delay_ns * power_mw, axis=1) / psum
    m2 = np.sum(delay_ns**2 * power_mw, axis=1) / psum
    m1_sq = np.array([m**2 for m in m1])  # scalar pow per element, not the array's x*x
    return np.sqrt(np.maximum(m2 - m1_sq, 0.0))


def angular_spreads(power_mw: np.ndarray, angle_deg: np.ndarray) -> np.ndarray:
    """RMS angular spread in degrees of each row of (R, n) power and angle blocks.

    Three steps on linear power weights: mean angle as the power-weighted
    average of the raw angles, deviations wrapped into (-pi, pi] via
    mod(theta - mean + pi, 2 pi) - pi, then the power-weighted RMS of the
    deviations. The linear (non-circular) mean makes the result sensitive to
    the +-180 degree seam for azimuth data that straddles it.
    """
    theta = np.radians(angle_deg)
    psum = power_mw.sum(axis=1)
    nu = np.sum(theta * power_mw, axis=1) / psum
    dev = np.mod(theta - nu[:, None] + np.pi, 2.0 * np.pi) - np.pi
    return np.degrees(np.sqrt(np.sum(dev**2 * power_mw, axis=1) / psum))


def rms_delay_spread(record: RxRecord) -> float:
    """Power-weighted RMS spread of the path delays, in ns."""
    if not record.paths:
        raise NoPathError(f"rx {record.rx_id} is in outage, delay spread undefined")
    return float(rms_delay_spreads(record.paths.power_mw[None], record.paths.delay_ns[None])[0])


def angular_spread(record: RxRecord, which: str) -> float:
    """RMS angular spread in degrees for one of ASD, ASA, ESD, ESA (see ``angular_spreads``)."""
    key = which.upper()
    if key not in ANGLE_FIELDS:
        raise ValueError(f"which must be one of {sorted(ANGLE_FIELDS)}, got {which!r}")
    if not record.paths:
        raise NoPathError(f"rx {record.rx_id} is in outage, angular spread undefined")
    angles = getattr(record.paths, ANGLE_FIELDS[key])
    return float(angular_spreads(record.paths.power_mw[None], angles[None])[0])


# --------------------------------------------------------------------------
# dataset-level aggregation
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DatasetSummary:
    params: ChannelParamSet
    ratios: dict[Condition, float]


def _mean_std(values: list[float]) -> tuple[float, float]:
    """Compensated mean and n-1 sample std; std is 0 for a single value."""
    n = len(values)
    mu = math.fsum(values) / n
    if n < 2:
        return mu, 0.0
    var = math.fsum((v - mu) ** 2 for v in values) / (n - 1)
    return mu, math.sqrt(var)


def _spreads(records: list[RxRecord]) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """RMS delay spread and the four angular spreads of each record, in record
    order, with one kernel call per statistic and path count."""
    counts = np.array([len(r.paths) for r in records])
    delay_spreads = np.empty(len(records))
    angle_spreads = {kind: np.empty(len(records)) for kind in ANGLE_FIELDS}
    for n in np.unique(counts):
        rows = np.flatnonzero(counts == n)
        group = [records[i].paths for i in rows]

        def block(column: str) -> np.ndarray:
            return np.stack([getattr(paths, column) for paths in group])

        power = block("power_mw")
        delay_spreads[rows] = rms_delay_spreads(power, block("delay_ns"))
        for kind, column in ANGLE_FIELDS.items():
            angle_spreads[kind][rows] = angular_spreads(power, block(column))
    return delay_spreads, angle_spreads


def _condition_block(ds: ScenarioDataset, condition: Condition) -> ConditionParams | None:
    records = ds.records_of(condition)
    if not records:
        return None
    try:
        fit = fit_path_loss(ds, condition)
        a_db, b, sigma_sf = fit.a_db, fit.b, fit.sigma_sf_db
    except FitError:
        a_db = b = sigma_sf = None

    mu_kf = sigma_kf = None
    if condition is Condition.LOS:
        kfs = [k_factor(r) for r in records]
        finite = [k for k in kfs if k is not None and math.isfinite(k)]
        if finite:
            mu_kf, sigma_kf = _mean_std(finite)

    delay_spreads, angle_spreads = _spreads(records)
    mu_ds, sigma_ds = _mean_std(delay_spreads.tolist())
    spreads = {kind: _mean_std(values.tolist()) for kind, values in angle_spreads.items()}

    return ConditionParams(
        a_db=a_db,
        b=b,
        sigma_sf_db=sigma_sf,
        mu_kf_db=mu_kf,
        sigma_kf_db=sigma_kf,
        mu_ds_ns=mu_ds,
        sigma_ds_ns=sigma_ds,
        mu_asd_deg=spreads["ASD"][0],
        sigma_asd_deg=spreads["ASD"][1],
        mu_asa_deg=spreads["ASA"][0],
        sigma_asa_deg=spreads["ASA"][1],
        mu_esd_deg=spreads["ESD"][0],
        sigma_esd_deg=spreads["ESD"][1],
        mu_esa_deg=spreads["ESA"][0],
        sigma_esa_deg=spreads["ESA"][1],
    )


def summarize(ds: ScenarioDataset) -> DatasetSummary:
    """Parameter set plus condition shares for one dataset.

    LOS and NLOS get full statistics blocks (absent when no records fall in
    the condition); DS and Outage records only contribute to the shares, as
    the parameter tables carry LOS/NLOS columns only. Single-path LOS records
    have an infinite K-factor and are left out of the K-factor moments.
    """
    if not ds.records:
        raise ValueError("cannot summarize an empty dataset")
    counts = {c: len(ds.records_of(c)) for c in Condition}
    total = len(ds.records)
    ratios = {c: counts[c] / total for c in Condition}
    params = ChannelParamSet(
        name=ds.scenario_name,
        los=_condition_block(ds, Condition.LOS),
        nlos=_condition_block(ds, Condition.NLOS),
    )
    return DatasetSummary(params=params, ratios=ratios)
