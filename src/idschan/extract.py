"""Channel statistics from multipath datasets.

Per-record statistics work on linear powers (milliwatts): path loss against
total received power, K-factor as direct-to-rest power ratio, RMS delay
spread as the second central moment of the power delay profile, and the four
angular spreads via the power-weighted linear mean, wrapped deviation and
power-weighted RMS, computed in radians and reported in degrees.

``summarize`` aggregates these over a dataset into a ChannelParamSet plus the
LOS/NLOS/DS/Outage share vector from the dataset's columns, its milliwatts
and per-receiver totals among them. A non-finite spread, K-factor or fit
output raises DatasetValidationError naming the rx; no numpy warning escapes.

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
from typing import Sequence

import numpy as np

from .pathdata import Condition, DatasetValidationError, LinkBudget, RxRecord, ScenarioDataset, mw_to_dbm
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


def _path_loss_db(total_mw: float, budget: LinkBudget) -> float:
    return budget.lossless_rx_dbm - mw_to_dbm(total_mw)


def fit_path_loss(ds: ScenarioDataset, condition: Condition) -> PathLossFit:
    """Ordinary least squares of PL, against each receiver's total power and the
    dataset's own link budget, over 10 log10(d); shadow fading is the sample
    standard deviation (n-1 denominator) of the residuals."""
    rows = np.flatnonzero(ds.conditions == condition)
    if len(rows) < 2:
        raise FitError(f"need >= 2 {condition.value} records, have {len(rows)}")
    pl = np.array([_path_loss_db(total, ds.link_budget) for total in ds.total_power_mw[rows].tolist()])
    x = 10.0 * np.log10(ds.distances[rows])
    if np.ptp(x) < 1e-12:
        raise FitError(f"all {condition.value} records share one distance; fit is singular")
    xm = x.mean()
    ym = pl.mean()
    b = float(np.sum((x - xm) * (pl - ym)) / np.sum((x - xm) ** 2))
    a = float(ym - b * xm)
    resid = pl - (a + b * x)
    sigma = float(np.sqrt(np.sum(resid**2) / (len(rows) - 1)))
    return PathLossFit(a_db=a, b=b, sigma_sf_db=sigma, condition=condition, n_points=len(rows))


def _k_factor_db(powers: list[float], ref: int) -> float:
    """K-factor in dB of one record's powers with the direct path at ``ref``;
    +inf without other paths, -inf when the ratio underflows to zero."""
    rest = math.fsum(powers[:ref] + powers[ref + 1:])
    if rest == 0.0:
        return math.inf
    return mw_to_dbm(powers[ref] / rest)


# Kept only as a patch point of the benchmark's per-layer mode (ROADMAP item 10).
def k_factor(record: RxRecord) -> float | None:
    """K-factor in dB: direct-path power over the summed power of the rest.

    Records without an unobstructed direct path (NLOS/DS/Outage) yield None;
    a single-path record has an empty "rest" and yields +inf.
    """
    direct = np.flatnonzero(record.paths.direct)
    if direct.size == 0:
        return None
    return _k_factor_db(record.paths.power_mw.tolist(), int(direct[0]))


def rms_delay_spreads(power: np.ndarray, delay_ns: np.ndarray) -> np.ndarray:
    """Power-weighted RMS spread of the path delays, in ns, of each row of
    (R, n) power (mW) and delay blocks."""
    psum = power.sum(axis=1)
    m1 = np.sum(delay_ns * power, axis=1) / psum
    m2 = np.sum(delay_ns**2 * power, axis=1) / psum
    m1_sq = np.array([m**2 for m in m1])  # scalar pow per element, not the array's x*x
    return np.sqrt(np.maximum(m2 - m1_sq, 0.0))


def angular_spreads(power: np.ndarray, angle_deg: np.ndarray) -> np.ndarray:
    """RMS angular spread in degrees of each row of (R, n) power and angle blocks.

    Three steps on linear power weights: mean angle as the power-weighted
    average of the raw angles, deviations wrapped into (-pi, pi] via
    mod(theta - mean + pi, 2 pi) - pi, then the power-weighted RMS of the
    deviations. The linear (non-circular) mean makes the result sensitive to
    the +-180 degree seam for azimuth data that straddles it.
    """
    theta = np.radians(angle_deg)
    psum = power.sum(axis=1)
    nu = np.sum(theta * power, axis=1) / psum
    dev = np.mod(theta - nu[:, None] + np.pi, 2.0 * np.pi) - np.pi
    return np.degrees(np.sqrt(np.sum(dev**2 * power, axis=1) / psum))


# Kept only as a patch point of the benchmark's per-layer mode (ROADMAP item 10).
def rms_delay_spread(record: RxRecord) -> float:
    """Power-weighted RMS spread of the path delays, in ns."""
    if not record.paths:
        raise NoPathError(f"rx {record.rx_id} is in outage, delay spread undefined")
    return float(rms_delay_spreads(record.paths.power_mw[None], record.paths.delay_ns[None])[0])


# Kept only as a patch point of the benchmark's per-layer mode (ROADMAP item 10).
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
    try:
        var = math.fsum((v - mu) ** 2 for v in values) / (n - 1)
    except OverflowError:  # the squares overflow, their root does not: scale as hypot does
        return mu, math.hypot(*(v - mu for v in values)) / math.sqrt(n - 1)
    return mu, math.sqrt(var)


def _spreads(ds: ScenarioDataset, rows: np.ndarray) -> np.ndarray:
    """(5, R) array: the RMS delay spread, then the angular spreads in
    ``ANGLE_FIELDS`` order, of each receiver in ``rows``, with one kernel call
    per statistic and path count on blocks taken by one fancy index."""
    counts, starts = ds.counts[rows], ds.offsets[rows]
    spreads = np.empty((1 + len(ANGLE_FIELDS), len(rows)))
    order = np.argsort(counts, kind="stable")
    for group in np.split(order, np.flatnonzero(np.diff(counts[order])) + 1):
        index = starts[group, None] + np.arange(counts[group[0]])
        power = ds.power_mw[index]
        spreads[0, group] = rms_delay_spreads(power, ds.paths.delay_ns[index])
        for k, column in enumerate(ANGLE_FIELDS.values(), 1):
            spreads[k, group] = angular_spreads(power, getattr(ds.paths, column)[index])
    return spreads


def _require_finite(values: np.ndarray, names: Sequence[str], rows: np.ndarray, ds: ScenarioDataset) -> None:
    """Raise naming the first receiver ``rows[i]`` (column ``i``) with a non-finite
    statistic (row ``k``) and that statistic."""
    bad = ~np.isfinite(values)
    if bad.any():
        i = int(np.argmax(bad.any(axis=0)))
        k = int(np.argmax(bad[:, i]))
        raise DatasetValidationError(f"rx {ds.rx_ids[rows[i]]}: {names[k]} is {float(values[k, i])}, not finite")


_SPREAD_NAMES = ("RMS delay spread", *(f"{kind} angular spread" for kind in ANGLE_FIELDS))


def _condition_block(ds: ScenarioDataset, condition: Condition) -> ConditionParams | None:
    """The condition's statistics, built positionally: ConditionParams' field
    order (fit, K-factor, then the mean and std of each spread) is the table's."""
    rows = np.flatnonzero(ds.conditions == condition)
    if rows.size == 0:
        return None
    with np.errstate(all="ignore"):
        try:
            fit = fit_path_loss(ds, condition)
            fit_out = [fit.a_db, fit.b, fit.sigma_sf_db]
        except FitError:
            fit_out = [None] * 3
        spreads = _spreads(ds, rows)
    if None not in fit_out and not all(map(math.isfinite, fit_out)):
        raise DatasetValidationError(f"{condition.value} path-loss fit (A, B, sigma_SF) = {fit_out} is not finite")

    mu_kf = sigma_kf = None
    if condition is Condition.LOS:  # single-path records have an infinite K-factor and are left out
        multi = rows[ds.counts[rows] > 1]
        starts, ends = ds.offsets[multi].tolist(), ds.offsets[multi + 1].tolist()
        direct = np.flatnonzero(ds.paths.direct)
        refs = direct[np.searchsorted(direct, starts)].tolist()
        kfs = np.array([[_k_factor_db(ds.power_mw[lo:hi].tolist(), ref - lo) for lo, hi, ref in zip(starts, ends, refs)]])
        _require_finite(kfs, ["K-factor"], multi, ds)
        if multi.size:
            mu_kf, sigma_kf = _mean_std(kfs[0].tolist())

    _require_finite(spreads, _SPREAD_NAMES, rows, ds)
    moments = [m for spread in spreads for m in _mean_std(spread.tolist())]
    return ConditionParams(*fit_out, mu_kf, sigma_kf, *moments)


def summarize(ds: ScenarioDataset) -> DatasetSummary:
    """Parameter set plus condition shares for one dataset.

    LOS and NLOS get full statistics blocks (absent when no records fall in
    the condition); DS and Outage records only contribute to the shares, as
    the parameter tables carry LOS/NLOS columns only. Single-path LOS records
    have an infinite K-factor and are left out of the K-factor moments. A
    non-finite statistic raises DatasetValidationError naming the rx.
    """
    total = len(ds.rx_ids)
    if not total:
        raise ValueError("cannot summarize an empty dataset")
    ratios = {c: int(np.count_nonzero(ds.conditions == c)) / total for c in Condition}
    params = ChannelParamSet(
        name=ds.scenario_name,
        los=_condition_block(ds, Condition.LOS),
        nlos=_condition_block(ds, Condition.NLOS),
    )
    return DatasetSummary(params=params, ratios=ratios)
