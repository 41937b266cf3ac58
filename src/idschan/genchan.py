"""Stochastic tapped-multipath realizations drawn from a ChannelParamSet.

Draw procedure per realization (all randomness from one seeded generator, in
a fixed order, so a seed pins the result bit-for-bit):

1. delay-spread target from the configured DS distribution, K-factor from
   Normal(mu_KF, |sigma_KF|) for LOS, shadow fade from Normal(0, sigma_SF);
2. n_taps - 1 excess delays from an exponential, sorted, 0 prepended;
3. tap powers proportional to exp(-delay / scale);
4. for LOS, tap 0 reassigned so the tap-0 to rest power ratio equals the
   drawn K exactly, remaining taps renormalized;
5. delays rescaled linearly so the realized RMS delay spread equals the
   target exactly;
6. per-tap departure/arrival angles from wrapped Gaussians around a
   per-realization mean, with std equal to the corresponding mean spread.

``draw_realizations`` makes every generator call per realization, in this
order, and then runs the arithmetic of steps 2-6 once on (R, n_taps) blocks,
one row per realization: every operation there is elementwise or a row sum,
which is bit-identical to the same operation on the row alone. The linear K
stays a Python float ``**`` per value. ``draw_realization`` is its one-seed
case.

Negative sigma_KF preset entries are used via their absolute value. The
spread-of-spreads across realizations is not reproduced for the angular
dimensions; only the DS distribution is matched across draws.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .geometry import SPEED_OF_LIGHT, fold_elevation_deg, wrap_azimuth_deg
from .params import ChannelParamSet, ConditionParams
from .pathdata import (
    Condition,
    Interaction,
    PathTable,
    Provenance,
    ScenarioDataset,
    mw_to_dbm,
)


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """Normalized tapped profile of per-tap arrays: powers sum to 1, first tap at delay 0."""

    condition: Condition
    delays_ns: np.ndarray
    powers_lin: np.ndarray
    aod_az_deg: np.ndarray
    aod_el_deg: np.ndarray
    aoa_az_deg: np.ndarray
    aoa_el_deg: np.ndarray
    kf_db: float | None
    sf_db: float
    target_ds_ns: float


def _require_finite(block: ConditionParams, names: tuple[str, ...]) -> None:
    for name in names:
        v = getattr(block, name)
        if v is None or not math.isfinite(v):
            raise ValueError(f"parameter {name} is missing or non-finite: {v!r}")


def draw_ds(block: ConditionParams, rng: np.random.Generator, size=None):
    """Delay-spread draws in ns.

    With ds_log10_sigma set, draws are 10**Normal(log10(mu), sigma_lg); with
    sigma_ds_ns == 0 the draw degenerates to mu_ds_ns; otherwise a lognormal
    is moment-matched so its linear-domain mean and std equal (mu, sigma).
    """
    mu, sigma = block.mu_ds_ns, block.sigma_ds_ns
    if block.ds_log10_sigma is not None:
        return 10.0 ** rng.normal(math.log10(mu), block.ds_log10_sigma, size)
    if sigma == 0.0:
        return mu if size is None else np.full(size, mu)
    var_ln = math.log(1.0 + (sigma / mu) ** 2)
    mu_ln = math.log(mu) - var_ln / 2.0
    return np.exp(rng.normal(mu_ln, math.sqrt(var_ln), size))


def _rms_spreads(delays: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """RMS delay spread of each row of (R, n) blocks whose powers sum to 1."""
    m1 = np.sum(delays * powers, axis=1)
    m2 = np.sum(delays**2 * powers, axis=1)
    return np.sqrt(np.maximum(m2 - m1 * m1, 0.0))


# More taps are rejected, so a realization's memory stays bounded; `gen` defaults to 20.
MAX_TAPS = 100
# Half-widths of the uniform mean angles: ASD, ASA (azimuths), ESD, ESA (elevations).
_MEAN_HALF_WIDTHS_DEG = (180.0, 180.0, 90.0, 90.0)


def draw_realizations(
    params: ChannelParamSet,
    condition: Condition | str,
    n_taps: int,
    seeds: Iterable[int],
) -> list[ChannelRealization]:
    """One tapped realization per seed, each deterministic given (params,
    condition, n_taps, seed); the arrays of realization i are row i of
    (R, n_taps) blocks."""
    condition = Condition(condition)
    if condition not in (Condition.LOS, Condition.NLOS):
        raise ValueError(f"can only generate LOS or NLOS realizations, not {condition}")
    if not 2 <= n_taps <= MAX_TAPS:
        raise ValueError(f"n_taps must be from 2 to {MAX_TAPS}, got {n_taps}")
    block = params.block(condition)
    _require_finite(block, ("mu_ds_ns", "sigma_ds_ns", "sigma_sf_db"))
    is_los = condition is Condition.LOS
    if is_los:
        _require_finite(block, ("mu_kf_db", "sigma_kf_db"))
    angle_stds = (block.mu_asd_deg, block.mu_asa_deg, block.mu_esd_deg, block.mu_esa_deg)

    seeds = list(seeds)
    targets, kf_dbs, sf_dbs = [], [], []
    excess = np.empty((len(seeds), n_taps - 1))
    means = np.empty((len(seeds), 4, 1))
    angles = np.empty((len(seeds), 4, n_taps))  # ASD, ASA, ESD, ESA
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        ds_target = float(draw_ds(block, rng))
        targets.append(ds_target)
        kf_dbs.append(float(rng.normal(block.mu_kf_db, abs(block.sigma_kf_db))) if is_los else None)
        sf_dbs.append(float(rng.normal(0.0, block.sigma_sf_db)))
        excess[i] = rng.exponential(ds_target, n_taps - 1)
        means[i, :, 0] = [rng.uniform(-half, half) for half in _MEAN_HALF_WIDTHS_DEG]
        for k, std in enumerate(angle_stds):
            angles[i, k] = rng.normal(0.0, std, n_taps)

    target = np.array(targets)[:, None]
    delays = np.zeros((len(seeds), n_taps))
    delays[:, 1:] = np.sort(excess, axis=1)
    weights = np.exp(-delays / target)
    if is_los:
        k_lin = np.array([10.0 ** (kf_db / 10.0) for kf_db in kf_dbs])[:, None]
        powers = np.empty_like(weights)
        powers[:, :1] = k_lin / (1.0 + k_lin)
        powers[:, 1:] = weights[:, 1:] / weights[:, 1:].sum(axis=1, keepdims=True) * (1.0 / (1.0 + k_lin))
    else:
        powers = weights / weights.sum(axis=1, keepdims=True)
    powers = powers / powers.sum(axis=1, keepdims=True)
    delays = delays * (target / _rms_spreads(delays, powers)[:, None])

    angles += means
    azimuths = wrap_azimuth_deg(angles[:, :2])
    elevations = fold_elevation_deg(angles[:, 2:])
    return [
        ChannelRealization(condition, delays[i], powers[i], azimuths[i, 0], elevations[i, 0],
                           azimuths[i, 1], elevations[i, 1], kf_dbs[i], sf_dbs[i], targets[i])
        for i in range(len(seeds))
    ]


def draw_realization(
    params: ChannelParamSet,
    condition: Condition | str,
    n_taps: int = 20,
    rng_seed: int = 0,
) -> ChannelRealization:
    """One tapped realization; deterministic given (params, condition, n_taps, seed)."""
    return draw_realizations(params, condition, n_taps, [rng_seed])[0]


# --------------------------------------------------------------------------
# narrowband fading gains
# --------------------------------------------------------------------------


def draw_fades(kf_db, rng: np.random.Generator, size: int) -> np.ndarray:
    """Unit-mean-power complex fades: Rician for per-fade K in dB, Rayleigh for None.

    ``kf_db`` may be a scalar or an array of per-fade values; +inf collapses
    to a pure rotated constant of magnitude 1.
    """
    scatter = (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / math.sqrt(2.0)
    if kf_db is None:
        return scatter
    k = 10.0 ** (np.asarray(kf_db, dtype=float) / 10.0)
    phase = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size))
    with np.errstate(invalid="ignore"):
        los_amp = np.where(np.isinf(k), 1.0, np.sqrt(k / (k + 1.0)))
        nlos_amp = np.where(np.isinf(k), 0.0, np.sqrt(1.0 / (k + 1.0)))
    return los_amp * phase + nlos_amp * scatter


# --------------------------------------------------------------------------
# export as a multipath dataset
# --------------------------------------------------------------------------

# TX-RX separation of every exported realization, in metres
RX_DISTANCE_M = 1.0


def realizations_to_dataset(reals: list[ChannelRealization], name: str, budget) -> ScenarioDataset:
    """Pack realizations as a dataset at the nominal TX-RX separation
    RX_DISTANCE_M, so they round-trip through the CSV schema and the
    extraction pipeline.

    Tap 0 of a LOS realization becomes the direct path, every other tap a
    reflection; normalized linear powers map to dBm, and delays get the
    line-of-flight offset so they stay strictly positive.
    """
    base_delay_ns = RX_DISTANCE_M / SPEED_OF_LIGHT * 1e9
    tx = (0.0, 0.0, 0.0)
    counts = np.array([len(real.delays_ns) for real in reals], dtype=np.intp)
    owner = np.repeat(np.arange(len(reals)), counts)
    powers, delays, *angles = (
        np.concatenate([getattr(real, field) for real in reals] + [np.empty(0)])
        for field in ("powers_lin", "delays_ns", "aod_az_deg", "aod_el_deg", "aoa_az_deg", "aoa_el_deg")
    )
    is_los = np.array([real.condition is Condition.LOS for real in reals], dtype=bool)
    tags = np.full(owner.size, Interaction.REFLECT.value)
    tags[(np.cumsum(counts) - counts)[is_los & (counts > 0)]] = Interaction.DIRECT.value
    paths = PathTable([mw_to_dbm(p) for p in powers.tolist()], delays + base_delay_ns, *angles, tags,
                      lambda k: f"rx {owner[k]}")
    return ScenarioDataset(name, tx, budget, range(len(reals)), [(RX_DISTANCE_M, 0.0, 0.0)] * len(reals), paths,
                           counts, Provenance.SYNTHETIC)
