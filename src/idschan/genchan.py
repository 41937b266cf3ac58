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

``draw_realizations`` returns R realizations as one block, a
:class:`ChannelRealization` whose per-tap arrays are (R, n_taps), one row per
realization. It makes every generator call per realization, in this order,
and then runs the arithmetic of steps 2-6 once on the blocks: every operation
there is elementwise or a row sum, which is bit-identical to the same
operation on the row alone. The linear K stays a Python float ``**`` per
value. ``realizations_to_dataset`` ravels the block into a dataset with
``n_taps`` paths per receiver.

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
    """R normalized tapped profiles of one condition, one row each: the six
    per-tap fields are (R, n_taps) arrays whose powers sum to 1 along a row and
    whose first tap is at delay 0; ``kf_db`` (None for NLOS), ``sf_db`` and
    ``target_ds_ns`` are length-R arrays."""

    condition: Condition
    delays_ns: np.ndarray
    powers_lin: np.ndarray
    aod_az_deg: np.ndarray
    aod_el_deg: np.ndarray
    aoa_az_deg: np.ndarray
    aoa_el_deg: np.ndarray
    kf_db: np.ndarray | None
    sf_db: np.ndarray
    target_ds_ns: np.ndarray


def _require_params(block: ConditionParams, names: tuple[str, ...]) -> None:
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
) -> ChannelRealization:
    """One tapped realization per seed, as one block whose row i is deterministic
    given (params, condition, n_taps, seed i)."""
    condition = Condition(condition)
    if condition not in (Condition.LOS, Condition.NLOS):
        raise ValueError(f"can only generate LOS or NLOS realizations, not {condition}")
    if not 2 <= n_taps <= MAX_TAPS:
        raise ValueError(f"n_taps must be from 2 to {MAX_TAPS}, got {n_taps}")
    block = params.block(condition)
    _require_params(block, ("mu_ds_ns", "sigma_ds_ns", "sigma_sf_db"))
    is_los = condition is Condition.LOS
    if is_los:
        _require_params(block, ("mu_kf_db", "sigma_kf_db"))
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
    return ChannelRealization(condition, delays, powers, azimuths[:, 0], elevations[:, 0], azimuths[:, 1],
                              elevations[:, 1], np.array(kf_dbs) if is_los else None, np.array(sf_dbs),
                              np.array(targets))


# Kept only as a patch point of the benchmark's per-layer mode (ROADMAP item 10).
def draw_realization(
    params: ChannelParamSet,
    condition: Condition | str,
    n_taps: int = 20,
    rng_seed: int = 0,
) -> ChannelRealization:
    """The R = 1 block of one seed; deterministic given (params, condition, n_taps, seed)."""
    return draw_realizations(params, condition, n_taps, [rng_seed])


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


def realizations_to_dataset(reals: ChannelRealization, name: str, budget) -> ScenarioDataset:
    """Pack a block of realizations as a dataset, receiver i from row i, at the
    nominal TX-RX separation RX_DISTANCE_M, so they round-trip through the CSV
    schema and the extraction pipeline.

    Tap 0 of a LOS realization becomes the direct path, every other tap a
    reflection; normalized linear powers map to dBm, and delays get the
    line-of-flight offset so they stay strictly positive.
    """
    base_delay_ns = RX_DISTANCE_M / SPEED_OF_LIGHT * 1e9
    n, n_taps = reals.delays_ns.shape
    tags = np.full((n, n_taps), Interaction.REFLECT.value)
    if reals.condition is Condition.LOS:
        tags[:, 0] = Interaction.DIRECT.value
    angles = (reals.aod_az_deg, reals.aod_el_deg, reals.aoa_az_deg, reals.aoa_el_deg)
    paths = PathTable([mw_to_dbm(p) for p in reals.powers_lin.ravel().tolist()],
                      reals.delays_ns.ravel() + base_delay_ns, *(a.ravel() for a in angles), tags.ravel(),
                      lambda k: f"rx {k // n_taps}")
    return ScenarioDataset(name, (0.0, 0.0, 0.0), budget, range(n), [(RX_DISTANCE_M, 0.0, 0.0)] * n, paths,
                           [n_taps] * n, Provenance.SYNTHETIC)
