import dataclasses
import math
from typing import NamedTuple

import numpy as np
import pytest
from scipy import stats

from dataset_builder import realizations_to_dataset_per_realization

from idschan.extract import k_factor, rms_delay_spread
from idschan.genchan import (
    ChannelRealization,
    draw_ds,
    draw_fades,
    draw_realization,
    draw_realizations,
    realizations_to_dataset,
)
from idschan.geometry import fold_elevation_deg, wrap_azimuth_deg
from idschan.linksim import LinkBudget
from idschan.params import BL, GPP_INO, ChannelParamSet, ConditionParams
from idschan.pathdata import Condition, load_dataset, save_dataset


def degenerate_preset(mu_ds=5.0, sigma_ds=0.0, mu_kf=3.0, sigma_kf=0.0):
    blk = ConditionParams(
        a_db=60.0, b=2.0, sigma_sf_db=1.0, mu_kf_db=mu_kf, sigma_kf_db=sigma_kf,
        mu_ds_ns=mu_ds, sigma_ds_ns=sigma_ds,
        mu_asd_deg=10.0, sigma_asd_deg=1.0, mu_asa_deg=10.0, sigma_asa_deg=1.0,
        mu_esd_deg=5.0, sigma_esd_deg=1.0, mu_esa_deg=5.0, sigma_esa_deg=1.0,
    )
    return ChannelParamSet("degenerate", los=blk, nlos=blk)


def realized_rms_ds(p: np.ndarray, t: np.ndarray) -> float:
    """RMS delay spread of one realization's tap powers ``p`` and delays ``t``."""
    m1 = float(np.sum(t * p))
    m2 = float(np.sum(t * t * p))
    return math.sqrt(max(m2 - m1 * m1, 0.0))


def same_realization(a: ChannelRealization, b: ChannelRealization) -> bool:
    return all(
        np.array_equal(getattr(a, f.name), getattr(b, f.name))
        for f in dataclasses.fields(ChannelRealization)
    )


class TestRealizationInvariants:
    @pytest.mark.parametrize("condition", [Condition.LOS, Condition.NLOS])
    def test_invariants_over_seeds(self, condition):
        block = draw_realizations(BL, condition, 20, range(300))
        assert block.condition is condition and block.delays_ns.shape == (300, 20)
        assert block.sf_db.shape == block.target_ds_ns.shape == (300,)
        if condition is Condition.NLOS:
            assert block.kf_db is None
        for i in range(300):
            p = block.powers_lin[i]
            t = block.delays_ns[i]
            assert abs(p.sum() - 1.0) <= 1e-12
            assert t[0] == 0.0
            assert np.all(np.diff(t) >= 0.0)
            assert np.all(t >= 0.0)
            assert math.isclose(realized_rms_ds(p, t), block.target_ds_ns[i], rel_tol=1e-9)
            if condition is Condition.LOS:
                ratio = p[0] / p[1:].sum()
                assert math.isclose(ratio, 10 ** (block.kf_db[i] / 10.0), rel_tol=1e-9)

    def test_angles_within_domains(self):
        real = draw_realizations(BL, Condition.LOS, 20, range(100))
        for az in (real.aod_az_deg, real.aoa_az_deg):
            assert np.all((-180.0 < az) & (az <= 180.0))
        for el in (real.aod_el_deg, real.aoa_el_deg):
            assert np.all((-90.0 <= el) & (el <= 90.0))

    def test_deterministic_given_seed(self):
        a = draw_realization(BL, Condition.LOS, n_taps=16, rng_seed=99)
        b = draw_realization(BL, Condition.LOS, n_taps=16, rng_seed=99)
        assert same_realization(a, b)
        c = draw_realization(BL, Condition.LOS, n_taps=16, rng_seed=100)
        assert not same_realization(a, c)

    def test_degenerate_sigma_ds_exact(self):
        ps = degenerate_preset(mu_ds=5.0, sigma_ds=0.0)
        real = draw_realizations(ps, Condition.LOS, 20, range(20))
        assert (real.target_ds_ns == 5.0).all()
        for p, t in zip(real.powers_lin, real.delays_ns):
            assert math.isclose(realized_rms_ds(p, t), 5.0, rel_tol=1e-9)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            draw_realization(BL, Condition.LOS, n_taps=1)
        with pytest.raises(ValueError):
            draw_realization(BL, Condition.DS)
        with pytest.raises(KeyError):
            draw_realization(ChannelParamSet("empty"), Condition.LOS)
        with pytest.raises(ValueError):
            draw_realization(ChannelParamSet("nokf", los=BL.nlos), Condition.LOS)


class SingleRealization(NamedTuple):
    """One realization: ChannelRealization's fields with 1-D per-tap arrays and scalars."""

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


def is_row(block: ChannelRealization, i: int, single: SingleRealization) -> bool:
    """Whether row ``i`` of ``block`` holds exactly ``single``'s values."""
    kf = None if block.kf_db is None else block.kf_db[i]
    return block.condition is single.condition and kf == single.kf_db and all(
        np.array_equal(getattr(block, name)[i], getattr(single, name))
        for name in SingleRealization._fields[1:] if name != "kf_db"
    )


def per_realization_draw(params, condition, n_taps, seed):
    """The draw one realization at a time, with no blocks: the bit-level
    oracle of ``draw_realizations``."""
    block = params.block(condition)
    is_los = condition is Condition.LOS
    rng = np.random.default_rng(seed)
    ds_target = float(draw_ds(block, rng))
    kf_db = float(rng.normal(block.mu_kf_db, abs(block.sigma_kf_db))) if is_los else None
    sf_db = float(rng.normal(0.0, block.sigma_sf_db))
    delays = np.concatenate(([0.0], np.sort(rng.exponential(ds_target, n_taps - 1))))
    weights = np.exp(-delays / ds_target)
    if is_los:
        k_lin = 10.0 ** (kf_db / 10.0)
        rest = weights[1:] / weights[1:].sum() * (1.0 / (1.0 + k_lin))
        powers = np.concatenate(([k_lin / (1.0 + k_lin)], rest))
    else:
        powers = weights / weights.sum()
    powers = powers / powers.sum()
    m1 = float(np.sum(delays * powers))
    m2 = float(np.sum(delays**2 * powers))
    delays = delays * (ds_target / math.sqrt(max(m2 - m1 * m1, 0.0)))
    means = [rng.uniform(-180.0, 180.0), rng.uniform(-180.0, 180.0),
             rng.uniform(-90.0, 90.0), rng.uniform(-90.0, 90.0)]
    aod_az = wrap_azimuth_deg(means[0] + rng.normal(0.0, block.mu_asd_deg, n_taps))
    aoa_az = wrap_azimuth_deg(means[1] + rng.normal(0.0, block.mu_asa_deg, n_taps))
    aod_el = fold_elevation_deg(means[2] + rng.normal(0.0, block.mu_esd_deg, n_taps))
    aoa_el = fold_elevation_deg(means[3] + rng.normal(0.0, block.mu_esa_deg, n_taps))
    return SingleRealization(condition, delays, powers, aod_az, aod_el, aoa_az, aoa_el, kf_db, sf_db, ds_target)


class TestBlockDraws:
    @pytest.mark.parametrize("params", [BL, GPP_INO])
    @pytest.mark.parametrize("condition", [Condition.LOS, Condition.NLOS])
    @pytest.mark.parametrize("n_taps", [2, 20, 100])
    def test_block_equals_single_draws(self, params, condition, n_taps):
        seeds = range(7, 67)
        block = draw_realizations(params, condition, n_taps, seeds)
        assert block.delays_ns.shape == (len(seeds), n_taps)
        for i, seed in enumerate(seeds):
            single = per_realization_draw(params, condition, n_taps, seed)
            assert is_row(block, i, single)
            assert is_row(draw_realization(params, condition, n_taps, seed), 0, single)

    @pytest.mark.parametrize("condition", [Condition.LOS, Condition.NLOS])
    @pytest.mark.parametrize("n_taps", [2, 20, 100])
    def test_saved_bytes_equal_the_per_realization_oracle(self, tmp_path, condition, n_taps):
        seeds = range(1, 601)
        block = draw_realizations(BL, condition, n_taps, seeds)
        save_dataset(realizations_to_dataset(block, "BL", LinkBudget()), tmp_path / "block.csv")
        singles = [per_realization_draw(BL, condition, n_taps, seed) for seed in seeds]
        save_dataset(realizations_to_dataset_per_realization(singles, "BL", LinkBudget()), tmp_path / "oracle.csv")
        for suffix in (".csv", ".meta.json"):
            assert (tmp_path / "block").with_suffix(suffix).read_bytes() == \
                (tmp_path / "oracle").with_suffix(suffix).read_bytes()

    def test_arguments_checked_before_any_draw(self):
        assert draw_realizations(BL, Condition.LOS, 20, []).delays_ns.shape == (0, 20)
        with pytest.raises(ValueError, match="n_taps"):
            draw_realizations(BL, Condition.LOS, 101, [])
        with pytest.raises(ValueError, match="LOS or NLOS"):
            draw_realizations(BL, Condition.OUTAGE, 20, [])


class TestStatisticalMoments:
    def test_kf_sample_mean_matches_preset(self):
        n = 4000
        vals = draw_realizations(BL, Condition.LOS, 20, range(n)).kf_db
        se = abs(BL.los.sigma_kf_db) / math.sqrt(n)
        assert abs(np.mean(vals) - BL.los.mu_kf_db) < 3 * se

    def test_ds_distribution_moments_one_percent(self):
        rng = np.random.default_rng(2024)
        draws = draw_ds(BL.los, rng, size=100_000)
        assert abs(draws.mean() - BL.los.mu_ds_ns) / BL.los.mu_ds_ns < 0.01
        assert abs(draws.std(ddof=1) - BL.los.sigma_ds_ns) / BL.los.sigma_ds_ns < 0.01

    def test_ino_ds_uses_log_domain(self):
        rng = np.random.default_rng(5)
        draws = draw_ds(GPP_INO.los, rng, size=50_000)
        # median of 10**Normal(log10(19.65), 0.18) is 19.65 ns; far from the
        # unusable 1.51e8 ns linear sigma
        assert abs(np.median(draws) - 19.65) / 19.65 < 0.02
        assert draws.max() < 1e4

    def test_sf_draw_zero_mean(self):
        vals = draw_realizations(BL, Condition.NLOS, 20, range(4000)).sf_db
        se = BL.nlos.sigma_sf_db / math.sqrt(len(vals))
        assert abs(np.mean(vals)) < 3 * se


class TestNarrowbandGain:
    def test_infinite_kf_is_unit_magnitude(self):
        for seed in range(10):
            h = draw_fades(math.inf, np.random.default_rng(seed), 4)
            assert np.all(np.abs(np.abs(h) - 1.0) < 1e-12)

    def test_rayleigh_unit_mean_power(self):
        # |h|^2 is exponential with unit mean and unit std
        rng = np.random.default_rng(31)
        n = 1_000_000
        h = draw_fades(None, rng, n)
        m = np.mean(np.abs(h) ** 2)
        assert abs(m - 1.0) < 3.0 / math.sqrt(n)

    def test_rician_k0db_ks_against_closed_form(self):
        # |h| with K = 1 (0 dB) is Rice(nu = sqrt(K/(K+1)), sigma = sqrt(1/(2(K+1))))
        rng = np.random.default_rng(77)
        k_lin = 1.0
        h = draw_fades(np.full(30_000, 0.0), rng, 30_000)
        sigma = math.sqrt(1.0 / (2.0 * (k_lin + 1.0)))
        nu = math.sqrt(k_lin / (k_lin + 1.0))
        res = stats.kstest(np.abs(h), stats.rice(nu / sigma, scale=sigma).cdf)
        assert res.pvalue > 0.01

    def test_rician_unit_mean_power(self):
        rng = np.random.default_rng(13)
        h = draw_fades(np.full(200_000, 7.0), rng, 200_000)
        assert abs(np.mean(np.abs(h) ** 2) - 1.0) < 0.01


class TestDatasetExport:
    def test_round_trip_recovers_kf_and_ds(self, tmp_path):
        reals = draw_realizations(BL, Condition.LOS, 20, range(40))
        ds = realizations_to_dataset(reals, "BL-LOS", LinkBudget())
        path = tmp_path / "gen.csv"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.counts.tolist() == [20] * 40
        for kf_db, ds_ns, rec in zip(reals.kf_db, reals.target_ds_ns, back.records):
            assert rec.condition is Condition.LOS
            assert math.isclose(k_factor(rec), kf_db, rel_tol=1e-9, abs_tol=1e-9)
            assert math.isclose(rms_delay_spread(rec), ds_ns, rel_tol=1e-6)

    def test_nlos_export_classifies_nlos(self):
        reals = draw_realizations(BL, Condition.NLOS, 20, range(5))
        ds = realizations_to_dataset(reals, "BL-NLOS", LinkBudget())
        assert ds.conditions.tolist() == [Condition.NLOS] * 5
        assert set(ds.paths.interactions.tolist()) == {"R"}

    def test_delays_strictly_positive(self):
        ds = realizations_to_dataset(draw_realization(BL, Condition.LOS, rng_seed=1), "x", LinkBudget())
        assert len(ds.paths) == 20 and (ds.paths.delay_ns > 0).all()
