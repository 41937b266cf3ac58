import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import idschan
from dataset_builder import classify_per_record, dataset_from_records, records_of
from idschan.cli import main
from idschan.extract import (
    ANGLE_FIELDS,
    FitError,
    NoPathError,
    _mean_std,
    angular_spread,
    angular_spreads,
    fit_path_loss,
    k_factor,
    path_loss_of,
    rms_delay_spread,
    rms_delay_spreads,
    summarize,
)
from idschan.genchan import draw_realizations, realizations_to_dataset
from idschan.linksim import LinkBudget, rssi_map
from idschan.params import BL, ChannelParamSet, write_params_csv
from idschan.pathdata import (
    CSV_COLUMNS,
    Condition,
    DatasetFormatError,
    DatasetValidationError,
    Interaction,
    MultipathComponent,
    PathTable,
    Provenance,
    ScenarioDataset,
    load_dataset,
    make_record,
    mw_to_dbm,
    save_dataset,
)
from idschan.tracer import CabinLayout, build_scenario, trace_scenario

L, R, S = Interaction.DIRECT, Interaction.REFLECT, Interaction.DIFFUSE_SCATTER
TX = (0.0, 0.0, 1.0)


def comp(power, delay=10.0, tags=(R,), aod_az=0.0, aod_el=0.0, aoa_az=0.0, aoa_el=0.0):
    return MultipathComponent(power, delay, aod_az, aod_el, aoa_az, aoa_el, tuple(tags))


def record(paths, rx_id=0, pos=(3.0, 0.0, 1.0)):
    return make_record(rx_id, pos, TX, paths)


# --------------------------------------------------------------------------
# brute-force oracles, kept deliberately separate from the implementation
# --------------------------------------------------------------------------


def oracle_rms_ds(powers_mw, delays_ns):
    tot = sum(powers_mw)
    m1 = sum(t * p for t, p in zip(delays_ns, powers_mw)) / tot
    m2 = sum(t * t * p for t, p in zip(delays_ns, powers_mw)) / tot
    return math.sqrt(m2 - m1 * m1)


def oracle_angular_spread(powers_mw, angles_deg):
    tot = sum(powers_mw)
    th = [math.radians(a) for a in angles_deg]
    nu = sum(t * p for t, p in zip(th, powers_mw)) / tot
    dev = [math.fmod(t - nu + math.pi, 2 * math.pi) for t in th]
    dev = [d + 2 * math.pi if d < 0 else d for d in dev]  # python fmod keeps sign
    dev = [d - math.pi for d in dev]
    return math.degrees(math.sqrt(sum(d * d * p for d, p in zip(dev, powers_mw)) / tot))


def oracle_kf(direct_mw, others_mw):
    return 10.0 * math.log10(direct_mw / sum(others_mw))


class TestPathLoss:
    def test_friis_single_path(self):
        rec = record([comp(-41.4, tags=(L,))])
        assert math.isclose(path_loss_of(rec, LinkBudget()), 61.4, abs_tol=1e-12)

    def test_two_equal_paths_gain_3db(self):
        rec = record([comp(-50.0, tags=(L,)), comp(-50.0, 12.0)])
        pl = path_loss_of(rec, LinkBudget())
        assert math.isclose(pl, 70.0 - 10.0 * math.log10(2.0), abs_tol=1e-12)

    def test_outage_errors(self):
        with pytest.raises(NoPathError):
            path_loss_of(record([]), LinkBudget())


def dataset_on_line(a, b, sigma_pattern=None, distances=None, tags=(L,)):
    """Records whose path loss lies exactly on PL = a + 10 b log10(d) (+pattern)."""
    budget = LinkBudget()
    distances = distances if distances is not None else [1.5, 2.0, 3.0, 5.0, 8.0, 12.0]
    records = []
    for i, d in enumerate(distances):
        pl = a + 10.0 * b * math.log10(d)
        if sigma_pattern is not None:
            pl += sigma_pattern[i % len(sigma_pattern)]
        power = budget.tx_power_dbm - pl
        records.append(record([comp(power, tags=tags)], rx_id=i, pos=(d, 0.0, 1.0)))
    return dataset_from_records("fit", TX, budget, tuple(records), Provenance.SYNTHETIC)


class TestFitPathLoss:
    def test_exact_recovery(self):
        ds = dataset_on_line(58.49, 1.45)
        fit = fit_path_loss(ds, Condition.LOS)
        assert math.isclose(fit.a_db, 58.49, abs_tol=1e-9)
        assert math.isclose(fit.b, 1.45, abs_tol=1e-9)
        assert fit.sigma_sf_db < 1e-9
        assert fit.n_points == 6

    def test_alternating_residuals_sample_std(self):
        # +3, -3, -3, +3 over equally spaced regressors is orthogonal to the
        # line, so OLS keeps it and sigma_SF is the pattern's n-1 sample std.
        distances = [10.0**0.1, 10.0**0.2, 10.0**0.3, 10.0**0.4]
        pattern = [3.0, -3.0, -3.0, 3.0]
        ds = dataset_on_line(60.0, 2.0, sigma_pattern=pattern, distances=distances)
        fit = fit_path_loss(ds, Condition.LOS)
        expected = math.sqrt(sum(r * r for r in pattern) / (len(pattern) - 1))
        assert math.isclose(fit.sigma_sf_db, expected, rel_tol=1e-9)
        assert math.isclose(fit.a_db, 60.0, abs_tol=1e-9)

    def test_too_few_points(self):
        ds = dataset_on_line(60.0, 2.0, distances=[3.0])
        with pytest.raises(FitError):
            fit_path_loss(ds, Condition.LOS)

    def test_equal_distances_singular(self):
        ds = dataset_on_line(60.0, 2.0, distances=[3.0, 3.0, 3.0])
        with pytest.raises(FitError, match="singular"):
            fit_path_loss(ds, Condition.LOS)

    def test_oracle_least_squares(self):
        rng = np.random.default_rng(7)
        d = rng.uniform(1.0, 13.0, 60)
        noise = rng.normal(0.0, 4.0, 60)
        budget = LinkBudget()
        records = []
        for i in range(60):
            pl = 59.0 + 10 * 1.8 * math.log10(d[i]) + noise[i]
            records.append(record([comp(budget.tx_power_dbm - pl, tags=(L,))], rx_id=i, pos=(d[i], 0, 1)))
        ds = dataset_from_records("f", TX, budget, tuple(records), Provenance.SYNTHETIC)
        fit = fit_path_loss(ds, Condition.LOS)
        x = np.column_stack([np.ones(60), 10.0 * np.log10(d)])
        pl = np.array([path_loss_of(r, budget) for r in records])
        coef, *_ = np.linalg.lstsq(x, pl, rcond=None)
        assert math.isclose(fit.a_db, coef[0], rel_tol=1e-9)
        assert math.isclose(fit.b, coef[1], rel_tol=1e-9)


class TestKFactor:
    def test_equal_powers_zero_db(self):
        rec = record([comp(0.0, tags=(L,)), comp(0.0, 12.0)])
        assert math.isclose(k_factor(rec), 0.0, abs_tol=1e-12)

    def test_plus_ten_db(self):
        rec = record([comp(-40.0, tags=(L,)), comp(-50.0, 12.0)])
        assert math.isclose(k_factor(rec), 10.0, abs_tol=1e-12)

    def test_multiple_others_linear_sum(self):
        rec = record([comp(-50.0, tags=(L,)), comp(-50.0, 12.0), comp(-53.01029995663981, 14.0)])
        expected = oracle_kf(10 ** -5.0, [10 ** -5.0, 10 ** -5.301029995663981])
        assert math.isclose(k_factor(rec), expected, rel_tol=1e-12)
        assert math.isclose(k_factor(rec), 10 * math.log10(1 / 1.5), abs_tol=1e-9)

    def test_nlos_undefined(self):
        rec = record([comp(-40.0), comp(-50.0, 12.0)])
        assert k_factor(rec) is None
        assert k_factor(record([])) is None  # outage

    def test_single_path_infinite(self):
        rec = record([comp(-40.0, tags=(L,))])
        assert k_factor(rec) == math.inf


class TestRmsDelaySpread:
    def test_single_path_zero(self):
        assert rms_delay_spread(record([comp(-40.0)])) == 0.0

    def test_two_equal_paths_symmetric(self):
        rec = record([comp(-50.0, 5.0), comp(-50.0, 7.0)])
        assert math.isclose(rms_delay_spread(rec), 1.0, rel_tol=1e-12)

    def test_three_path_oracle(self):
        # 1, 0.5, 0.25 mW at 5, 15, 25 ns
        rec = record([comp(0.0, 5.0), comp(10 * math.log10(0.5), 15.0), comp(10 * math.log10(0.25), 25.0)])
        expected = oracle_rms_ds([1.0, 0.5, 0.25], [5.0, 15.0, 25.0])
        assert math.isclose(rms_delay_spread(rec), expected, rel_tol=1e-12)

    def test_outage_errors(self):
        with pytest.raises(NoPathError):
            rms_delay_spread(record([]))


class TestAngularSpread:
    def test_single_path_zero(self):
        assert angular_spread(record([comp(-40.0)]), "ASD") == 0.0

    def test_symmetric_pair_90(self):
        rec = record([comp(-50.0, 5.0, aoa_az=90.0), comp(-50.0, 7.0, aoa_az=-90.0)])
        assert math.isclose(angular_spread(rec, "ASA"), 90.0, rel_tol=1e-12)

    def test_wrap_seam_artifact(self):
        # +-170 deg: linear mean 0, wrapped deviations +-170, spread 170
        rec = record([comp(-50.0, 5.0, aod_az=170.0), comp(-50.0, 7.0, aod_az=-170.0)])
        assert math.isclose(angular_spread(rec, "ASD"), 170.0, rel_tol=1e-12)

    def test_all_four_kinds_select_fields(self):
        rec = record([comp(-50.0, 5.0, aod_az=10.0, aod_el=20.0, aoa_az=30.0, aoa_el=40.0),
                      comp(-50.0, 7.0, aod_az=-10.0, aod_el=-20.0, aoa_az=-30.0, aoa_el=-40.0)])
        assert math.isclose(angular_spread(rec, "ASD"), 10.0, rel_tol=1e-12)
        assert math.isclose(angular_spread(rec, "ESD"), 20.0, rel_tol=1e-12)
        assert math.isclose(angular_spread(rec, "ASA"), 30.0, rel_tol=1e-12)
        assert math.isclose(angular_spread(rec, "ESA"), 40.0, rel_tol=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            angular_spread(record([comp(-40.0)]), "ZSD")

    def test_oracle_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = rng.integers(2, 12)
            powers = rng.uniform(-90, -30, n)
            angles = rng.uniform(-179.9, 180.0, n)
            rec = record([comp(powers[i], 5.0 + i, aoa_az=angles[i]) for i in range(n)])
            got = angular_spread(rec, "ASA")
            want = oracle_angular_spread([10 ** (p / 10) for p in powers], angles)
            assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)


class TestInvarianceProperties:
    @given(st.floats(-30.0, 30.0))
    def test_power_scaling(self, shift_db):
        paths = [comp(-45.0, 5.0, tags=(L,), aoa_az=12.0),
                 comp(-52.0, 9.0, aoa_az=-48.0),
                 comp(-60.0, 14.0, aoa_az=101.0)]
        shifted = [
            MultipathComponent(
                p.power_dbm + shift_db, p.delay_ns, p.aod_az_deg, p.aod_el_deg,
                p.aoa_az_deg, p.aoa_el_deg, p.interactions)
            for p in paths
        ]
        r0, r1 = record(paths), record(shifted)
        assert math.isclose(k_factor(r0), k_factor(r1), rel_tol=1e-9, abs_tol=1e-9)
        assert math.isclose(rms_delay_spread(r0), rms_delay_spread(r1), rel_tol=1e-9)
        for kind in ("ASD", "ASA", "ESD", "ESA"):
            assert math.isclose(angular_spread(r0, kind), angular_spread(r1, kind),
                                rel_tol=1e-9, abs_tol=1e-12)
        b = LinkBudget()
        assert math.isclose(path_loss_of(r0, b) - path_loss_of(r1, b), shift_db, abs_tol=1e-9)

    @given(st.floats(0.0, 1000.0))
    def test_delay_shift(self, shift_ns):
        paths = [comp(-45.0, 5.0), comp(-52.0, 9.0), comp(-60.0, 14.0)]
        shifted = [
            MultipathComponent(
                p.power_dbm, p.delay_ns + shift_ns, p.aod_az_deg, p.aod_el_deg,
                p.aoa_az_deg, p.aoa_el_deg, p.interactions)
            for p in paths
        ]
        assert math.isclose(
            rms_delay_spread(record(paths)), rms_delay_spread(record(shifted)),
            rel_tol=1e-9, abs_tol=1e-9,
        )

    @given(st.floats(-40.0, 40.0))
    def test_rotation_away_from_seam(self, delta):
        angles = [-60.0, -10.0, 25.0, 80.0]  # stays within (-180, 180] after +-40
        paths = [comp(-50.0 - i, 5.0 + i, aoa_az=a) for i, a in enumerate(angles)]
        rotated = [comp(-50.0 - i, 5.0 + i, aoa_az=a + delta) for i, a in enumerate(angles)]
        assert math.isclose(
            angular_spread(record(paths), "ASA"),
            angular_spread(record(rotated), "ASA"),
            rel_tol=1e-9, abs_tol=1e-9,
        )


class TestSummarize:
    def test_identical_records_zero_sigma(self):
        budget = LinkBudget()
        recs = tuple(
            record([comp(-45.0, 5.0, tags=(L,)), comp(-52.0, 9.0)], rx_id=i, pos=(3.0, 0.1 * i, 1.0))
            for i in range(4)
        )
        ds = dataset_from_records("same", TX, budget, recs, Provenance.SYNTHETIC)
        s = summarize(ds)
        los = s.params.los
        assert los.sigma_ds_ns == 0.0
        assert los.sigma_kf_db == 0.0
        assert math.isclose(los.mu_ds_ns, rms_delay_spread(recs[0]), rel_tol=1e-12)
        assert math.isclose(los.mu_kf_db, k_factor(recs[0]), rel_tol=1e-12)

    def test_los_only_dataset(self):
        ds = dataset_on_line(58.49, 1.45)
        s = summarize(ds)
        assert s.params.nlos is None
        assert s.params.los.mu_kf_db == math.inf or s.params.los.mu_kf_db is None
        assert s.ratios[Condition.LOS] == 1.0
        assert math.isclose(sum(s.ratios.values()), 1.0, abs_tol=1e-12)

    def test_mixed_conditions_ratios(self):
        budget = LinkBudget()
        recs = (
            record([comp(-45.0, 5.0, tags=(L,)), comp(-50.0, 7.0)], rx_id=0, pos=(2.0, 0, 1)),
            record([comp(-52.0, 9.0)], rx_id=1, pos=(3.0, 0, 1)),
            record([comp(-60.0, 14.0, tags=(S,))], rx_id=2, pos=(4.0, 0, 1)),
            record([], rx_id=3, pos=(5.0, 0, 1)),
        )
        ds = dataset_from_records("mix", TX, budget, recs, Provenance.SYNTHETIC)
        s = summarize(ds)
        assert s.ratios == {
            Condition.LOS: 0.25,
            Condition.NLOS: 0.25,
            Condition.DS: 0.25,
            Condition.OUTAGE: 0.25,
        }
        # one record per condition: path-loss fit impossible, blocks still present
        assert s.params.los is not None and s.params.los.a_db is None
        assert s.params.nlos is not None and len(records_of(ds, Condition.NLOS)) == 1

    def test_infinite_kf_excluded_from_moments(self):
        budget = LinkBudget()
        recs = (
            record([comp(-45.0, 5.0, tags=(L,))], rx_id=0, pos=(2.0, 0, 1)),  # inf KF
            record([comp(-45.0, 5.0, tags=(L,)), comp(-55.0, 9.0)], rx_id=1, pos=(3.0, 0, 1)),
        )
        ds = dataset_from_records("inf", TX, budget, recs, Provenance.SYNTHETIC)
        s = summarize(ds)
        assert math.isclose(s.params.los.mu_kf_db, 10.0, abs_tol=1e-9)

    def test_empty_dataset_rejected(self):
        ds = dataset_from_records("e", TX, LinkBudget(), (), Provenance.SYNTHETIC)
        with pytest.raises(ValueError):
            summarize(ds)


# --------------------------------------------------------------------------
# block kernels against the per-record form they replace
# --------------------------------------------------------------------------


def per_record_ds(p, tau):
    """The per-record RMS delay spread the kernel must reproduce bit for bit."""
    psum = p.sum()
    m1 = np.sum(tau * p) / psum
    m2 = np.sum(tau**2 * p) / psum
    return float(np.sqrt(max(m2 - m1**2, 0.0)))


def per_record_as(p, angles_deg):
    """The per-record angular spread the kernel must reproduce bit for bit."""
    theta = np.radians(angles_deg)
    psum = p.sum()
    nu = np.sum(theta * p) / psum
    dev = np.mod(theta - nu + np.pi, 2.0 * np.pi) - np.pi
    return float(np.degrees(np.sqrt(np.sum(dev**2 * p) / psum)))


def per_record_block(block, records):
    """``block`` with its delay and angular spread moments recomputed record by record."""
    if block is None:
        return None
    mu, sigma = _mean_std([per_record_ds(r.paths.power_mw, r.paths.delay_ns) for r in records])
    moments = {"mu_ds_ns": mu, "sigma_ds_ns": sigma}
    for kind, column in ANGLE_FIELDS.items():
        mu, sigma = _mean_std([per_record_as(r.paths.power_mw, getattr(r.paths, column)) for r in records])
        moments[f"mu_{kind.lower()}_deg"] = mu
        moments[f"sigma_{kind.lower()}_deg"] = sigma
    return dataclasses.replace(block, **moments)


MIXED_TAGS = ("R", "R+R", "D", "R+D", "S", "R+S")


def mixed_dataset(counts, los, seed, positions=None):
    """A dataset with the given path counts (0 is an outage); the first path of
    a ``los`` record is the direct one, the other tags are drawn."""
    rng = np.random.default_rng(seed)
    total = sum(counts)
    tags = np.array(MIXED_TAGS)[rng.integers(0, len(MIXED_TAGS), total)].astype(object)
    firsts = np.cumsum([0, *counts[:-1]])
    for first, n, direct in zip(firsts, counts, los):
        if direct and n:
            tags[first] = "L"
    paths = PathTable(
        rng.uniform(-150.0, 30.0, total), rng.uniform(0.5, 500.0, total),
        180.0 - rng.uniform(0.0, 360.0, total), rng.uniform(-90.0, 90.0, total),
        180.0 - rng.uniform(0.0, 360.0, total), rng.uniform(-90.0, 90.0, total), tags,
    )
    if positions is None:
        positions = [(3.0, 0.0, 1.0)] * len(counts)
    return ScenarioDataset("mixed", TX, LinkBudget(), range(len(counts)), positions, paths, counts,
                           Provenance.INGESTED)


# n = 1, the 8-element unrolled and 128-element pairwise-sum block edges, then anything
path_counts = st.one_of(st.sampled_from([1, 2, 7, 8, 9, 127, 128, 129, 256, 257]), st.integers(1, 300))


@st.composite
def mixed_tables(draw):
    counts = draw(st.lists(path_counts, min_size=1, max_size=10))
    counts += draw(st.lists(st.sampled_from(counts), max_size=10))  # groups with R > 1
    los = draw(st.lists(st.booleans(), min_size=len(counts), max_size=len(counts)))
    return mixed_dataset(counts, los, draw(st.integers(0, 2**32 - 1)))


class TestBlockKernels:
    @given(mixed_tables())
    def test_kernels_match_per_record_form(self, ds):
        records = ds.records
        for n in {len(r.paths) for r in records}:
            group = [r.paths for r in records if len(r.paths) == n]
            power = np.stack([p.power_mw for p in group])
            got = rms_delay_spreads(power, np.stack([p.delay_ns for p in group]))
            assert got.tolist() == [per_record_ds(p.power_mw, p.delay_ns) for p in group]
            for column in ANGLE_FIELDS.values():
                got = angular_spreads(power, np.stack([getattr(p, column) for p in group]))
                assert got.tolist() == [per_record_as(p.power_mw, getattr(p, column)) for p in group]

    @given(mixed_tables())
    def test_record_functions_are_the_one_row_case(self, ds):
        for r in ds.records:
            assert rms_delay_spread(r) == per_record_ds(r.paths.power_mw, r.paths.delay_ns)
            for kind, column in ANGLE_FIELDS.items():
                assert angular_spread(r, kind) == per_record_as(r.paths.power_mw, getattr(r.paths, column))

    @given(mixed_tables())
    def test_summarize_matches_per_record_statistics(self, ds):
        s = summarize(ds)
        assert s.params.los == per_record_block(s.params.los, records_of(ds, Condition.LOS))
        assert s.params.nlos == per_record_block(s.params.nlos, records_of(ds, Condition.NLOS))

    def test_mean_delay_squared_with_scalar_pow(self):
        # With glibc, pow(m1, 2) of the first delay is 1 ulp below m1 * m1, which
        # decides whether a lone 0 dBm (1 mW) path has a zero delay spread.
        records = [record([comp(0.0, delay)]) for delay in (87.73735355102363, 254.04834808771182, 10.0)]
        power = np.stack([r.paths.power_mw for r in records])
        got = rms_delay_spreads(power, np.stack([r.paths.delay_ns for r in records]))
        assert got.tolist() == [per_record_ds(r.paths.power_mw, r.paths.delay_ns) for r in records]

    def test_single_path_los_records_have_infinite_k(self):
        records = mixed_dataset([1, 1, 5, 1], [True, True, True, False], seed=3).records
        assert [k_factor(r) for r in records[:2]] == [math.inf, math.inf]
        assert [rms_delay_spread(r) for r in (records[0], records[1], records[3])] == [0.0] * 3


def _ingest_style_csv(path, seed=11, n_rx=600):
    """A dataset CSV with 0 to 60 paths per receiver, outage and diffuse-only records."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 61, n_rx).tolist()
    positions = rng.uniform((0.3, 0.1, 0.5), (13.2, 3.9, 1.3), (n_rx, 3))
    save_dataset(mixed_dataset(counts, rng.random(n_rx) < 0.5, seed, positions), path)


@pytest.mark.parametrize("make", [
    *[["trace", "--preset", preset, "--max-reflections", "1"] for preset in ("BL", "CV", "RecV", "EmV")],
    ["gen", "--preset", "BL", "--cond", "LOS", "--count", "400", "--seed", "5"],
    ["gen", "--preset", "BL", "--cond", "NLOS", "--count", "400", "--seed", "5"],
    "ingest-style",
])
def test_extract_bytes_match_per_record_form(tmp_path, make):
    """``extract`` writes what the per-record statistics give, byte for byte."""
    dataset = tmp_path / "ds.csv"
    if make == "ingest-style":
        _ingest_style_csv(dataset)
    else:
        assert main([*make, "--out", str(dataset)]) == 0
    out = tmp_path / "params.csv"
    assert main(["extract", "--in", str(dataset), "--out", str(out)]) == 0

    ds = load_dataset(dataset)
    params = summarize(ds).params
    expected = ChannelParamSet(
        params.name,
        los=per_record_block(params.los, records_of(ds, Condition.LOS)),
        nlos=per_record_block(params.nlos, records_of(ds, Condition.NLOS)),
    )
    write_params_csv([expected], tmp_path / "expected.csv")
    assert out.read_bytes() == (tmp_path / "expected.csv").read_bytes()


# --------------------------------------------------------------------------
# the dataset's columns against per-record oracles
# --------------------------------------------------------------------------

_DS_CODES = ("S", "R+S", "D+S")
_ANY_CODES = ("L", "R", "R+R", "D", "R+D", "S", "R+S", "D+S")


@st.composite
def loader_files(draw):
    """Dataset CSV text of 1-8 receivers, each in outage, DS-only, "L" alone or
    with mixed tags, with 0-60 paths each and the rows in a drawn order."""
    kinds = draw(st.lists(st.sampled_from(["outage", "ds", "los-alone", "mixed"]), min_size=1, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for rx, kind in enumerate(kinds):
        n = {"outage": 0, "los-alone": 1}.get(kind, int(rng.integers(1, 61)))
        codes = {"los-alone": ["L"], "ds": rng.choice(_DS_CODES, n).tolist()}.get(kind, rng.choice(_ANY_CODES, n).tolist())
        head = f"{rx},{1.0 + rx!r},0.5,1.0,"
        if not codes:
            rows.append(head + "-INF,0.0,0.0,0.0,0.0,0.0,")
        for code in codes:
            values = (rng.uniform(-150.0, 30.0), rng.uniform(0.5, 500.0), 180.0 - rng.uniform(0.0, 360.0),
                      rng.uniform(-90.0, 90.0), 180.0 - rng.uniform(0.0, 360.0), rng.uniform(-90.0, 90.0))
            rows.append(head + ",".join(map(repr, map(float, values))) + "," + code)
    order = draw(st.permutations(range(len(rows))))
    return kinds, "\n".join([",".join(CSV_COLUMNS), *(rows[i] for i in order)]) + "\n"


class TestColumnOracles:
    @settings(max_examples=40, deadline=None)
    @given(loader_files())
    def test_columns_match_per_record_oracles(self, tmp_path_factory, drawn):
        kinds, text = drawn
        path = tmp_path_factory.mktemp("oracle") / "ds.csv"
        path.write_text(text)
        path.with_suffix(".meta.json").write_text(json.dumps({"scenario_name": "o", "tx_position_m": list(TX)}))
        ds = load_dataset(path)
        expected = {"outage": Condition.OUTAGE, "ds": Condition.DS, "los-alone": Condition.LOS}
        for rec, condition in zip(ds.records, ds.conditions):
            assert condition is rec.condition is classify_per_record(rec.paths)
            assert condition is expected.get(kinds[rec.rx_id], condition)
        s = summarize(ds)
        assert s.params.los == per_record_block(s.params.los, records_of(ds, Condition.LOS))
        assert s.params.nlos == per_record_block(s.params.nlos, records_of(ds, Condition.NLOS))
        assert s.ratios == {c: len(records_of(ds, c)) / len(ds.records) for c in Condition}
        assert [p.rssi_dbm for p in rssi_map(ds)] == [mw_to_dbm(r.total_power_mw) for r in ds.records]


@pytest.mark.parametrize("make", ["traced", "gen", "ingest-style"])
def test_summary_in_memory_equals_summary_after_a_save(tmp_path, make):
    if make == "traced":
        layout = CabinLayout(rx_heights_m=(0.7, 1.0), rx_lateral_step_m=0.25, rx_lateral_margin_m=0.125)
        ds = trace_scenario(build_scenario("BL", layout=layout, max_reflections=2), LinkBudget())
    elif make == "gen":
        ds = realizations_to_dataset(draw_realizations(BL, Condition.LOS, 20, range(300)), "BL-LOS", LinkBudget())
    else:
        rng = np.random.default_rng(4)
        ds = mixed_dataset(rng.integers(0, 61, 300).tolist(), rng.random(300) < 0.5, 4,
                           rng.uniform((0.3, 0.1, 0.5), (13.2, 3.9, 1.3), (300, 3)))
    save_dataset(ds, tmp_path / "ds.csv")
    back = load_dataset(tmp_path / "ds.csv")
    assert summarize(back) == summarize(ds)
    assert rssi_map(back) == rssi_map(ds)
    assert back.records == ds.records


def test_extract_and_rssi_do_not_import_numpy_ma(tmp_path):
    """The first np.unique of integers imports numpy.ma (about 14 ms); neither command calls it."""
    dataset = tmp_path / "ds.csv"
    _ingest_style_csv(dataset)
    code = "import sys; from idschan.cli import main; print(main(sys.argv[1:]), 'numpy.ma' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(idschan.__file__).resolve().parents[1])}
    for command in ("extract", "rssi"):
        argv = [command, "--in", str(dataset), "--out", str(tmp_path / f"{command}.csv")]
        out = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, check=True)
        assert out.stdout.split()[-2:] == ["0", "False"], out.stdout


# --------------------------------------------------------------------------
# finite statistics: a non-finite one is an error that names the rx
# --------------------------------------------------------------------------


def _los_dataset(*extra):
    """Two well-behaved LOS records, then ``extra`` records of path rows."""
    rows = [[comp(-45.0, 5.0, tags=(L,)), comp(-52.0, 9.0)], [comp(-47.0, 6.0, tags=(L,)), comp(-50.0, 8.0)],
            *extra]
    records = [record(paths, rx_id=i, pos=(2.0 + i, 0.0, 1.0)) for i, paths in enumerate(rows)]
    return dataset_from_records("finite", TX, LinkBudget(), records)


class TestFiniteStatistics:
    def test_huge_delays_exit_2_naming_the_rx(self, tmp_path, capsys):
        dataset = tmp_path / "ds.csv"
        assert main(["gen", "--preset", "BL", "--cond", "LOS", "--count", "200", "--seed", "1",
                     "--out", str(dataset)]) == 0
        lines = dataset.read_text().splitlines()
        for i, line in enumerate(lines[1:], 1):
            cells = line.split(",")
            if cells[0] == "0":
                cells[5] = repr(float(cells[5]) * 1e300)
                lines[i] = ",".join(cells)
        dataset.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["extract", "--in", str(dataset), "--out", str(tmp_path / "params.csv")]) == 2
        assert re.fullmatch(r"error: rx 0: RMS delay spread is nan, not finite\n", capsys.readouterr().err)
        assert not (tmp_path / "params.csv").exists()

    @pytest.mark.parametrize("direct, other, value", [(-2999.0, 2999.0, -math.inf), (2999.0, -2999.0, math.inf)])
    def test_k_factor_out_of_range_names_the_rx(self, direct, other, value):
        rows = [comp(direct, 5.0, tags=(L,)), comp(other, 9.0)]
        assert k_factor(record(rows)) == value  # the direct-to-rest ratio under- or overflows
        with pytest.raises(DatasetValidationError, match=f"^rx 2: K-factor is {value}, not finite$"):
            summarize(_los_dataset(rows))

    def test_single_path_k_is_left_out_not_rejected(self):
        s = summarize(_los_dataset([comp(-40.0, 5.0, tags=(L,))]))
        assert math.isfinite(s.params.los.mu_kf_db)

    def test_std_of_huge_values_is_finite(self):
        values = [0.0, 1.3e154, 1.3e154, 0.5e154]
        mu, sigma = _mean_std(values)
        assert math.isfinite(sigma)
        assert math.isclose(sigma, math.sqrt(sum(((v - mu) / 1e154) ** 2 for v in values) / 3) * 1e154)


_EDGE_DISTANCES = st.one_of(st.sampled_from([0.0, 5e-324, 1e-300, 1e-12, 1.0, 13.0, 1e150]), st.floats(1e-3, 20.0))
_EDGE_POWERS = st.one_of(st.sampled_from([-2999.9999999999995, -2999.0, 2999.0, 2999.9999999999995, -50.0]),
                         st.floats(-3000.0, 3000.0, exclude_min=True, exclude_max=True))
_EDGE_DELAYS = st.one_of(st.sampled_from([5e-324, 1e-300, 1.0, 1e150, 1.3e154, 1e300, 1.7e308]),
                         st.floats(0.0, 1e308, exclude_min=True))
_EDGE_PATH = st.builds(comp, _EDGE_POWERS, _EDGE_DELAYS, st.sampled_from([(L,), (R,), (S,), (R, S)]))
_DIRECTIONS = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))


@st.composite
def edge_records(draw):
    """1-6 records at zero, tiny or huge distances (all at one distance, or drawn), with
    0-3 paths each at powers near both bounds and delays up to 1.7e308 ns."""
    n = draw(st.integers(1, 6))
    one = draw(st.one_of(st.none(), _EDGE_DISTANCES))
    records = []
    for i in range(n):
        d = one if one is not None else draw(_EDGE_DISTANCES)
        ux, uy = _DIRECTIONS[i % 4]
        records.append(record(draw(st.lists(_EDGE_PATH, max_size=3)), rx_id=i, pos=(ux * d, uy * d, TX[2])))
    return records


def _assert_names_a_record(exc):
    assert re.match(r"^(line \d+: )?rx \d+: ", str(exc)), str(exc)


@settings(max_examples=150, deadline=None)
@given(edge_records())
def test_domain_edges_give_finite_statistics_or_name_the_record(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("edges") / "ds.csv"
    try:  # a receiver on the TX is rejected when the dataset is built
        save_dataset(dataset_from_records("edges", TX, LinkBudget(), records), path)
        ds = load_dataset(path)
    except (DatasetFormatError, DatasetValidationError) as exc:
        _assert_names_a_record(exc)
        return
    for p, rec in zip(rssi_map(ds), ds.records):
        assert math.isfinite(p.rssi_dbm) or (p.rssi_dbm == -math.inf and rec.condition is Condition.OUTAGE)
        assert math.isfinite(p.snr_db) or p.snr_db == -math.inf
    try:
        s = summarize(ds)
    except DatasetValidationError as exc:
        _assert_names_a_record(exc)
        return
    assert all(map(math.isfinite, s.ratios.values()))
    for block in (s.params.los, s.params.nlos):
        if block is not None:
            values = [getattr(block, f.name) for f in dataclasses.fields(block)]
            assert all(v is None or math.isfinite(v) for v in values), block
