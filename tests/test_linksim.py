import dataclasses
import math
import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.special import erfc

from dataset_builder import dataset_from_records

from idschan import linksim
from idschan.linksim import (
    BerPoint,
    LinkBudget,
    ber_bpsk,
    ber_sweep,
    noise_floor,
    rssi_map,
    _isotonic_nonincreasing,
)
from idschan.params import BL, GPP_INO, ChannelParamSet, ConditionParams
from idschan.pathdata import (
    Condition,
    Interaction,
    MultipathComponent,
    Provenance,
    make_record,
)
from idschan.tracer import ScenarioPreset, CabinLayout, build_scenario, trace_scenario


def q_function(x: float) -> float:
    return 0.5 * erfc(x / math.sqrt(2.0))


def rayleigh_ber(gamma: float) -> float:
    return 0.5 * (1.0 - math.sqrt(gamma / (1.0 + gamma)))


def per_bit_batch(chan, amp, n_blocks, block_bits, n, rng):
    """Oracle for ``linksim._batch_samples``: the per-bit batch body it replaced.

    Returns the decision statistic and the +-1 symbols sent.
    """
    h = np.repeat(linksim._block_fades(chan, n_blocks, rng), block_bits)[:n]
    s = rng.integers(0, 2, n) * 2 - 1
    noise = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2.0)
    y = amp * h * s + noise
    return np.real(y * np.exp(-1j * np.angle(h))), s


def per_bit_errors(channel, ebn0_db, n_bits, rng_seed, block_bits):
    """Error count of the per-bit oracle over the batches and batch seeds of ``ber_bpsk``."""
    chan = linksim._normalize_channel(channel)
    amp = math.sqrt(10.0 ** (ebn0_db / 10.0)) if ebn0_db != -math.inf else 0.0
    n_blocks_total = -(-n_bits // block_bits)
    batch_blocks = min(linksim._BATCH_BLOCKS, linksim._BATCH_BITS // block_bits)
    children = np.random.SeedSequence(rng_seed).spawn(-(-n_blocks_total // batch_blocks))
    errors = 0
    for batch, child in enumerate(children):
        blocks = min(batch_blocks, n_blocks_total - batch * batch_blocks)
        batch_bits = min(blocks * block_bits, n_bits - batch * batch_blocks * block_bits)
        z, s = per_bit_batch(chan, amp, blocks, block_bits, batch_bits, np.random.default_rng(child))
        errors += int(np.count_nonzero(np.where(z > 0, 1, -1) != s))
    return errors


def assert_batch_matches_oracle(channel, ebn0_db, n, block_bits, seed, reals=None):
    """``reals`` is the real-part buffer set; by default a fresh one for exactly ``n`` bits."""
    chan = linksim._normalize_channel(channel)
    amp = math.sqrt(10.0 ** (ebn0_db / 10.0)) if ebn0_db != -math.inf else 0.0
    n_blocks = -(-n // block_bits)
    reals = linksim._noise_buffers(n) if reals is None else reals
    chunks = list(linksim._batch_samples(chan, amp, n_blocks, block_bits, n, np.random.default_rng(seed), reals))
    z, bits = (np.concatenate(parts) for parts in zip(*chunks))
    z_ref, s_ref = per_bit_batch(chan, amp, n_blocks, block_bits, n, np.random.default_rng(seed))
    assert np.array_equal(bits * 2 - 1, s_ref)
    assert np.array_equal(z, z_ref)
    assert np.array_equal(np.signbit(z), np.signbit(z_ref))


class TestNoiseFloor:
    def test_defaults(self):
        assert math.isclose(noise_floor(LinkBudget()), -74.0, abs_tol=1e-9)

    def test_unit_bandwidth_no_figure(self):
        assert math.isclose(
            noise_floor(LinkBudget(noise_figure_db=0.0, bandwidth_hz=1.0)), -174.0, abs_tol=1e-12
        )

    def test_one_megahertz(self):
        assert math.isclose(
            noise_floor(LinkBudget(bandwidth_hz=1e6)), -104.0, abs_tol=1e-9
        )

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            LinkBudget(bandwidth_hz=0.0)

    @pytest.mark.parametrize("field", ["bandwidth_hz", "carrier_hz"])
    def test_positivity_error_names_its_field(self, field):
        for value in (0.0, -1.0):
            with pytest.raises(ValueError, match=f"{field}={value!r} must be positive"):
                LinkBudget(**{field: value})


class TestRssiMap:
    def test_single_path_snr(self):
        tx = (0.0, 0.0, 1.0)
        rec = make_record(0, (1.0, 0.0, 1.0), tx, [
            MultipathComponent(-41.4, 3.3, 0.0, 0.0, 180.0, 0.0, (Interaction.DIRECT,))
        ])
        ds = dataset_from_records("r", tx, LinkBudget(), (rec,), Provenance.SYNTHETIC)
        (pt,) = rssi_map(ds)
        assert math.isclose(pt.rssi_dbm, -41.4, abs_tol=1e-9)
        assert math.isclose(pt.snr_db, -41.4 + 74.0, abs_tol=1e-9)
        assert pt.condition is Condition.LOS

    def test_outage_is_minus_inf(self):
        tx = (0.0, 0.0, 1.0)
        rec = make_record(0, (1.0, 0.0, 1.0), tx, [])
        ds = dataset_from_records("r", tx, LinkBudget(), (rec,), Provenance.SYNTHETIC)
        (pt,) = rssi_map(ds)
        assert pt.rssi_dbm == -math.inf
        assert pt.snr_db == -math.inf

    def test_los_median_exceeds_nlos_in_composite_cabin(self):
        layout = CabinLayout(
            rx_heights_m=(0.7, 1.0), rx_lateral_step_m=0.25, rx_lateral_margin_m=0.125
        )
        scene = build_scenario(ScenarioPreset.CV, layout=layout, max_reflections=2)
        ds = trace_scenario(scene, LinkBudget())
        points = rssi_map(ds)
        los = [p.rssi_dbm for p in points if p.condition is Condition.LOS]
        nlos = [p.rssi_dbm for p in points if p.condition is Condition.NLOS]
        assert len(los) > 5 and len(nlos) > 5
        assert np.median(los) - np.median(nlos) >= 5.0


class TestBerBpsk:
    def test_awgn_against_q_function(self):
        for ebn0, bits in ((4.0, 500_000), (8.0, 2_000_000)):
            pt = ber_bpsk("awgn", ebn0, bits, rng_seed=17)
            expected = q_function(math.sqrt(2.0 * 10 ** (ebn0 / 10.0)))
            assert abs(pt.ber - expected) <= 3.0 * pt.ci95 + 1e-12

    def test_rayleigh_against_closed_form(self):
        gamma_db = 10.0
        pt = ber_bpsk((BL, Condition.NLOS), gamma_db, 1_000_000, rng_seed=3)
        expected = rayleigh_ber(10.0)
        assert abs(pt.ber - expected) / expected < 0.05

    def test_noise_only_is_coin_flip(self):
        pt = ber_bpsk("awgn", -math.inf, 200_000, rng_seed=5)
        assert abs(pt.ber - 0.5) <= 3.0 * pt.ci95

    def test_deterministic(self):
        a = ber_bpsk((BL, Condition.LOS), 6.0, 100_000, rng_seed=11)
        b = ber_bpsk((BL, Condition.LOS), 6.0, 100_000, rng_seed=11)
        assert a == b

    def test_seed_object_reused_gives_same_result(self):
        # batch seeds are derived from the seed object without spawning, which would advance it
        seed = np.random.SeedSequence(3)
        first = ber_bpsk("awgn", 4.0, 20_000, seed)
        assert ber_bpsk("awgn", 4.0, 20_000, seed) == first
        assert ber_bpsk("awgn", 4.0, 20_000, 3) == first

    def test_error_count_is_integer(self):
        pt = ber_bpsk("awgn", 2.0, 12_345, rng_seed=2)
        count = pt.ber * pt.n_bits
        assert abs(count - round(count)) < 1e-6
        assert pt.ci95 >= 0.0

    def test_higher_kf_never_worse(self):
        lo = ChannelParamSet("lowk", los=ConditionParams(
            60.0, 2.0, 3.0, 0.0, 0.5, 5.0, 1.0, 10, 1, 10, 1, 5, 1, 5, 1))
        hi = ChannelParamSet("highk", los=ConditionParams(
            60.0, 2.0, 3.0, 10.0, 0.5, 5.0, 1.0, 10, 1, 10, 1, 5, 1, 5, 1))
        a = ber_bpsk((lo, Condition.LOS), 8.0, 400_000, rng_seed=23)
        b = ber_bpsk((hi, Condition.LOS), 8.0, 400_000, rng_seed=23)
        assert b.ber <= a.ber + a.ci95 + b.ci95

    def test_block_bits_bounded(self):
        # rejected before anything is allocated
        for block_bits in (0, linksim._BATCH_BITS + 1):
            with pytest.raises(ValueError, match="block_bits"):
                ber_bpsk("awgn", 5.0, 10, rng_seed=1, block_bits=block_bits)

    def test_batches_hold_at_most_batch_bits(self, monkeypatch):
        # a smaller bit bound stands in for 1,000,000, so the arrays stay small
        monkeypatch.setattr(linksim, "_BATCH_BITS", 1000)
        sizes = []
        block_fades = linksim._block_fades
        monkeypatch.setattr(linksim, "_block_fades",
                            lambda chan, n, rng: sizes.append(n) or block_fades(chan, n, rng))
        ber_bpsk((BL, Condition.LOS), 6.0, 2000, rng_seed=4, block_bits=300)
        assert sizes == [3, 3, 1]  # 7 blocks of 300 bits, at most 1000 bits a batch
        serial = ber_sweep([BL, GPP_INO], Condition.LOS, [2.0, 6.0], 2000, rng_seed=4, block_bits=300, threads=1)
        pooled = ber_sweep([BL, GPP_INO], Condition.LOS, [2.0, 6.0], 2000, rng_seed=4, block_bits=300, threads=2)
        assert pooled.curves == serial.curves

    def test_batches_of_small_blocks_unchanged(self, monkeypatch):
        # every block_bits <= 100 keeps batches of 10,000 blocks, and so its random streams
        sizes = []
        block_fades = linksim._block_fades
        monkeypatch.setattr(linksim, "_block_fades",
                            lambda chan, n, rng: sizes.append(n) or block_fades(chan, n, rng))
        for block_bits in (1, 7, 100):
            sizes.clear()
            ber_bpsk((BL, Condition.LOS), 6.0, 10_000 * block_bits + 1, rng_seed=4, block_bits=block_bits)
            assert sizes == [10_000, 1]

    def test_ebn0_nan_inf_or_overflowing_rejected(self):
        assert ber_bpsk("awgn", linksim.MAX_EBN0_DB, 10, rng_seed=1).ber == 0.0
        for ebn0 in (math.nan, math.inf, 4000.0):
            with pytest.raises(ValueError, match="ebn0_db"):
                ber_bpsk("awgn", ebn0, 10, rng_seed=1)

    def test_bad_channel_spec(self):
        with pytest.raises(ValueError):
            ber_bpsk("rician", 5.0, 100, rng_seed=1)
        with pytest.raises(ValueError):
            ber_bpsk((BL, Condition.DS), 5.0, 100, rng_seed=1)
        with pytest.raises(ValueError):
            ber_bpsk("awgn", 5.0, 0, rng_seed=1)

    @pytest.mark.parametrize("field", ["mu_kf_db", "sigma_kf_db"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, None])
    def test_los_k_field_missing_or_non_finite_rejected(self, monkeypatch, field, bad):
        # the LOS K draw needs both fields; NLOS reads neither
        broken = ChannelParamSet("broken", los=dataclasses.replace(BL.los, **{field: bad}), nlos=BL.nlos)
        assert ber_bpsk((broken, Condition.NLOS), 30.0, 1000, rng_seed=1).ber == 0.0
        monkeypatch.setattr(linksim, "_batch_samples", pytest.fail)  # rejected before the first batch
        with pytest.raises(ValueError, match=f"parameter {field} is missing or non-finite"):
            ber_bpsk((broken, Condition.LOS), 30.0, 1000, rng_seed=1)
        with pytest.raises(ValueError, match=f"parameter {field} is missing or non-finite"):
            ber_sweep([BL, broken], Condition.LOS, [0.0, 30.0], 1000, rng_seed=1, threads=2)


class TestPerBitOracle:
    CHANNELS = {"awgn": "awgn", "BL-LOS": (BL, Condition.LOS), "BL-NLOS": (BL, Condition.NLOS)}

    @pytest.mark.parametrize("ebn0", [-math.inf, 0.0, 30.0])
    @pytest.mark.parametrize("block_bits", [1, 7, 100, 1000, 12345])
    @pytest.mark.parametrize("channel", list(CHANNELS))
    def test_error_counts_equal(self, monkeypatch, channel, block_bits, ebn0):
        # a smaller bit bound splits every block size into several batches, the last one partial
        monkeypatch.setattr(linksim, "_BATCH_BITS", 20_000)
        n_bits = 30_001  # not a multiple of any block size above 1
        pt = ber_bpsk(self.CHANNELS[channel], ebn0, n_bits, rng_seed=13, block_bits=block_bits)
        assert pt.ber == per_bit_errors(self.CHANNELS[channel], ebn0, n_bits, 13, block_bits) / n_bits

    @pytest.mark.parametrize("ebn0", [-math.inf, 0.0, 30.0])
    @pytest.mark.parametrize("block_bits", [1, 7, 100, 1000, 12345])
    @pytest.mark.parametrize("channel", list(CHANNELS))
    def test_samples_equal(self, channel, block_bits, ebn0):
        assert_batch_matches_oracle(self.CHANNELS[channel], ebn0, 2 * block_bits + 3, block_bits, seed=21)

    @given(seed=st.integers(0, 2**32 - 1), block_bits=st.integers(1, 3000), n_bits=st.integers(1, 20_000))
    @example(seed=0, block_bits=1, n_bits=1)  # numpy rounds an in-place product of one element differently
    @example(seed=0, block_bits=3000, n_bits=2999)  # one partial block
    def test_random_sizes(self, seed, block_bits, n_bits):
        assert_batch_matches_oracle((BL, Condition.LOS), 6.0, n_bits, block_bits, seed)
        pt = ber_bpsk((BL, Condition.LOS), 6.0, n_bits, rng_seed=seed, block_bits=block_bits)
        assert pt.ber == per_bit_errors((BL, Condition.LOS), 6.0, n_bits, seed, block_bits) / n_bits

    @given(seed=st.integers(0, 2**32 - 1), channel=st.sampled_from(list(CHANNELS)),
           ebn0=st.sampled_from([-math.inf, 0.0, 6.0, 30.0]), block_bits=st.integers(1, 1000),
           chunk_bits=st.integers(1, 500), full_chunks=st.integers(1, 6), last=st.integers(1, 500))
    @example(seed=0, channel="BL-LOS", ebn0=6.0, block_bits=100, chunk_bits=256, full_chunks=3, last=1)
    @example(seed=1, channel="BL-NLOS", ebn0=0.0, block_bits=1000, chunk_bits=300, full_chunks=6, last=299)
    @example(seed=2, channel="awgn", ebn0=-math.inf, block_bits=7, chunk_bits=1, full_chunks=6, last=1)
    def test_chunk_edges(self, seed, channel, ebn0, block_bits, chunk_bits, full_chunks, last):
        # a smaller chunk splits the batch into full_chunks chunks and a last one of
        # min(last, chunk_bits) bits; a chunk may start and end inside a block
        n_bits = full_chunks * chunk_bits + min(last, chunk_bits)
        with mock.patch.object(linksim, "_CHUNK_BITS", chunk_bits):
            assert_batch_matches_oracle(self.CHANNELS[channel], ebn0, n_bits, block_bits, seed)
            pt = ber_bpsk(self.CHANNELS[channel], ebn0, n_bits, rng_seed=seed, block_bits=block_bits)
        assert pt.ber == per_bit_errors(self.CHANNELS[channel], ebn0, n_bits, seed, block_bits) / n_bits

    @pytest.mark.parametrize("chunk_bits, n_bits", [(7, 7 * 300 + 5), (25_599, 3 * 25_599 + 2)])
    @pytest.mark.parametrize("block_bits", [1, 100, 12345])
    @pytest.mark.parametrize("channel", list(CHANNELS))
    def test_odd_chunk_sizes(self, monkeypatch, channel, block_bits, chunk_bits, n_bits):
        # the chunk boundaries decide the sizes of the bit and imaginary-part draws
        monkeypatch.setattr(linksim, "_CHUNK_BITS", chunk_bits)
        assert_batch_matches_oracle(self.CHANNELS[channel], 6.0, n_bits, block_bits, seed=5)

    @pytest.mark.parametrize("chunk_bits", [7, 25_599])
    @pytest.mark.parametrize("block_bits", [1, 100, 12345])
    @pytest.mark.parametrize("channel", list(CHANNELS))
    def test_stale_buffers_never_reach_z(self, monkeypatch, channel, block_bits, chunk_bits):
        # A reused set is built for the longest batch and holds what earlier batches drew; here it
        # starts as NaN and covers two more chunks than the batch, whose last chunk holds 2 bits.
        monkeypatch.setattr(linksim, "_CHUNK_BITS", chunk_bits)
        n_bits = 3 * chunk_bits + 2
        reals = linksim._noise_buffers(n_bits + 2 * chunk_bits)
        for buf in reals:
            buf.fill(np.nan)
        assert_batch_matches_oracle(self.CHANNELS[channel], 6.0, n_bits, block_bits, seed=5, reals=reals)
        assert_batch_matches_oracle(self.CHANNELS[channel], 6.0, n_bits - chunk_bits, block_bits, seed=6,
                                    reals=reals)

    def test_chunks_hold_chunk_bits_for_any_block_size(self, monkeypatch):
        monkeypatch.setattr(linksim, "_CHUNK_BITS", 256)
        chan, n = linksim._normalize_channel((BL, Condition.LOS)), 3 * 256 + 1
        for block_bits in (1, 100, 1000):
            chunks = linksim._batch_samples(chan, 1.0, -(-n // block_bits), block_bits, n, np.random.default_rng(0),
                                            linksim._noise_buffers(n))
            assert [len(z) for z, _ in chunks] == [256, 256, 256, 1]


class TestChunkedDraws:
    """``_batch_samples`` draws the bits, the real parts (into reused buffers) and the imaginary parts
    one chunk at a time. That keeps the random stream only if draws of a and then b values equal one
    draw of a + b, and leave the bit generator (with PCG64's spare 32-bit half) in the same state."""

    @pytest.mark.parametrize("n, chunk", [(12_345, 7), (1000, 999), (100_001, 25_599), (5, 1), (1, 3)])
    @pytest.mark.parametrize("draw", [lambda rng, k: rng.integers(0, 2, k), lambda rng, k: rng.standard_normal(k),
                                      lambda rng, k: rng.standard_normal(out=np.full(k + 3, np.nan)[:k])],
                             ids=["integers", "standard_normal", "standard_normal_out"])
    def test_chunked_draws_equal_one_draw(self, draw, n, chunk):
        for seed in (0, 3, 2**32 - 1):
            whole_rng, chunked_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            whole = draw(whole_rng, n)
            chunked = np.concatenate([draw(chunked_rng, min(chunk, n - lo)) for lo in range(0, n, chunk)])
            assert whole.dtype == chunked.dtype and np.array_equal(whole, chunked)
            assert chunked_rng.bit_generator.state == whole_rng.bit_generator.state


class TestBerMemory:
    @pytest.mark.parametrize("block_bits", [100, 1_000_000])
    @pytest.mark.parametrize("condition", [Condition.LOS, Condition.NLOS])
    def test_peak_of_a_million_bit_point(self, condition, block_bits):
        # A 1M-bit point holds 1 MB of bool bits and one set of 40 real-part buffers of up to 25,600
        # float64 values (8 MB), filled chunk by chunk with standard_normal(out=...). The bits are
        # drawn as int64 in chunks of 25,600, and each chunk draws its 25,600 imaginary parts; the
        # chunks add well under 2 MiB, for any block size. The peak was 24.5 MiB with the bits
        # (int64) and all 2M normals drawn whole, and about 54 MiB with the complex arithmetic
        # built at the batch's length.
        tracemalloc.start()
        try:
            ber_bpsk((BL, condition), 6.0, 1_000_000, rng_seed=1, block_bits=block_bits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 14 * 2**20


class TestIsotonic:
    def test_already_monotone_unchanged(self):
        y = np.array([0.3, 0.2, 0.1])
        assert np.allclose(_isotonic_nonincreasing(y), y)

    def test_violations_pooled(self):
        y = np.array([0.1, 0.3, 0.05])
        fit = _isotonic_nonincreasing(y)
        assert np.all(np.diff(fit) <= 1e-15)
        assert math.isclose(fit[:2].sum(), 0.4)  # pooled pair keeps the mean


class TestBerSweep:
    def test_single_point_grid(self):
        sweep = ber_sweep([BL], Condition.LOS, [8.0], 50_000, rng_seed=9)
        assert len(sweep.curves["BL"]) == 1
        assert isinstance(sweep.curves["BL"][0], BerPoint)
        assert sweep.crossing_db("BL", 1e-3) is None  # one point cannot bracket

    def test_monotone_curves_within_noise(self):
        grid = [0.0, 4.0, 8.0, 12.0]
        sweep = ber_sweep([GPP_INO], Condition.LOS, grid, 100_000, rng_seed=4)
        pts = sweep.curves["3GPP-InO"]
        for a, b in zip(pts, pts[1:]):
            assert b.ber <= a.ber + a.ci95 + b.ci95
        mono = _isotonic_nonincreasing(np.array([p.ber for p in pts]))
        assert all(x >= y - 1e-15 for x, y in zip(mono, mono[1:]))

    def test_gap_positive_between_low_and_high_k(self):
        lo = ChannelParamSet("lowk", los=ConditionParams(
            60.0, 2.0, 3.0, 0.0, 0.5, 5.0, 1.0, 10, 1, 10, 1, 5, 1, 5, 1))
        hi = ChannelParamSet("highk", los=ConditionParams(
            60.0, 2.0, 3.0, 12.0, 0.5, 5.0, 1.0, 10, 1, 10, 1, 5, 1, 5, 1))
        grid = list(np.arange(0.0, 22.1, 2.0))
        sweep = ber_sweep([lo, hi], Condition.LOS, grid, 150_000, rng_seed=6)
        gap = sweep.gap_db("lowk", "highk", 1e-2)
        assert gap is not None and gap > 0.0

    def test_repeated_preset_name_rejected(self, monkeypatch):
        # the curves are keyed by name, so a repeat would replace a curve; rejected before any point runs
        monkeypatch.setattr(linksim, "ber_bpsk", pytest.fail)
        twin = dataclasses.replace(GPP_INO, los=BL.los, nlos=BL.nlos)
        for presets in ([BL, BL], [GPP_INO, BL, twin]):
            with pytest.raises(ValueError, match=f"preset {presets[-1].name} appears more than once"):
                ber_sweep(presets, Condition.LOS, [0.0], 10, rng_seed=1, threads=2)

    def test_unbracketed_target_unavailable(self):
        sweep = ber_sweep([BL], Condition.LOS, [0.0, 2.0], 20_000, rng_seed=8)
        assert sweep.crossing_db("BL", 1e-6) is None
        assert sweep.gap_db("BL", "BL", 1e-6) is None

    def test_bracket_opening_at_minus_inf_unavailable(self):
        # the target lies between -inf dB and 30 dB, where log-linear interpolation has no finite value
        points = (BerPoint(-math.inf, 0.5, 1000, 0.031), BerPoint(30.0, 0.0, 1000, 0.0))
        sweep = linksim.BerSweep(Condition.LOS, {"A": points, "B": points})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sweep.crossing_db("A", 0.3) is None
            assert sweep.gap_db("A", "B", 0.3) is None
        finite = (BerPoint(0.0, 0.5, 1000, 0.031), points[1])
        assert 0.0 < linksim.BerSweep(Condition.LOS, {"A": finite}).crossing_db("A", 0.3) < 30.0

    def test_deterministic_per_seed(self):
        grid = [2.0, 6.0]
        a = ber_sweep([BL], Condition.NLOS, grid, 30_000, rng_seed=42)
        b = ber_sweep([BL], Condition.NLOS, grid, 30_000, rng_seed=42)
        assert a.curves == b.curves

    def test_curves_independent_of_threads(self):
        sweeps = [ber_sweep([BL, GPP_INO], Condition.LOS, [0.0, 6.0, 12.0], 20_000, rng_seed=3, threads=t)
                  for t in (None, 1, 2, 3)]
        for sweep in sweeps[1:]:
            assert sweep == sweeps[0]

    def test_sweep_equals_fresh_points_at_any_thread_count(self):
        # 2,051,201 bits make batches of 1M, 1M and 51,201 bits; the last chunk holds one bit, and
        # each set of reused buffers holds what the point before it drew
        n_bits, grid, presets = 2_051_201, [0.0, 10.0, 20.0], [BL, GPP_INO]
        fresh = {ps.name: tuple(ber_bpsk((ps, Condition.LOS), ebn0, n_bits,
                                         np.random.SeedSequence(7, spawn_key=(pi, gi)))
                                for gi, ebn0 in enumerate(grid))
                 for pi, ps in enumerate(presets)}
        for threads in (1, 2, 5):
            assert ber_sweep(presets, Condition.LOS, grid, n_bits, rng_seed=7, threads=threads).curves == fresh

    @pytest.mark.parametrize("threads, sets", [(None, 1), (1, 1), (2, 2), (5, 5), (8, 6)])
    def test_one_buffer_set_per_worker_allocated_on_the_calling_thread(self, monkeypatch, threads, sets):
        made = []
        noise_buffers = linksim._noise_buffers
        monkeypatch.setattr(linksim, "_noise_buffers",
                            lambda n: made.append((threading.get_ident(), n)) or noise_buffers(n))
        monkeypatch.setattr(linksim, "_BATCH_BITS", 1000)  # three batches a point, all on one set
        sweep = ber_sweep([BL, GPP_INO], Condition.LOS, [0.0, 6.0, 12.0], 2500, rng_seed=3, block_bits=100,
                          threads=threads)
        assert made == [(threading.get_ident(), 1000)] * sets
        # the lent set is handed back: a later call on this thread allocates its own, for its own size
        made.clear()
        assert ber_bpsk((BL, Condition.LOS), 0.0, 2500, np.random.SeedSequence(3, spawn_key=(0, 0))) \
            == sweep.curves["BL"][0]
        assert ber_bpsk("awgn", 0.0, 300, rng_seed=1).n_bits == 300
        assert made == [(threading.get_ident(), 1000), (threading.get_ident(), 300)]

    @pytest.mark.parametrize("n_bits, block_bits", [(0, 100), (1000, 0), (1000, 1_000_001)])
    def test_bad_bits_rejected_before_any_point_runs(self, monkeypatch, n_bits, block_bits):
        monkeypatch.setattr(linksim, "_noise_buffers", pytest.fail)
        monkeypatch.setattr(linksim, "ber_bpsk", pytest.fail)
        with pytest.raises(ValueError, match="n_bits" if n_bits < 1 else "block_bits"):
            ber_sweep([BL, GPP_INO], Condition.LOS, [0.0, 6.0], n_bits, rng_seed=1, block_bits=block_bits,
                      threads=2)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            ber_sweep([BL], Condition.LOS, [], 1000, rng_seed=1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 4000.0])
    def test_bad_grid_value_rejected_before_any_point_runs(self, monkeypatch, bad):
        monkeypatch.setattr(linksim, "ber_bpsk", pytest.fail)
        with pytest.raises(ValueError, match="ebn0_db"):
            ber_sweep([BL, GPP_INO], Condition.LOS, [0.0, -math.inf, bad], 1000, rng_seed=1, threads=2)
