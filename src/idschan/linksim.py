"""Noise floor, RSSI/SNR maps, and Monte-Carlo uncoded BPSK error rates.

BER uses a flat-fading abstraction: one complex gain per block of bits, drawn
from the generator's fading model with the K-factor redrawn per block from
Normal(mu_KF, |sigma_KF|); tap delays do not enter. Detection is the real
part after derotating by the known channel phase. Shadow fading is excluded,
keeping the comparison purely small-scale.
"""

from __future__ import annotations

import itertools
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .genchan import _require_params, draw_fades
from .params import ChannelParamSet
from .pathdata import Condition, LinkBudget, ScenarioDataset, dbm_to_mw, format_float, mw_to_dbm, write_rows


def noise_floor(budget: LinkBudget) -> float:
    """Thermal noise power in dBm over the budget bandwidth."""
    return -174.0 + 10.0 * math.log10(budget.bandwidth_hz) + budget.noise_figure_db


def rssi_map(ds: ScenarioDataset) -> np.ndarray:
    """The RSSI column: each receiver's total received power in dBm, in receiver order; -inf for an outage."""
    return np.array([mw_to_dbm(total) for total in ds.total_power_mw.tolist()], dtype=float)


def write_rssi_csv(ds: ScenarioDataset, rssi_dbm: np.ndarray, path: str | Path) -> None:
    """Plot-ready RSSI/SNR table, one row per receiver: the RSSI column beside the dataset's rx ids,
    positions and conditions, with SNR the RSSI less the noise floor."""
    nf = noise_floor(ds.link_budget)
    write_rows(path, [["rx_id", "x", "y", "z", "condition", "rssi_dbm", "snr_db"]] + [
        [rx_id, *map(format_float, position), condition.value, format_float(rssi), format_float(rssi - nf)]
        for rx_id, position, condition, rssi in zip(ds.rx_ids, ds.positions.tolist(), ds.conditions, rssi_dbm.tolist())
    ])


# --------------------------------------------------------------------------
# BPSK Monte Carlo
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class BerPoint:
    ebn0_db: float
    ber: float
    n_bits: int
    ci95: float


# Blocks and bits a batch holds at most, so batches (and their random streams) depend on block_bits alone;
# every block_bits <= 100 gets 10,000 blocks.
_BATCH_BLOCKS, _BATCH_BITS = 10_000, 1_000_000
# Bits a chunk of a batch holds at most, for any block_bits: a batch's bits and noise parts are drawn,
# and its arithmetic runs, chunk by chunk on arrays that stay in cache. Chosen by measurement: on
# 2 vCPUs a 2M-bit point took about the same time with chunks of 8,192 to 102,400 bits, and 1.6 times as
# long unchunked.
_CHUNK_BITS = 25_600
# Higher Eb/N0 is rejected: the linear SNR 10 ** (ebn0_db / 10) would overflow a float near 3083 dB.
MAX_EBN0_DB = 3000.0


def _normalize_channel(channel):
    if isinstance(channel, str):
        if channel.strip().lower() != "awgn":
            raise ValueError(f"unknown channel {channel!r}")
        return None
    params, condition = channel
    condition = Condition(condition)
    if condition not in (Condition.LOS, Condition.NLOS):
        raise ValueError(f"BER channels are LOS or NLOS, not {condition}")
    block = params.block(condition)
    if condition is Condition.LOS:  # the per-block K draw needs both
        _require_params(block, ("mu_kf_db", "sigma_kf_db"))
    return block, condition


def _block_fades(chan, n_blocks: int, rng: np.random.Generator) -> np.ndarray:
    if chan is None:
        return np.ones(n_blocks, dtype=complex)
    block, condition = chan
    if condition is Condition.LOS:
        kf_db = rng.normal(block.mu_kf_db, abs(block.sigma_kf_db), n_blocks)
        return draw_fades(kf_db, rng, n_blocks)
    return draw_fades(None, rng, n_blocks)


def _noise_buffers(n: int) -> list[np.ndarray]:
    """One float64 buffer per ``_CHUNK_BITS`` chunk of an ``n``-bit batch, for its real noise parts.
    A set for n bits serves every batch of at most n bits."""
    return [np.empty(min(_CHUNK_BITS, n - lo)) for lo in range(0, n, _CHUNK_BITS)]


# The buffer set a ``ber_sweep`` pool worker holds for its whole life, so that each point runs through
# ``ber_bpsk``, called through the module, and reuses a set the sweep allocated on its calling thread.
_lent = threading.local()


def _batch_samples(chan, amp: float, block_bits: int, n: int,
                   rng: np.random.Generator, reals: list[np.ndarray]) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield the decision statistic and the bits sent of one batch, ``n`` bits over one fade per
    ``block_bits`` bits (the last block may be short), one chunk of at most ``_CHUNK_BITS`` bits at a time.

    The draws keep the order that fixes the random stream: the fades, the ``n`` bits, the ``n``
    real parts of the noise, then its ``n`` imaginary parts. The generator keeps no state between
    calls outside its bit generator, so draws of a and then b values equal one draw of a + b. The
    bits are therefore drawn chunk by chunk (int64, as before) into one bool array. The real parts
    are all drawn before any imaginary part, but chunk by chunk into ``reals``, a buffer set from
    ``_noise_buffers`` for at least ``n`` bits whose earlier contents are overwritten; each chunk's
    imaginary parts are drawn as the chunk is built. The arithmetic runs chunk by chunk and builds
    no other array of the batch's length. A chunk may start or end inside a block.
    Every value comes from the same float operations, in the same order, as the per-bit form
    ``real((amp * h * s + noise) * exp(-1j * angle(h)))`` with ``h`` the fades repeated per bit.
    Elementwise operations commute with ``np.repeat`` and with slicing, so the scaling and the
    derotation run once per block.
    """
    fades = _block_fades(chan, -(-n // block_bits), rng)
    starts = range(0, n, _CHUNK_BITS)
    bits = np.empty(n, dtype=bool)
    for lo in starts:
        bits[lo:lo + _CHUNK_BITS] = rng.integers(0, 2, min(_CHUNK_BITS, n - lo))
    real = [rng.standard_normal(out=reals[k][:min(_CHUNK_BITS, n - lo)]) for k, lo in enumerate(starts)]
    scaled, derotate = amp * fades, np.exp(-1j * np.angle(fades))
    for lo, real_k in zip(starts, real):
        hi = min(lo + _CHUNK_BITS, n)
        # bits lo..hi-1 lie in blocks b0..b1-1, each repeated once per bit of it in the chunk
        b0, b1 = lo // block_bits, -(-hi // block_bits)
        reps = np.diff(np.clip(np.arange(b0, b1 + 1) * block_bits, lo, hi))
        noise = np.empty(hi - lo, dtype=complex)
        noise.real, noise.imag = real_k, rng.standard_normal(hi - lo)
        # a complex divide multiplies by the reciprocal, so dividing each float half would differ
        noise /= math.sqrt(2.0)
        y = np.repeat(scaled[b0:b1], reps)
        y *= bits[lo:hi] * 2.0 - 1.0
        y += noise
        # The complex product, into a separate array: numpy rounds an in-place product of one
        # element differently, and the hand-expanded real part is not bit-identical either.
        z = np.multiply(y, np.repeat(derotate[b0:b1], reps), out=noise).real
        yield z, bits[lo:hi]


def _check_ebn0(ebn0_db: float) -> None:
    if not -math.inf <= ebn0_db <= MAX_EBN0_DB:
        raise ValueError(f"ebn0_db must be -inf or at most {MAX_EBN0_DB:g} dB, got {ebn0_db!r}")


def _check_bits(n_bits: int, block_bits: int) -> None:
    if n_bits < 1:
        raise ValueError("n_bits must be >= 1")
    if not 1 <= block_bits <= _BATCH_BITS:
        raise ValueError(f"block_bits must be from 1 to {_BATCH_BITS}, got {block_bits}")


def ber_bpsk(
    channel,
    ebn0_db: float,
    n_bits: int,
    rng_seed,
    block_bits: int = 100,
) -> BerPoint:
    """Monte-Carlo BPSK bit error rate at one Eb/N0 point.

    ``channel`` is "awgn" or a (ChannelParamSet, condition) pair, whose LOS
    block needs a finite ``mu_kf_db`` and ``sigma_kf_db``. A fade is
    held for ``block_bits`` bits, at most 1,000,000. The bits are cut, in order, into batches
    of whole blocks, at most 10,000 blocks and 1,000,000 bits each; batches own seeds derived
    from the root seed and run one after another. Errors are counted per chunk of a batch
    against its bool bits and summed; a batch holds one byte of bits per bit, plus one chunk.
    The real parts of the noise go into one set of chunk-sized float64 buffers (8 bytes a bit
    of the largest batch), which every batch of the call reuses: the call allocates the set,
    unless it runs on a ``ber_sweep`` pool worker, which holds one. The confidence half-width
    is the normal approximation of the binomial at 95%.
    """
    _check_bits(n_bits, block_bits)
    _check_ebn0(ebn0_db)
    chan = _normalize_channel(channel)
    amp = math.sqrt(dbm_to_mw(ebn0_db))  # 0.0 at -inf dB

    seed_seq = rng_seed if isinstance(rng_seed, np.random.SeedSequence) else np.random.SeedSequence(rng_seed)
    # a batch's bits: B whole blocks of b bits, so there are ceil(n/(b*B)) = ceil(ceil(n/b)/B) batches
    batch_bits = min(_BATCH_BLOCKS, _BATCH_BITS // block_bits) * block_bits
    reals = getattr(_lent, "reals", None) or _noise_buffers(min(n_bits, _BATCH_BITS))
    errors = 0
    for batch, lo in enumerate(range(0, n_bits, batch_bits)):
        # child ``batch`` of seed_seq.spawn(), derived on demand without advancing seed_seq
        child = np.random.SeedSequence(seed_seq.entropy, spawn_key=seed_seq.spawn_key + (batch,),
                                       pool_size=seed_seq.pool_size)
        n = min(batch_bits, n_bits - lo)
        for z, bits in _batch_samples(chan, amp, block_bits, n, np.random.default_rng(child), reals):
            errors += int(np.count_nonzero((z > 0) != bits))
    ber = errors / n_bits
    ci95 = 1.96 * math.sqrt(max(ber * (1.0 - ber), 0.0) / n_bits)
    return BerPoint(ebn0_db=float(ebn0_db), ber=ber, n_bits=n_bits, ci95=ci95)


def _isotonic_nonincreasing(y: np.ndarray) -> np.ndarray:
    """Pool-adjacent-violators fit of a nonincreasing sequence (equal weights)."""
    merged: list[list[float]] = []
    for v in y.astype(float):
        merged.append([v, 1])
        while len(merged) > 1 and merged[-2][0] < merged[-1][0]:
            v2, n2 = merged.pop()
            v1, n1 = merged.pop()
            merged.append([(v1 * n1 + v2 * n2) / (n1 + n2), n1 + n2])
    out: list[float] = []
    for v, n in merged:
        out.extend([v] * int(n))
    return np.array(out)


@dataclass(frozen=True)
class BerSweep:
    """BER curves over an Eb/N0 grid for several parameter sets. The grid and
    the isotonic (nonincreasing) fit of a curve come from its points."""

    condition: Condition
    curves: dict[str, tuple[BerPoint, ...]]

    def crossing_db(self, name: str, target_ber: float = 1e-3) -> float | None:
        """Eb/N0 where the isotonic curve reaches the target, by log-linear
        interpolation; None when the grid does not bracket the target or the
        bracket opens at -inf dB."""
        curve = self.curves[name]
        x = np.array([p.ebn0_db for p in curve])
        m = _isotonic_nonincreasing(np.array([p.ber for p in curve]))
        floor = 0.5 / curve[0].n_bits
        below = np.nonzero(m <= target_ber)[0]
        if below.size == 0:
            return None
        j = int(below[0])
        if j == 0:
            return None if m[0] < target_ber else float(x[0])
        if x[j - 1] == -math.inf:
            return None
        p_hi, p_lo = m[j - 1], max(m[j], floor)
        frac = (math.log10(p_hi) - math.log10(target_ber)) / (
            math.log10(p_hi) - math.log10(p_lo)
        )
        return float(x[j - 1] + frac * (x[j] - x[j - 1]))

    def gap_db(self, name_a: str, name_b: str, target_ber: float = 1e-3) -> float | None:
        """Eb/N0 penalty of name_a relative to name_b at the target BER."""
        xa = self.crossing_db(name_a, target_ber)
        xb = self.crossing_db(name_b, target_ber)
        if xa is None or xb is None:
            return None
        return xa - xb


def ber_sweep(
    presets: Sequence[ChannelParamSet],
    condition: Condition | str,
    ebn0_grid: Sequence[float],
    n_bits: int,
    rng_seed: int,
    block_bits: int = 100,
    threads: int | None = None,
) -> BerSweep:
    """BER curves for several parameter sets over one Eb/N0 grid.

    Each (preset, grid point) owns a seed derived from the root seed, so the
    sweep is deterministic and independent of evaluation order. A repeated
    preset name (the curves are keyed by name), or a preset, grid value, bit
    count or block size that ``ber_bpsk`` rejects, is rejected before any
    point runs. The points run through ``ber_bpsk`` on one thread pool of ``threads`` workers
    (one when ``threads`` is None or at most 1, no more than the points), and the curves are
    the same for any thread count. The real-part buffer sets, one per worker, are allocated on
    the calling thread before any point runs; the pool's initializer gives each worker one set
    for its whole life, and its ``ber_bpsk`` calls reuse it.
    """
    if len(ebn0_grid) == 0:
        raise ValueError("ebn0_grid must not be empty")
    condition = Condition(condition)
    # a repeated name, a bad parameter block, bit count, block size or grid value is rejected before any point runs
    names = [ps.name for ps in presets]
    for name in names:
        if names.count(name) > 1:
            raise ValueError(f"preset {name} appears more than once")
    for ps in presets:
        _normalize_channel((ps, condition))
    for ebn0 in ebn0_grid:
        _check_ebn0(ebn0)
    _check_bits(n_bits, block_bits)

    points = list(itertools.product(enumerate(presets), enumerate(ebn0_grid)))
    workers = min(threads, len(points)) if threads is not None and threads > 1 else 1
    sets = [_noise_buffers(min(n_bits, _BATCH_BITS)) for _ in range(workers)]

    def lend() -> None:
        _lent.reals = sets.pop()  # the pool starts at most ``workers`` threads

    def run_point(point) -> BerPoint:
        (pi, ps), (gi, ebn0) = point
        return ber_bpsk((ps, condition), ebn0, n_bits, np.random.SeedSequence(rng_seed, spawn_key=(pi, gi)),
                        block_bits)

    with ThreadPoolExecutor(max_workers=workers, initializer=lend) as pool:
        results = list(pool.map(run_point, points))
    n_grid = len(ebn0_grid)
    return BerSweep(condition, {ps.name: tuple(results[pi * n_grid:(pi + 1) * n_grid])
                                for pi, ps in enumerate(presets)})


def write_ber_csv(sweep: BerSweep, path: str | Path) -> None:
    """BER table, one row per (parameter set, Eb/N0 point)."""
    write_rows(path, [["preset", "condition", "ebn0_db", "ber", "ci95", "n_bits"]] + [
        [name, sweep.condition.value, *map(format_float, (pt.ebn0_db, pt.ber, pt.ci95)), pt.n_bits]
        for name, curve in sweep.curves.items()
        for pt in curve
    ])
