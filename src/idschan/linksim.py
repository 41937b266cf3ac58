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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .genchan import _require_finite, draw_fades
from .params import ChannelParamSet
from .pathdata import Condition, LinkBudget, ScenarioDataset, format_float, mw_to_dbm, write_rows


def noise_floor(budget: LinkBudget) -> float:
    """Thermal noise power in dBm over the budget bandwidth."""
    return -174.0 + 10.0 * math.log10(budget.bandwidth_hz) + budget.noise_figure_db


@dataclass(frozen=True)
class RssiPoint:
    rx_id: int
    position_m: tuple[float, float, float]
    condition: Condition
    rssi_dbm: float
    snr_db: float


def rssi_map(ds: ScenarioDataset) -> list[RssiPoint]:
    """Total received power and SNR per receiver; outage maps to -inf."""
    nf = noise_floor(ds.link_budget)
    out = []
    for rec in ds.records:
        rssi = mw_to_dbm(rec.total_power_mw)
        out.append(RssiPoint(rec.rx_id, rec.position_m, rec.condition, rssi, rssi - nf))
    return out


def write_rssi_csv(points: Sequence[RssiPoint], path: str | Path) -> None:
    """Plot-ready RSSI/SNR table, one row per receiver."""
    write_rows(path, [["rx_id", "x", "y", "z", "condition", "rssi_dbm", "snr_db"]] + [
        [p.rx_id, *map(format_float, p.position_m), p.condition.value,
         format_float(p.rssi_dbm), format_float(p.snr_db)]
        for p in points
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
# Higher Eb/N0 is rejected: the linear SNR 10 ** (ebn0_db / 10) would overflow a float near 3083 dB.
_MAX_EBN0_DB = 3000.0


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
        _require_finite(block, ("mu_kf_db", "sigma_kf_db"))
    return block, condition


def _block_fades(chan, n_blocks: int, rng: np.random.Generator) -> np.ndarray:
    if chan is None:
        return np.ones(n_blocks, dtype=complex)
    block, condition = chan
    if condition is Condition.LOS:
        kf_db = rng.normal(block.mu_kf_db, abs(block.sigma_kf_db), n_blocks)
        return draw_fades(kf_db, rng, n_blocks)
    return draw_fades(None, rng, n_blocks)


def _batch_samples(chan, amp: float, n_blocks: int, block_bits: int, n: int,
                   rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Decision statistic and bits sent of one batch: ``n`` bits over ``n_blocks`` fades.

    Every value comes from the same float operations, in the same order, as the per-bit form
    ``real((amp * h * s + noise) * exp(-1j * angle(h)))`` with ``h`` the fades repeated per bit.
    Elementwise operations commute with ``np.repeat``, so the scaling and the derotation run
    once per block.
    """
    fades = _block_fades(chan, n_blocks, rng)
    bits = rng.integers(0, 2, n)
    normals = rng.standard_normal(2 * n)  # the same stream as two draws of n
    noise = np.empty(n, dtype=complex)
    noise.real, noise.imag = normals[:n], normals[n:]
    del normals  # lowers the peak memory of a batch
    # a complex divide multiplies by the reciprocal, so dividing each float half would differ
    noise /= math.sqrt(2.0)
    y = np.repeat(amp * fades, block_bits)[:n]
    y *= bits * 2.0 - 1.0
    y += noise
    # The complex product, into a separate array: numpy rounds an in-place product of one
    # element differently, and the hand-expanded real part is not bit-identical either.
    return np.multiply(y, np.repeat(np.exp(-1j * np.angle(fades)), block_bits)[:n], out=noise).real, bits


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
    held for ``block_bits`` bits, at most 1,000,000. Batches own seeds derived
    from the root seed and run one after another, and their error counts are
    summed. The confidence half-width is the normal approximation of the
    binomial at 95%.
    """
    if n_bits < 1:
        raise ValueError("n_bits must be >= 1")
    if not 1 <= block_bits <= _BATCH_BITS:
        raise ValueError(f"block_bits must be from 1 to {_BATCH_BITS}, got {block_bits}")
    if not -math.inf <= ebn0_db <= _MAX_EBN0_DB:
        raise ValueError(f"ebn0_db must be -inf or at most {_MAX_EBN0_DB:g} dB, got {ebn0_db!r}")
    chan = _normalize_channel(channel)
    amp = math.sqrt(10.0 ** (ebn0_db / 10.0)) if ebn0_db != -math.inf else 0.0

    n_blocks_total = -(-n_bits // block_bits)
    seed_seq = rng_seed if isinstance(rng_seed, np.random.SeedSequence) else np.random.SeedSequence(rng_seed)
    batch_blocks = min(_BATCH_BLOCKS, _BATCH_BITS // block_bits)
    errors = 0
    for batch in range(-(-n_blocks_total // batch_blocks)):
        # child ``batch`` of seed_seq.spawn(), derived on demand without advancing seed_seq
        child = np.random.SeedSequence(seed_seq.entropy, spawn_key=seed_seq.spawn_key + (batch,),
                                       pool_size=seed_seq.pool_size)
        blocks = min(batch_blocks, n_blocks_total - batch * batch_blocks)
        batch_bits = min(blocks * block_bits, n_bits - batch * batch_blocks * block_bits)
        z, bits = _batch_samples(chan, amp, blocks, block_bits, batch_bits, np.random.default_rng(child))
        errors += int(np.count_nonzero((z > 0) != (bits == 1)))
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
    sweep is deterministic and independent of evaluation order. With
    ``threads`` > 1 the points run on one thread pool, and the curves are the
    same for any thread count.
    """
    if len(ebn0_grid) == 0:
        raise ValueError("ebn0_grid must not be empty")
    condition = Condition(condition)
    for ps in presets:  # a bad block is rejected before any point runs
        _normalize_channel((ps, condition))

    def run_point(point) -> BerPoint:
        (pi, ps), (gi, ebn0) = point
        seed = np.random.SeedSequence(rng_seed, spawn_key=(pi, gi))
        return ber_bpsk((ps, condition), ebn0, n_bits, seed, block_bits)

    points = list(itertools.product(enumerate(presets), enumerate(ebn0_grid)))
    if threads is not None and threads > 1 and len(points) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_point, points))
    else:
        results = list(map(run_point, points))
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
