"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
summary lines (they are also emitted under plain ``pytest`` on failure).
"""

import json
import math
import time

import numpy as np
from scipy.special import erfc

from dataset_builder import PathRow, record_from_rows, records_of

from idschan.extract import angular_spread, fit_path_loss, k_factor, rms_delay_spread, summarize
from idschan.genchan import draw_realizations, realizations_to_dataset
from idschan.linksim import LinkBudget, ber_bpsk, ber_sweep
from idschan.params import BL, GPP_INO
from idschan.pathdata import Condition, Interaction, PathTable, Provenance, ScenarioDataset
from idschan.tracer import FACES, PEC_METAL, CabinLayout, Scene, build_scenario, trace_scenario
from idschan.cli import main


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")


# --------------------------------------------------------------------------
# 1. Friis/intercept recovery on a LOS-only empty-box trace
# --------------------------------------------------------------------------


def test_criterion_1_friis_intercept():
    t0 = time.perf_counter()
    layout = CabinLayout()
    scene = Scene(
        name="friis-check",
        cabin_dims_m=layout.cabin_dims_m,
        wall_materials={f: PEC_METAL for f in FACES},
        blockers=(),
        tx_position_m=(layout.tx_standoff_m, layout.tx_y_m, layout.tx_z_m),
        rx_grid=layout.rx_points(),
        max_reflections=0,
    )
    ds = trace_scenario(scene, LinkBudget())
    fit = fit_path_loss(ds, Condition.LOS)
    dt = time.perf_counter() - t0
    ok = (
        abs(fit.b - 2.0) <= 0.05
        and abs(fit.a_db - 61.4) <= 0.2
        and fit.n_points == 2400
        and dt < 10.0
    )
    report(1, ok, f"A={fit.a_db:.3f} dB (61.4+-0.2), B={fit.b:.4f} (2.00+-0.05), "
                  f"sigma_SF={fit.sigma_sf_db:.2e}, runtime {dt:.1f}s < 10s")
    assert ok


# --------------------------------------------------------------------------
# 2. per-record statistics equal independent brute-force evaluation
# --------------------------------------------------------------------------


def _oracle_rms_ds(p_mw, tau):
    tot = math.fsum(p_mw)
    m1 = math.fsum(t * p for t, p in zip(tau, p_mw)) / tot
    m2 = math.fsum(t * t * p for t, p in zip(tau, p_mw)) / tot
    return math.sqrt(m2 - m1 * m1)


def _oracle_as(p_mw, ang_deg):
    tot = math.fsum(p_mw)
    th = [math.radians(a) for a in ang_deg]
    nu = math.fsum(t * p for t, p in zip(th, p_mw)) / tot
    dev = []
    for t in th:
        d = math.fmod(t - nu + math.pi, 2.0 * math.pi)
        if d < 0.0:
            d += 2.0 * math.pi
        dev.append(d - math.pi)
    return math.degrees(math.sqrt(math.fsum(d * d * p for d, p in zip(dev, p_mw)) / tot))


def _oracle_kf(p_mw, direct_idx):
    rest = math.fsum(p for i, p in enumerate(p_mw) if i != direct_idx)
    return 10.0 * math.log10(p_mw[direct_idx] / rest)


def test_criterion_2_statistics_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240228)
    tx = (0.0, 0.0, 1.0)
    worst = 0.0
    checked = 0
    for i in range(1000):
        n = int(rng.integers(2, 26))
        los = bool(i % 2 == 0)
        powers = rng.uniform(-100.0, -30.0, n)
        delays = rng.uniform(1.0, 300.0, n)
        angles = {k: rng.uniform(-179.999, 180.0, n) for k in ("ASD", "ASA")}
        angles["ESD"] = rng.uniform(-90.0, 90.0, n)
        angles["ESA"] = rng.uniform(-90.0, 90.0, n)
        comps = []
        for j in range(n):
            tags = (Interaction.DIRECT,) if (los and j == 0) else (Interaction.REFLECT,)
            comps.append(PathRow(
                powers[j], delays[j], angles["ASD"][j], angles["ESD"][j],
                angles["ASA"][j], angles["ESA"][j], tags))
        rec = record_from_rows(i, (3.0, 0.0, 1.0), tx, comps)
        p_mw = [10 ** (p / 10.0) for p in powers]

        def rel(a, b):
            return abs(a - b) / max(abs(b), 1e-30)

        worst = max(worst, rel(rms_delay_spread(rec), _oracle_rms_ds(p_mw, delays)))
        for kind in ("ASD", "ASA", "ESD", "ESA"):
            worst = max(worst, rel(angular_spread(rec, kind), _oracle_as(p_mw, angles[kind])))
        if los:
            worst = max(worst, rel(k_factor(rec), _oracle_kf(p_mw, 0)))
        checked += 1
    dt = time.perf_counter() - t0
    ok = worst <= 1e-9 and checked == 1000 and dt < 5.0
    report(2, ok, f"{checked} records, worst relative deviation {worst:.2e} <= 1e-9, "
                  f"runtime {dt:.1f}s < 5s")
    assert ok


# --------------------------------------------------------------------------
# 3. path-loss fit recovery under shadow fading
# --------------------------------------------------------------------------


def test_criterion_3_fit_recovery():
    a_true, b_true, sf_true = 58.49, 1.45, 5.58
    budget = LinkBudget()
    tx = (0.0, 0.0, 1.0)
    passes = 0
    results = []
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        d = 10.0 ** rng.uniform(0.0, math.log10(13.5), 2400)
        noise = rng.normal(0.0, sf_true, 2400)
        # one direct path per receiver, at the power its distance and shadow fade give
        power = [budget.tx_power_dbm - (a_true + 10.0 * b_true * math.log10(d[i]) + noise[i]) for i in range(2400)]
        zeros = np.zeros(2400)
        paths = PathTable(power, np.full(2400, 10.0), zeros, zeros, zeros, zeros, (Interaction.DIRECT.value,),
                          np.zeros(2400, dtype=np.uint8))
        ds = ScenarioDataset("fit", tx, budget, range(2400), [(d[i], 0.0, 1.0) for i in range(2400)], paths,
                             [1] * 2400, Provenance.SYNTHETIC)
        fit = fit_path_loss(ds, Condition.LOS)
        good = (
            abs(fit.a_db - a_true) <= 1.0
            and abs(fit.b - b_true) <= 0.1
            and abs(fit.sigma_sf_db - sf_true) / sf_true <= 0.15
        )
        passes += good
        results.append((fit.a_db, fit.b, fit.sigma_sf_db))
    ok = passes >= 19
    a_m = np.mean([r[0] for r in results])
    b_m = np.mean([r[1] for r in results])
    s_m = np.mean([r[2] for r in results])
    report(3, ok, f"{passes}/20 seeds within (A+-1 dB, B+-0.1, sigma+-15%); "
                  f"mean recovered A={a_m:.2f}, B={b_m:.3f}, sigma={s_m:.2f}")
    assert ok


# --------------------------------------------------------------------------
# 4. generator round trip and exact invariants
# --------------------------------------------------------------------------


def test_criterion_4_generator_round_trip():
    t0 = time.perf_counter()
    ds = realizations_to_dataset(draw_realizations(BL, Condition.LOS, 20, range(2400)), "BL-LOS-gen", LinkBudget())
    summary = summarize(ds)
    los = summary.params.los
    mu_ds_err = abs(los.mu_ds_ns - BL.los.mu_ds_ns) / BL.los.mu_ds_ns
    mu_kf_err = abs(los.mu_kf_db - BL.los.mu_kf_db)

    violations = 0
    reals = draw_realizations(BL, Condition.LOS, 20, range(10_000))
    for p, t, target_ds_ns, kf_db in zip(reals.powers_lin, reals.delays_ns, reals.target_ds_ns, reals.kf_db):
        if abs(p.sum() - 1.0) > 1e-12:
            violations += 1
            continue
        m1 = float(np.sum(t * p))
        m2 = float(np.sum(t * t * p))
        ds_realized = math.sqrt(max(m2 - m1 * m1, 0.0))
        if abs(ds_realized - target_ds_ns) > 1e-9 * target_ds_ns:
            violations += 1
            continue
        ratio = p[0] / p[1:].sum()
        if abs(ratio - 10 ** (kf_db / 10.0)) > 1e-9 * max(ratio, 1.0):
            violations += 1
    dt = time.perf_counter() - t0
    ok = mu_ds_err <= 0.10 and mu_kf_err <= 1.0 and violations == 0 and dt < 30.0
    report(4, ok, f"mu_DS {los.mu_ds_ns:.3f} ns vs {BL.los.mu_ds_ns} (err {100*mu_ds_err:.2f}% <= 10%), "
                  f"mu_KF {los.mu_kf_db:.3f} dB vs {BL.los.mu_kf_db} (err {mu_kf_err:.3f} dB <= 1), "
                  f"{violations} invariant violations in 10^4 seeds, runtime {dt:.1f}s < 30s")
    assert ok


# --------------------------------------------------------------------------
# 5. BER closed-form oracles
# --------------------------------------------------------------------------


def _q(x):
    return 0.5 * erfc(x / math.sqrt(2.0))


def test_criterion_5_ber_oracles():
    t0 = time.perf_counter()
    failures = []
    details = []
    for ebn0 in (0.0, 4.0, 8.0, 10.0):
        pt = ber_bpsk("awgn", ebn0, 10_000_000, rng_seed=777)
        expected = _q(math.sqrt(2.0 * 10 ** (ebn0 / 10.0)))
        err = abs(pt.ber - expected)
        details.append(f"awgn@{ebn0:g}dB {pt.ber:.3e}/{expected:.3e}")
        if err > 3.0 * pt.ci95:
            failures.append(f"awgn {ebn0} dB: |{pt.ber:.3e}-{expected:.3e}| > 3ci")
    for gamma_db, gamma in ((0.0, 1.0), (10.0, 10.0)):
        pt = ber_bpsk((BL, Condition.NLOS), gamma_db, 2_000_000, rng_seed=778)
        expected = 0.5 * (1.0 - math.sqrt(gamma / (1.0 + gamma)))
        rel = abs(pt.ber - expected) / expected
        details.append(f"rayleigh@{gamma_db:g}dB rel {100*rel:.2f}%")
        if rel > 0.05:
            failures.append(f"rayleigh {gamma_db} dB: rel err {rel:.3f} > 5%")
    dt = time.perf_counter() - t0
    ok = not failures and dt < 60.0
    report(5, ok, "; ".join(details) + f"; runtime {dt:.1f}s < 60s"
           + ("" if not failures else f"; failures: {failures}"))
    assert ok


# --------------------------------------------------------------------------
# 6. directional BER comparison and the Eb/N0 gap at 1e-3
# --------------------------------------------------------------------------


def test_criterion_6_ber_gap():
    grid = [float(x) for x in range(0, 27, 2)]
    sweep = ber_sweep([BL, GPP_INO], Condition.LOS, grid, 600_000, rng_seed=99)
    bl = sweep.curves["BL"]
    ino = sweep.curves["3GPP-InO"]
    separated = all(
        b.ber - b.ci95 > i.ber + i.ci95
        for b, i in zip(bl, ino)
        if b.ebn0_db >= 5.0
    )
    gap = sweep.gap_db("BL", "3GPP-InO", 1e-3)
    ok = separated and gap is not None and 5.0 <= gap <= 15.0
    shown = "unavailable" if gap is None else f"{gap:.2f} dB"
    report(6, ok, f"BL above 3GPP-InO beyond CI at all Eb/N0 >= 5 dB: {separated}; "
                  f"measured Eb/N0 gap at BER 1e-3: {shown} (window [5, 15] dB)")
    assert ok


# --------------------------------------------------------------------------
# 7. byte-identical re-runs of every subcommand
# --------------------------------------------------------------------------


def test_criterion_7_determinism(tmp_path):
    scene_cfg = {
        "name": "det",
        "cabin_dims_m": [6.0, 4.0, 2.4],
        "walls": {"all": "metal_pec"},
        "tx_m": [0.2, 1.7, 2.1],
        "rx_grid": {"rows": 2, "heights_m": [0.7, 0.9], "lateral_step_m": 0.5,
                    "lateral_margin_m": 0.25, "first_row_x_m": 2.0, "row_pitch_m": 1.5},
        "blockers": [{"min_m": [2.0, 1.0, 0.0], "max_m": [2.4, 3.0, 1.3],
                      "material": "nylon", "label": "Seat"}],
        "max_reflections": 2,
    }
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(json.dumps(scene_cfg))

    def run_twice(label, args_a, args_b, outs):
        for args in (args_a, args_b):
            rc = main(args)
            assert rc == 0, f"{label} exited {rc}"
        return all(
            (tmp_path / f"a_{o}").read_bytes() == (tmp_path / f"b_{o}").read_bytes()
            for o in outs
        )

    checks = {}
    checks["trace"] = run_twice(
        "trace",
        ["trace", "--scene", str(scene_path), "--out", str(tmp_path / "a_ds.csv"), "--threads", "1"],
        ["trace", "--scene", str(scene_path), "--out", str(tmp_path / "b_ds.csv"), "--threads", "4"],
        ["ds.csv", "ds.meta.json"],
    )
    checks["extract"] = run_twice(
        "extract",
        ["extract", "--in", str(tmp_path / "a_ds.csv"), "--out", str(tmp_path / "a_params.csv")],
        ["extract", "--in", str(tmp_path / "b_ds.csv"), "--out", str(tmp_path / "b_params.csv")],
        ["params.csv", "params.ratios.csv"],
    )
    checks["gen"] = run_twice(
        "gen",
        ["gen", "--preset", "BL", "--cond", "LOS", "--count", "50", "--seed", "5",
         "--out", str(tmp_path / "a_gen.csv")],
        ["gen", "--preset", "BL", "--cond", "LOS", "--count", "50", "--seed", "5",
         "--out", str(tmp_path / "b_gen.csv")],
        ["gen.csv", "gen.meta.json"],
    )
    checks["rssi"] = run_twice(
        "rssi",
        ["rssi", "--in", str(tmp_path / "a_ds.csv"), "--out", str(tmp_path / "a_rssi.csv")],
        ["rssi", "--in", str(tmp_path / "b_ds.csv"), "--out", str(tmp_path / "b_rssi.csv")],
        ["rssi.csv"],
    )
    checks["ber"] = run_twice(
        "ber",
        ["ber", "--presets", "BL,3GPP-InO", "--cond", "LOS", "--ebn0", "0:4:8",
         "--bits", "2500000", "--seed", "2", "--threads", "1",
         "--out", str(tmp_path / "a_ber.csv")],
        ["ber", "--presets", "BL,3GPP-InO", "--cond", "LOS", "--ebn0", "0:4:8",
         "--bits", "2500000", "--seed", "2", "--threads", "4",
         "--out", str(tmp_path / "b_ber.csv")],
        ["ber.csv"],
    )
    checks["presets"] = run_twice(
        "presets",
        ["presets", "--out", str(tmp_path / "a_presets.csv")],
        ["presets", "--out", str(tmp_path / "b_presets.csv")],
        ["presets.csv"],
    )
    ok = all(checks.values())
    report(7, ok, "byte-identical re-runs (trace under --threads 1 vs 4): "
           + ", ".join(f"{k}={'ok' if v else 'DIFF'}" for k, v in checks.items()))
    assert ok


# --------------------------------------------------------------------------
# 8. blocker-removal monotonicity of the LOS ratio
# --------------------------------------------------------------------------


def test_criterion_8_classification_ratios():
    budget = LinkBudget()
    bl = trace_scenario(build_scenario("BL", max_reflections=0), budget)
    emv = trace_scenario(build_scenario("EmV", max_reflections=0), budget)
    r_bl = len(records_of(bl, Condition.LOS)) / len(bl.records)
    r_emv = len(records_of(emv, Condition.LOS)) / len(emv.records)
    ok = r_emv >= r_bl and len(bl.records) == 2400 and len(emv.records) == 2400
    report(8, ok, f"LOS ratio EmV {r_emv:.4f} >= BL {r_bl:.4f} on the 2400-point grid")
    assert ok
