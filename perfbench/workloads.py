"""The benchmark's workloads: their inputs, the commands they run and the
checks on every output file.

Each workload is a list of steps, one ``idschan`` command each. A step fails
when the command raises, exits nonzero, or one of its outputs fails a check.
Reference digests (``reference.json``) apply at the default workload seed,
and on every seed for workloads whose inputs do not depend on the seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_SEED = 1
REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())

SPEED_OF_LIGHT = 299792458.0
CARRIER_HZ = 28e9
NOISE_FLOOR_DBM = -174.0 + 10.0 * math.log10(1e9) + 10.0  # default link budget


@dataclass(frozen=True)
class Size:
    """Workload sizes; ``QUICK`` is the reduced size of the self-check."""

    name: str
    max_reflections: int
    ingest_receivers: int
    gen_count: int
    ber_bits: int


FULL = Size("full", max_reflections=3, ingest_receivers=2400, gen_count=2400, ber_bits=2_000_000)
QUICK = Size("quick", max_reflections=1, ingest_receivers=240, gen_count=1000, ber_bits=20_000)


@dataclass
class Step:
    name: str  # the stage metric the step's wall time is reported under
    argv: list[str]
    outputs: tuple[str, ...]  # file names in the work directory, digest-checked


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _params_column(path: Path, column: str) -> dict[str, str]:
    rows = _read_rows(path)
    j = rows[0].index(column)
    return {row[0]: row[j] for row in rows[1:]}


class Workload:
    """Base: subclasses set the steps, the stage split and the checks."""

    name = ""
    seed_free = False  # inputs do not depend on the seed
    primary: tuple[str, ...] = ()  # steps summed into primary_s
    secondary: tuple[str, ...] = ()  # steps summed into secondary_s

    def __init__(self, work: Path, seed: int, size: Size, nproc: int):
        self.work, self.seed, self.size, self.nproc = work, seed, size, nproc
        self.facts: dict = {}  # input facts recorded in the result

    def prepare(self) -> None:
        """Generate the inputs; timed as set-up, so it may run several times."""

    def check_inputs(self) -> list[str]:
        return []

    def steps(self) -> list[Step]:
        raise NotImplementedError

    def check_step(self, step: Step) -> list[str]:
        return []

    def digests_apply(self) -> bool:
        return self.seed_free or self.seed == DEFAULT_SEED

    def check(self, step: Step) -> list[str]:
        """Problems with one step's outputs; an empty list means it passed."""
        missing = [name for name in step.outputs if not (self.work / name).is_file()]
        if missing:
            return [f"{step.name}: missing output {name}" for name in missing]
        problems = []
        if self.digests_apply():
            expected = REFERENCE["digests"][self.size.name][self.name]
            for name in step.outputs:
                got = sha256(self.work / name)
                if got != expected.get(name):
                    problems.append(f"{step.name}: {name} sha256 {got} != reference {expected.get(name)}")
        try:
            problems += self.check_step(step)
        except (OSError, ValueError, IndexError, KeyError) as exc:
            problems.append(f"{step.name}: unreadable output: {type(exc).__name__}: {exc}")
        return problems


# --------------------------------------------------------------------------
# trace_bl: the paper's synthesis step at its real size
# --------------------------------------------------------------------------


class TraceBL(Workload):
    """``trace --preset BL`` once with one thread and once with ``nproc``.

    The input is the built-in BL cabin, so the seed changes nothing and the
    reference digests apply on every seed.
    """

    name = "trace_bl"
    seed_free = True
    primary = ("trace_s",)
    secondary = ("trace_par_s",)

    def steps(self) -> list[Step]:
        base = ["trace", "--preset", "BL", "--max-reflections", str(self.size.max_reflections)]
        return [
            Step("trace_s", base + ["--threads", "1", "--out", str(self.work / "bl_1.csv")],
                 ("bl_1.csv", "bl_1.meta.json")),
            Step("trace_par_s", base + ["--threads", str(self.nproc), "--out", str(self.work / "bl_n.csv")],
                 ("bl_n.csv", "bl_n.meta.json")),
        ]

    def check_step(self, step: Step) -> list[str]:
        problems = []
        rx_ids = {row[0] for row in _read_rows(self.work / step.outputs[0])[1:]}
        if len(rx_ids) != 2400:
            problems.append(f"{step.name}: {len(rx_ids)} receivers, expected 2400")
        if step.name == "trace_par_s":
            for one, many in (("bl_1.csv", "bl_n.csv"), ("bl_1.meta.json", "bl_n.meta.json")):
                if sha256(self.work / one) != sha256(self.work / many):
                    problems.append(f"{many} (--threads {self.nproc}) differs from {one} (--threads 1)")
        return problems


# --------------------------------------------------------------------------
# ingest_extract: an externally produced dataset, read-heavy
# --------------------------------------------------------------------------

CSV_HEADER = (
    "rx_id,rx_x_m,rx_y_m,rx_z_m,power_dbm,delay_ns,"
    "aod_az_deg,aod_el_deg,aoa_az_deg,aoa_el_deg,interactions\n"
)
LOS, NLOS, DS, OUTAGE = range(4)
COND_NAMES = ("LOS", "NLOS", "DS", "Outage")
COND_SHARES = (0.61, 0.30, 0.04, 0.05)
TX_M = (0.05, 1.7, 2.1)
# Tags after the first path; LOS records open with "L", NLOS with "R", and
# every DS path carries "S", so conditions follow from the tags.
MIXED_TAGS = np.array(["R", "R+R", "R+R+R", "D", "R+D", "S", "R+S"])
SCATTER_TAGS = np.array(["S", "R+S", "S+R", "R+R+S", "D+S"])


def write_ingest_input(seed: int, n_rx: int, csv_path: Path) -> dict:
    """Write a seeded third-party dataset (CSV plus sidecar) with this
    benchmark's own writer; returns the arrays the output checks need.

    Receivers carry 20 to 60 paths with L/R/D/S tags; about 5% are in outage
    and about 4% see only diffuse scattering (DS).
    """
    rng = np.random.default_rng(seed)
    pos = rng.uniform((0.3, 0.1, 0.5), (13.2, 3.9, 1.3), size=(n_rx, 3))
    cond = rng.choice(4, size=n_rx, p=COND_SHARES)
    n_paths = rng.integers(20, 61, size=n_rx)
    n_paths[cond == OUTAGE] = 0
    offsets = np.cumsum(n_paths) - n_paths
    total = int(n_paths.sum())
    owner = np.repeat(np.arange(n_rx), n_paths)
    path_cond = cond[owner]
    first = np.zeros(total, dtype=bool)
    first[offsets[n_paths > 0]] = True

    dist = np.linalg.norm(pos - np.array(TX_M), axis=1)[owner]
    excess = rng.exponential(12.0, total)
    excess[first & (path_cond == LOS)] = 0.0
    delay = dist / SPEED_OF_LIGHT * 1e9 + excess
    fspl = 20.0 * np.log10(4.0 * math.pi * dist * CARRIER_HZ / SPEED_OF_LIGHT)
    power = 20.0 - fspl - 0.3 * excess - rng.exponential(6.0, total)
    power[path_cond != LOS] -= 8.0
    angles = [180.0 - rng.uniform(0.0, 360.0, total), rng.uniform(-90.0, 90.0, total),
              180.0 - rng.uniform(0.0, 360.0, total), rng.uniform(-90.0, 90.0, total)]
    tags = np.where(
        path_cond == DS,
        SCATTER_TAGS[rng.integers(0, len(SCATTER_TAGS), total)],
        MIXED_TAGS[rng.integers(0, len(MIXED_TAGS), total)],
    ).astype(object)
    tags[first & (path_cond == LOS)] = "L"
    tags[first & (path_cond == NLOS)] = "R"

    values = np.column_stack([power, delay, *angles])
    position_text = [f"{x!r},{y!r},{z!r}" for x, y, z in pos.tolist()]
    with open(csv_path, "w", newline="\n") as fh:
        fh.write(CSV_HEADER)
        for rx in range(n_rx):
            prefix = f"{rx},{position_text[rx]},"
            if n_paths[rx] == 0:
                fh.write(prefix + "-INF,0.0,0.0,0.0,0.0,0.0,\n")
                continue
            lo, hi = int(offsets[rx]), int(offsets[rx] + n_paths[rx])
            fh.writelines(
                f"{prefix}{p!r},{t!r},{a1!r},{e1!r},{a2!r},{e2!r},{tag}\n"
                for (p, t, a1, e1, a2, e2), tag in zip(values[lo:hi].tolist(), tags[lo:hi])
            )
    meta = {
        "scenario_name": f"ingest-{seed}",
        "tx_position_m": list(TX_M),
        "link_budget": {"tx_power_dbm": 20.0, "noise_figure_db": 10.0, "bandwidth_hz": 1e9},
        "provenance": "Ingested",
    }
    csv_path.with_suffix(".meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    return {"cond": cond, "n_paths": n_paths, "offsets": offsets, "power": power,
            "delay": delay, "position_text": position_text}


def _per_record_stats(data: dict) -> dict[str, np.ndarray]:
    """Vectorized oracle of the per-record statistics extract reports."""
    n_paths, offsets = data["n_paths"], data["offsets"]
    has = n_paths > 0
    starts = offsets[has]
    mw = 10.0 ** (data["power"] / 10.0)
    tau = data["delay"]
    psum = np.add.reduceat(mw, starts)
    m1 = np.add.reduceat(tau * mw, starts) / psum
    m2 = np.add.reduceat(tau * tau * mw, starts) / psum
    direct = mw[starts]
    return {
        "cond": data["cond"][has],
        "rssi_dbm": 10.0 * np.log10(psum),
        "ds_ns": np.sqrt(np.maximum(m2 - m1 * m1, 0.0)),
        "kf_db": 10.0 * np.log10(direct / (psum - direct)),
    }


def _close(got: str, want: float, rel: float) -> bool:
    try:
        value = float(got)
    except ValueError:
        return False
    return abs(value - want) <= rel * max(abs(want), 1.0)


class IngestExtract(Workload):
    """``extract`` and ``rssi`` on a seeded, externally produced CSV."""

    name = "ingest_extract"
    primary = ("extract_s",)
    secondary = ("rssi_s",)

    def prepare(self) -> None:
        self._data = write_ingest_input(self.seed, self.size.ingest_receivers, self.work / "ingest.csv")

    def check_inputs(self) -> list[str]:
        csv_path = self.work / "ingest.csv"
        cond = self._data["cond"]
        self.facts = {
            "input_sha256": sha256(csv_path),
            "sidecar_sha256": sha256(csv_path.with_suffix(".meta.json")),
            "rows": sum(1 for _ in open(csv_path)) - 1,
            "receivers": int(cond.size),
            "conditions": {COND_NAMES[c]: int(np.count_nonzero(cond == c)) for c in range(4)},
        }
        self._oracle = _per_record_stats(self._data)
        problems = []
        if self.seed == DEFAULT_SEED:
            expected = REFERENCE["digests"][self.size.name][self.name]
            for key, name in (("input_sha256", "ingest.csv"), ("sidecar_sha256", "ingest.meta.json")):
                if self.facts[key] != expected.get(name):
                    problems.append(f"input {name} sha256 {self.facts[key]} != reference {expected.get(name)}")
        return problems

    def steps(self) -> list[Step]:
        src = str(self.work / "ingest.csv")
        return [
            Step("extract_s", ["extract", "--in", src, "--out", str(self.work / "params.csv")],
                 ("params.csv", "params.ratios.csv")),
            Step("rssi_s", ["rssi", "--in", src, "--out", str(self.work / "rssi.csv")], ("rssi.csv",)),
        ]

    def check_step(self, step: Step) -> list[str]:
        return self._check_extract() if step.name == "extract_s" else self._check_rssi()

    def _check_extract(self) -> list[str]:
        problems = []
        cond = self._data["cond"]
        name = f"ingest-{self.seed}"
        shares = [repr(int(np.count_nonzero(cond == c)) / cond.size) for c in range(4)]
        ratios = _read_rows(self.work / "params.ratios.csv")
        if ratios != [["scenario", "los", "nlos", "ds", "outage"], [name] + shares]:
            problems.append(f"ratios {ratios[1:]} != expected {shares}")
        o = self._oracle
        for label, c in (("LOS", LOS), ("NLOS", NLOS)):
            col = _params_column(self.work / "params.csv", f"{name}:{label}")
            if not _close(col["mu_DS_ns"], float(np.mean(o["ds_ns"][o["cond"] == c])), 1e-9):
                problems.append(f"{label} mu_DS_ns {col['mu_DS_ns']} disagrees with the oracle")
            want_kf = float(np.mean(o["kf_db"][o["cond"] == c])) if c == LOS else None
            if (want_kf is None and col["mu_KF_dB"] != "n/a") or (
                want_kf is not None and not _close(col["mu_KF_dB"], want_kf, 1e-9)
            ):
                problems.append(f"{label} mu_KF_dB {col['mu_KF_dB']} disagrees with the oracle")
        return problems

    def _check_rssi(self) -> list[str]:
        rows = _read_rows(self.work / "rssi.csv")
        if rows[0] != ["rx_id", "x", "y", "z", "condition", "rssi_dbm", "snr_db"]:
            return [f"rssi header {rows[0]}"]
        rows = rows[1:]
        cond = self._data["cond"]
        if len(rows) != cond.size:
            return [f"rssi has {len(rows)} rows, expected {cond.size}"]
        rssi = iter(self._oracle["rssi_dbm"].tolist())
        bad = 0
        for rx, row in enumerate(rows):
            ok = row[0] == str(rx) and ",".join(row[1:4]) == self._data["position_text"][rx]
            ok = ok and row[4] == COND_NAMES[cond[rx]]
            if cond[rx] == OUTAGE:
                ok = ok and row[5] == row[6] == "-INF"
            else:
                want = next(rssi)
                ok = ok and _close(row[5], want, 1e-12) and _close(row[6], want - NOISE_FLOOR_DBM, 1e-12)
            bad += not ok
        return [f"{bad} rssi rows disagree with the oracle"] if bad else []


# --------------------------------------------------------------------------
# gen_ber: generator round trip and the Monte-Carlo BER sweep
# --------------------------------------------------------------------------


class GenBer(Workload):
    """``gen``, ``extract`` on its output, and a two-preset ``ber`` sweep."""

    name = "gen_ber"
    primary = ("ber_s",)
    secondary = ("gen_s", "extract_s")
    EBN0 = "0:2:26"
    PRESETS = ("BL", "3GPP-InO")

    def steps(self) -> list[Step]:
        w = self.work
        return [
            Step("gen_s", ["gen", "--preset", "BL", "--cond", "LOS", "--count", str(self.size.gen_count),
                           "--seed", str(self.seed), "--out", str(w / "gen.csv")],
                 ("gen.csv", "gen.meta.json")),
            Step("extract_s", ["extract", "--in", str(w / "gen.csv"), "--out", str(w / "gen_params.csv")],
                 ("gen_params.csv", "gen_params.ratios.csv")),
            Step("ber_s", ["ber", "--presets", ",".join(self.PRESETS), "--cond", "LOS", "--ebn0", self.EBN0,
                           "--bits", str(self.size.ber_bits), "--threads", str(self.nproc),
                           "--seed", str(self.seed), "--out", str(w / "ber.csv")],
                 ("ber.csv",)),
        ]

    def check_step(self, step: Step) -> list[str]:
        if step.name == "gen_s":
            rows = sum(1 for _ in open(self.work / "gen.csv")) - 1
            want = self.size.gen_count * 20
            return [] if rows == want else [f"gen.csv has {rows} rows, expected {want}"]
        if step.name == "extract_s":
            return self._check_round_trip()
        return self._check_ber()

    def _check_round_trip(self) -> list[str]:
        """Acceptance criterion 4: mean delay spread within 10% and mean
        K-factor within 1 dB of the preset the realizations came from."""
        from idschan.params import preset

        want = preset("BL").los
        col = _params_column(self.work / "gen_params.csv", "BL-LOS:LOS")
        mu_ds, mu_kf = float(col["mu_DS_ns"]), float(col["mu_KF_dB"])
        problems = []
        if not abs(mu_ds - want.mu_ds_ns) <= 0.10 * want.mu_ds_ns:
            problems.append(f"round trip mu_DS {mu_ds} ns vs preset {want.mu_ds_ns}")
        if not abs(mu_kf - want.mu_kf_db) <= 1.0:
            problems.append(f"round trip mu_KF {mu_kf} dB vs preset {want.mu_kf_db}")
        return problems

    def _check_ber(self) -> list[str]:
        rows = _read_rows(self.work / "ber.csv")
        grid = [repr(float(v)) for v in range(0, 27, 2)]
        expected_keys = [(p, "LOS", e) for p in self.PRESETS for e in grid]
        if [tuple(r[:3]) for r in rows[1:]] != expected_keys:
            return ["ber.csv rows do not cover the presets x Eb/N0 grid"]
        problems = []
        total = {p: 0.0 for p in self.PRESETS}
        for preset_name, _, ebn0, ber, ci95, n_bits in rows[1:]:
            b, n = float(ber), int(n_bits)
            if n != self.size.ber_bits or not 0.0 <= b <= 0.5:
                problems.append(f"{preset_name} at {ebn0} dB: ber {ber} over {n_bits} bits")
            elif not _close(ci95, 1.96 * math.sqrt(b * (1.0 - b) / n), 1e-12):
                problems.append(f"{preset_name} at {ebn0} dB: ci95 {ci95} inconsistent with ber")
            total[preset_name] += b
        if not total["BL"] > total["3GPP-InO"]:
            problems.append("BL does not err more than 3GPP-InO over the sweep")
        return problems


WORKLOADS = {w.name: w for w in (TraceBL, IngestExtract, GenBer)}
