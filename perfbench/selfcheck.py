"""Self-check of the benchmark at reduced size; asserts no timing.

    python3 perfbench/selfcheck.py

For every workload and both ``--trace`` modes it runs ``run.py --quick``
and asserts that the result line has exactly the contract's keys, that
every metric named in BENCHMARK.json is emitted with its unit, and that the
outputs passed their checks. It then shows that the checks run: corrupted
outputs must fail them, at the default seed (reference digests) and at
another seed (digest-free checks). Last, a directory holding only
BENCHMARK.json and the benchmark must make ``run.py`` fail without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from workloads import DEFAULT_SEED, QUICK, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCRATCH = ROOT / ".perfbench" / "selfcheck"


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )


def check_result_lines() -> None:
    for workload in WORKLOADS:
        for trace, spec_key in (("0", "end_to_end"), ("1", "per_layer")):
            out = bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace, "--quick")
            assert out.returncode == 0, out.stderr
            result = json.loads(out.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            want = {m["name"]: m["unit"] for m in SPEC[spec_key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)) and set(m) == {"value", "unit"}, name
            print(f"ok  {workload} --trace {trace}: {len(got)} metrics, {result['attempted']} steps")


def _corrupt_each_output(workload) -> None:
    for step in workload.steps():
        for name in step.outputs:
            with open(workload.work / name, "a") as fh:
                fh.write("\n")
        assert workload.check(step), f"{workload.name}/{step.name}: corrupted outputs passed"


def _set_cell(path: Path, row: int, col: int, value: str) -> None:
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = value
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def check_checks_run() -> None:
    import idschan.cli as cli

    SCRATCH.mkdir(parents=True, exist_ok=True)
    for seed in (DEFAULT_SEED, 7):
        for cls in WORKLOADS.values():
            work = SCRATCH / f"{cls.name}-{seed}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir()
            workload = cls(work, seed, QUICK, nproc=2)
            workload.prepare()
            assert not workload.check_inputs()
            _, _, failed, problems = run.run_pass(cli, workload)
            assert failed == 0, problems
            if seed == DEFAULT_SEED or workload.seed_free:
                _corrupt_each_output(workload)
            elif cls.name == "ingest_extract":
                _set_cell(work / "rssi.csv", 1, 5, "-1.0")
                assert workload.check(workload.steps()[1]), "a wrong rssi value passed"
            elif cls.name == "gen_ber":
                _set_cell(work / "gen_params.csv", 6, 1, "1000.0")  # mu_DS_ns
                assert workload.check(workload.steps()[1]), "a failed round trip passed"
            print(f"ok  {cls.name} seed {seed}: corrupted outputs fail their checks")
            shutil.rmtree(work)


def check_bare_directory() -> None:
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("--workload", "trace_bl", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    assert out.returncode != 0 and not out.stdout.strip(), out.stdout
    shutil.rmtree(bare)
    print("ok  a directory without the program fails without a result")


if __name__ == "__main__":
    check_result_lines()
    check_checks_run()
    check_bare_directory()
    shutil.rmtree(SCRATCH, ignore_errors=True)
    print("selfcheck passed")
