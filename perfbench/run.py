"""Benchmark of the idschan pipeline: trace -> CSV -> extract -> gen -> BER.

    python3 perfbench/run.py --workload trace_bl --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory and driven through ``idschan.cli.main(argv)`` in this
process. Set-up (a fresh-interpreter import of ``idschan.cli`` plus input
generation) is repeated and its median reported. Then whole passes over the
workload's commands repeat while another pass as long as the last still fits
in ``--seconds`` (at least one pass); every output file is checked after each
pass, outside the timed region.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, as medians
over the passes. ``--trace 1`` alternates an untraced and a traced pass and
reports the per-layer metrics of the traced passes (see ``spans.py``), as
medians, plus the traced over untraced wall time.

The last line of standard output is the result object; the line before it
carries provenance, input facts and the per-command medians, and the same
record is written to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
IMPORT_REPEATS = 7
INPUT_REPEATS = 3

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import FULL, QUICK, WORKLOADS, sha256  # noqa: E402

_IMPORT_TIMER = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import idschan.cli; print(time.perf_counter() - t)"
)


def _import_seconds() -> float:
    """Import time of ``idschan.cli`` in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_TIMER, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip())


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup(workload) -> tuple[float, list[str]]:
    """Median import time plus median input-generation time, and any
    problems with the generated inputs."""
    _import_seconds()  # untimed: compiles the bytecode cache in a fresh checkout
    imports = [_import_seconds() for _ in range(IMPORT_REPEATS)]
    gens = []
    for _ in range(INPUT_REPEATS):
        t0 = time.perf_counter()
        workload.prepare()
        gens.append(time.perf_counter() - t0)
    return statistics.median(imports) + statistics.median(gens), workload.check_inputs()


def run_pass(cli, workload) -> tuple[dict[str, float], float, int, list[str]]:
    """Run every step once: wall time per step, CPU time of the pass, the
    number of steps that failed and the problems found."""
    walls: dict[str, float] = {}
    cpu = 0.0
    failed = 0
    problems: list[str] = []
    for step in workload.steps():
        error = None
        c0, t0 = _cpu_seconds(), time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(step.argv)
            if code != 0:
                error = f"{step.name}: exit code {code}"
        except (Exception, SystemExit) as exc:  # a failed operation, counted below
            error = f"{step.name}: {type(exc).__name__}: {exc}"
        walls[step.name] = time.perf_counter() - t0
        cpu += _cpu_seconds() - c0
        found = [error] if error else workload.check(step)
        failed += bool(found)
        problems += found
    return walls, cpu, failed, problems


def _keep_going(started: float, last_pass: float, seconds: float) -> bool:
    """Start another pass only if one as long as the last still fits."""
    return time.perf_counter() - started + last_pass <= seconds


def _tree_sha256(directory: Path) -> str:
    """Digest of the program's sources, which identifies it without git."""
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        h.update(path.relative_to(directory).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(args, nproc: int) -> dict:
    import numpy

    def getconf(key: str) -> str:
        try:
            out = subprocess.run(["getconf", key], capture_output=True, text=True, timeout=10)
            return out.stdout.strip()
        except OSError:
            return ""

    commit = ""
    with contextlib.suppress(OSError):
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.split()
        if len(out) == 2 and Path(out[0]).resolve() == ROOT:  # not an enclosing repository
            commit = out[1]
    cpu_model = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    caches = ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE")
    return {
        "nproc": nproc,
        "cpu_model": cpu_model or platform.processor(),
        "cache_bytes": {key: getconf(key) for key in caches},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit or "unknown (not a git checkout)",
        "src_sha256": _tree_sha256(SRC / "idschan"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": "quick" if args.quick else "full",
        "import_repeats": IMPORT_REPEATS,
        "input_repeats": INPUT_REPEATS,
    }


def measure(cli, workload, seconds: float) -> tuple[dict, dict, int, int, list[str]]:
    """Untraced passes: end-to-end metrics, per-command medians, steps run,
    steps failed, problems."""
    walls, cpus, problems = [], [], []
    failed = 0
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        w, cpu, f, p = run_pass(cli, workload)
        walls.append(w)
        cpus.append(cpu)
        failed += f
        problems += p
        if not _keep_going(started, time.perf_counter() - t0, seconds):
            break
    med = {name: statistics.median(w[name] for w in walls) for name in walls[0]}
    stage = {key: statistics.median(sum(w[n] for n in names) for w in walls)
             for key, names in (("primary_s", workload.primary), ("secondary_s", workload.secondary))}
    metrics = {
        "primary_s": (stage["primary_s"], "s"),
        "secondary_s": (stage["secondary_s"], "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    detail = {"passes": len(walls), "command_medians_s": med, "pass_samples_s": walls}
    return metrics, detail, len(walls) * len(walls[0]), failed, problems


def measure_traced(cli, workload, seconds: float) -> tuple[dict, dict, int, int, list[str]]:
    """Pairs of an untraced and a traced pass: per-layer medians."""
    from spans import Recorder, layer_metrics, traced

    samples, problems = [], []
    steps = failed = 0
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain, _, f, p = run_pass(cli, workload)
        plain_s = time.perf_counter() - t0
        recorder = Recorder()
        t1 = time.perf_counter()
        with traced(recorder):
            traced_walls, _, f2, p2 = run_pass(cli, workload)
        traced_s = time.perf_counter() - t1
        steps += len(plain) + len(traced_walls)
        failed += f + f2
        problems += p + p2
        layers = layer_metrics(recorder)
        layers["bench.trace_overhead_ratio"] = (sum(traced_walls.values()) / sum(plain.values()), "ratio")
        samples.append(layers)
        tree = recorder.tree()
        if not _keep_going(started, plain_s + traced_s, seconds):
            break
    metrics = {
        name: (statistics.median(s[name][0] for s in samples), unit)
        for name, (_, unit) in samples[0].items()
    }
    return metrics, {"pairs": len(samples), "span_tree": tree}, steps, failed, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="reduced sizes, for the self-check")
    args = ap.parse_args(argv)

    if not (SRC / "idschan" / "cli.py").is_file():
        print(f"error: no idschan sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    nproc = len(os.sched_getaffinity(0))
    out_dir = ROOT / ".perfbench"
    work = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](work, args.seed, QUICK if args.quick else FULL, nproc)
        setup_s, input_problems = setup(workload)
        rss_after_setup = _peak_rss_mb()
        import idschan.cli as cli

        if not Path(cli.__file__).resolve().is_relative_to(SRC):
            print(f"error: idschan imported from {cli.__file__}, not {SRC}", file=sys.stderr)
            return 2
        run = measure_traced if args.trace else measure
        metrics, detail, attempted, failed, problems = run(cli, workload, args.seconds)
        detail["outputs_sha256"] = {
            name: sha256(work / name)
            for step in workload.steps() for name in step.outputs if (work / name).is_file()
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if input_problems:
        attempted += 1
        failed += 1
        problems = input_problems + problems
    if not args.trace:
        metrics = {"setup_s": (setup_s, "s"), **metrics, "ok_ratio": ((attempted - failed) / attempted, "ratio")}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "provenance": provenance(args, nproc),
        "inputs": workload.facts,
        "setup_s": setup_s,
        "peak_rss_after_setup_mb": rss_after_setup,
        **detail,
        "problems": problems[:50],
        "result": result,
    }
    results_dir = out_dir / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    (results_dir / name).write_text(json.dumps(record, indent=1) + "\n")
    detail_line = {k: v for k, v in record.items() if k not in ("span_tree", "result")}
    print(json.dumps(detail_line))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
