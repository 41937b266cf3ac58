"""Command-line entry point: trace, extract, gen, rssi, ber, presets.

Every subcommand is a deterministic composition of the library operations;
re-running with the same configuration and seed produces byte-identical
output files. The seed falls back to the ``IDS_CHAN_SEED`` environment
variable, then to a fixed constant.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import extract, genchan, linksim, params, pathdata, tracer

DEFAULT_SEED = 12345
# Longer Eb/N0 grids are rejected as the command line is parsed.
MAX_EBN0_POINTS = 10_000
# Larger --threads values are rejected, so a pool never starts more threads than this.
MAX_THREADS = 256


def _number_flag(flag: str, kind: type, lo: float, hi: float = math.inf, domain: str | None = None):
    """argparse ``type=``: a ``kind`` (int or float) from lo to hi, both included. The callable
    carries ``kind``, ``lo`` and ``hi``, so the parser is the one table of flag domains. A
    rejection names the flag, the value and ``domain`` (by default, the integers from lo to hi)."""
    if domain is None:
        domain = f"an integer from {lo} to {hi}" if hi < math.inf else f"an integer >= {lo}"

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not lo <= value <= hi:  # NaN fails both comparisons
            raise argparse.ArgumentTypeError(f"{flag}={text} is not {domain}")
        return value

    parse.kind, parse.lo, parse.hi = kind, lo, hi
    return parse


def _seed_from_env(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("IDS_CHAN_SEED")
    if env is not None:
        return _number_flag("IDS_CHAN_SEED", int, 0)(env)
    return DEFAULT_SEED


def _parse_ebn0(text: str) -> list[float]:
    """argparse ``type=`` of ``ber --ebn0``: start:step:stop (inclusive) or a comma list, in dB.

    Either form holds 1 to MAX_EBN0_POINTS values, none NaN and none above
    ``linksim.MAX_EBN0_DB``; ``-inf`` (noise only) may appear in a comma list.
    A rejection names the flag and the value."""

    def reject(why: str) -> argparse.ArgumentTypeError:
        return argparse.ArgumentTypeError(f"--ebn0={text} {why}")

    is_range = ":" in text
    try:
        values = [float(p) for p in text.split(":" if is_range else ",") if p.strip()]
    except ValueError:
        raise reject("is not start:step:stop or a comma list of numbers") from None
    if is_range:
        if len(values) != 3:
            raise reject("is not start:step:stop")
        start, step, stop = values
        if not all(map(math.isfinite, values)):
            raise reject("is a range whose start, step and stop must be finite")
        if step <= 0:
            raise reject("is a range whose step is not positive")
        if stop < start:
            raise reject("is a range with its stop below its start")
        count = (stop - start) / step + 1e-9  # inf when the quotient overflows, so bound it before int()
        if count >= MAX_EBN0_POINTS:
            raise reject(f"holds more than {MAX_EBN0_POINTS} points")
        values = [start + i * step for i in range(int(count) + 1)]
    if not values:
        raise reject("holds no value")
    if len(values) > MAX_EBN0_POINTS:
        raise reject(f"holds more than {MAX_EBN0_POINTS} points")
    for v in values:
        if not -math.inf <= v <= linksim.MAX_EBN0_DB:
            raise reject(f"holds {v!r}; a value is -inf or a number of dB up to {linksim.MAX_EBN0_DB:g}")
    return values


def cmd_trace(args) -> int:
    if args.scene:
        scene, budget = tracer.scene_from_json(args.scene)
    elif args.preset is not None:
        scene, budget = tracer.build_scenario(tracer.ScenarioPreset(args.preset)), pathdata.LinkBudget()
    else:
        raise ValueError("trace needs --preset or --scene")
    if args.max_reflections is not None:
        scene = replace(scene, max_reflections=args.max_reflections)
    if args.sensitivity is not None:
        budget = replace(budget, sensitivity_dbm=args.sensitivity)
    ds = tracer.trace_scenario(scene, budget)
    pathdata.save_dataset(ds, args.out)
    print(f"wrote {len(ds.rx_ids)} records to {args.out}")
    return 0


def cmd_extract(args) -> int:
    ds = pathdata.load_dataset(args.infile)
    summary = extract.summarize(ds)
    out = Path(args.out)
    params.write_params_csv([summary.params], out)
    ratios_path = out.with_suffix(".ratios.csv")
    params.write_ratios_csv([(ds.scenario_name, summary.ratios)], ratios_path)
    print(f"wrote {out} and {ratios_path}")
    return 0


def cmd_gen(args) -> int:
    pset = params.preset(args.preset)
    cond = pathdata.Condition(args.cond)
    seed = _seed_from_env(args.seed)
    reals = genchan.draw_realizations(pset, cond, args.taps, range(seed, seed + args.count))
    ds = genchan.realizations_to_dataset(reals, f"{pset.name}-{cond.value}", pathdata.LinkBudget())
    pathdata.save_dataset(ds, args.out)
    print(f"wrote {args.count} realizations to {args.out}")
    return 0


def cmd_rssi(args) -> int:
    ds = pathdata.load_dataset(args.infile)
    rssi_dbm = linksim.rssi_map(ds)
    linksim.write_rssi_csv(ds, rssi_dbm, args.out)
    print(f"wrote {len(rssi_dbm)} rows to {args.out}")
    return 0


def cmd_ber(args) -> int:
    names = [n.strip() for n in args.presets.split(",") if n.strip()]
    if not names:
        raise ValueError("--presets must name at least one parameter set")
    sets = [params.preset(n) for n in names]
    # lookup is case-insensitive and takes aliases, so compare the names it resolves to
    first = {}
    for name, ps in zip(names, sets):
        if ps.name in first:
            raise ValueError(f"--presets names {ps.name} twice ({first[ps.name]!r} and {name!r})")
        first[ps.name] = name
    cond = pathdata.Condition(args.cond)
    seed = _seed_from_env(args.seed)
    sweep = linksim.ber_sweep(
        sets, cond, args.ebn0, args.bits, seed, block_bits=args.block_bits, threads=args.threads
    )
    linksim.write_ber_csv(sweep, args.out)
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            gap = sweep.gap_db(sets[i].name, sets[j].name, args.target_ber)
            shown = "unavailable" if gap is None else f"{gap:.2f} dB"
            print(f"gap at BER {args.target_ber:g}: {sets[i].name} vs {sets[j].name}: {shown}")
    print(f"wrote {sum(map(len, sweep.curves.values()))} rows to {args.out}")
    return 0


def cmd_presets(args) -> int:
    params.write_params_csv(list(params.PRESETS.values()), args.out)
    print(f"wrote presets to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idschan",
        description="Cabin mmWave multipath toolkit: synthesize, ingest, extract, generate, simulate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trace", help="ray-trace a scenario into a dataset CSV")
    p.add_argument("--preset", choices=[s.value for s in tracer.ScenarioPreset])
    p.add_argument("--scene", help="scene config JSON (overrides --preset)")
    p.add_argument("--out", required=True)
    p.add_argument("--max-reflections", type=_number_flag("--max-reflections", int, 0, tracer.MAX_REFLECTIONS))
    finite = sys.float_info.max
    p.add_argument("--sensitivity", type=_number_flag("--sensitivity", float, -finite, finite, "a finite number"),
                   help="path cull threshold, dBm; join a value like -1e2 with '=': --sensitivity=-1e2")
    p.add_argument("--threads", type=_number_flag("--threads", int, 1, MAX_THREADS),
                   help="accepted and ignored: the trace runs on one thread")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("extract", help="fit channel parameters from a dataset CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True, help="parameter table CSV; ratios go to <out>.ratios.csv")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("gen", help="draw channel realizations from a preset")
    p.add_argument("--preset", required=True)
    p.add_argument("--cond", choices=["LOS", "NLOS"], default="LOS")
    p.add_argument("--count", type=_number_flag("--count", int, 1, tracer.MAX_RECEIVERS), default=1000)
    p.add_argument("--taps", type=_number_flag("--taps", int, 2, genchan.MAX_TAPS), default=20)
    p.add_argument("--seed", type=_number_flag("--seed", int, 0))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("rssi", help="per-receiver RSSI/SNR table from a dataset CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_rssi)

    p = sub.add_parser("ber", help="Monte-Carlo BPSK BER sweep over presets")
    p.add_argument("--presets", required=True, help="comma-separated preset names")
    p.add_argument("--cond", choices=["LOS", "NLOS"], default="LOS")
    p.add_argument("--ebn0", type=_parse_ebn0, default="0:2:20",
                   help="start:step:stop in dB, or comma list; join a negative one with '=': --ebn0=-4:2:0")
    p.add_argument("--bits", type=_number_flag("--bits", int, 1), default=200_000)
    p.add_argument("--block-bits", type=_number_flag("--block-bits", int, 1, linksim._BATCH_BITS), default=100)
    # math.ulp(0.0) is the least positive float, so the BER is in (0, 0.5]
    p.add_argument("--target-ber", type=_number_flag("--target-ber", float, math.ulp(0.0), 0.5, "a BER in (0, 0.5]"),
                   default=1e-3)
    p.add_argument("--seed", type=_number_flag("--seed", int, 0))
    p.add_argument("--threads", type=_number_flag("--threads", int, 1, MAX_THREADS))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ber)

    p = sub.add_parser("presets", help="dump the built-in parameter tables")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_presets)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return run_command(args.func, args)


def run_command(func, *args) -> int | None:
    """``func(*args)``; a rejected input prints ``error: <message>`` and returns exit status 2.
    Every error type of the package is a ValueError, and ``IDS_CHAN_SEED`` is checked by a flag
    type. The experiment scripts report errors through it too."""
    try:
        return func(*args)
    except (KeyError, ValueError, OSError, argparse.ArgumentTypeError) as exc:
        # a KeyError's text quotes its message; every other error's text is the message
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
