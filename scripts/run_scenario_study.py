#!/usr/bin/env python3
"""Trace all four cabin scenarios, extract their channel parameters, and
write a combined parameter table plus the condition-share table.

Outputs (in --outdir): <scenario>.csv datasets, scenario_params.csv,
scenario_ratios.csv.
"""

import time
from pathlib import Path

from idschan.cli import _number_flag, _Parser, run_command
from idschan.extract import summarize
from idschan.linksim import LinkBudget
from idschan.params import write_params_csv, write_ratios_csv
from idschan.pathdata import save_dataset
from idschan.tracer import MAX_REFLECTIONS, CabinLayout, ScenarioPreset, build_scenario, trace_scenario


def main():
    ap = _Parser(description=__doc__)
    ap.add_argument("--outdir", default="out/scenarios")
    ap.add_argument("--max-reflections", type=_number_flag("--max-reflections", int, 0, MAX_REFLECTIONS), default=3)
    ap.add_argument("--quick", action="store_true",
                    help="reduced grid (2 heights, 0.25 m lateral step)")
    args = ap.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    layout = (
        CabinLayout(rx_heights_m=(0.7, 1.0), rx_lateral_step_m=0.25, rx_lateral_margin_m=0.125)
        if args.quick
        else CabinLayout()
    )
    budget = LinkBudget()

    param_sets = []
    ratio_rows = []
    for preset in ScenarioPreset:
        t0 = time.perf_counter()
        scene = build_scenario(preset, layout=layout, max_reflections=args.max_reflections)
        ds = trace_scenario(scene, budget)
        save_dataset(ds, outdir / f"{preset.value}.csv")
        summary = summarize(ds)
        param_sets.append(summary.params)
        ratio_rows.append((preset.value, summary.ratios))
        shares = ", ".join(f"{c.value}={v:.3f}" for c, v in summary.ratios.items() if v > 0)
        print(f"{preset.value}: {len(ds.rx_ids)} receivers in {time.perf_counter()-t0:.1f}s ({shares})")

    write_params_csv(param_sets, outdir / "scenario_params.csv")
    write_ratios_csv(ratio_rows, outdir / "scenario_ratios.csv")
    print(f"wrote {outdir}/scenario_params.csv and {outdir}/scenario_ratios.csv")


if __name__ == "__main__":
    raise SystemExit(run_command(main))
