#!/usr/bin/env python3
"""Top-view RSSI/SNR map of the composite cabin at one receiver height.

Writes a plot-ready CSV (rx_id, x, y, z, condition, rssi_dbm, snr_db); feed
it to any heatmap tool pivoted on (x, y).
"""

import argparse
from pathlib import Path

from idschan.cli import _number_flag, run_command
from idschan.linksim import LinkBudget, rssi_map, write_rssi_csv
from idschan.tracer import MAX_REFLECTIONS, CabinLayout, ScenarioPreset, build_scenario, trace_scenario


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--preset", default="CV", choices=[p.value for p in ScenarioPreset])
    ap.add_argument("--height", type=float, default=0.7)
    ap.add_argument("--out", default="out/rssi_map.csv")
    ap.add_argument("--max-reflections", type=_number_flag("--max-reflections", int, 0, MAX_REFLECTIONS), default=3)
    args = ap.parse_args()

    layout = CabinLayout(rx_heights_m=(args.height,))
    scene = build_scenario(ScenarioPreset(args.preset), layout=layout,
                           max_reflections=args.max_reflections)
    ds = trace_scenario(scene, LinkBudget())
    rssi_dbm = rssi_map(ds)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_rssi_csv(ds, rssi_dbm, out)
    covered = int((rssi_dbm > float("-inf")).sum())
    print(f"{args.preset} at z={args.height} m: {covered}/{len(rssi_dbm)} receivers covered")
    print(f"wrote {out}")


if __name__ == "__main__":
    raise SystemExit(run_command(main))
