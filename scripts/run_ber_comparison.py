#!/usr/bin/env python3
"""Uncoded BPSK BER curves for the cabin presets against the indoor-office
reference, plus the Eb/N0 penalty of each cabin at the 1e-3 target.
"""

import argparse
from pathlib import Path

from idschan.linksim import ber_sweep, write_ber_csv
from idschan.params import preset
from idschan.pathdata import Condition


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--presets", default="BL,CV,RecV,EmV,3GPP-InO")
    ap.add_argument("--cond", default="LOS", choices=["LOS", "NLOS"])
    ap.add_argument("--ebn0-max", type=float, default=26.0)
    ap.add_argument("--bits", type=int, default=600_000)
    ap.add_argument("--seed", type=int, default=12345)
    ap.add_argument("--threads", type=int, default=4)
    ap.add_argument("--out", default="out/ber_curves.csv")
    args = ap.parse_args()

    sets = [preset(n) for n in args.presets.split(",")]
    grid = [float(x) for x in range(0, int(args.ebn0_max) + 1, 2)]
    sweep = ber_sweep(sets, Condition(args.cond), grid, args.bits, args.seed,
                      threads=args.threads)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_ber_csv(sweep, out)
    print(f"wrote {out}")

    reference = sets[-1].name
    for ps in sets[:-1]:
        gap = sweep.gap_db(ps.name, reference, 1e-3)
        shown = "unavailable (grid does not bracket 1e-3)" if gap is None else f"{gap:+.2f} dB"
        print(f"Eb/N0 penalty at BER 1e-3, {ps.name} vs {reference}: {shown}")


if __name__ == "__main__":
    main()
