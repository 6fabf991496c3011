#!/usr/bin/env python3
"""Sample the annular closure and dump coordinates for external plotting.

Writes one CSV of polyline points (loop,x,y) and, optionally, one of
crossing markers (crossing,sign,x,y,over_dx,over_dy,under_dx,under_dy).
Prints the winding phase as a sanity check; for the main braid it must
come out at three full turns.
"""

import argparse
import math

from knot818.braid import BRAID_818, annular_embed, winding_phase
from knot818.cli import positive_int, radii_list, write_points_csv
from knot818.notation import parse_braid_word


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--braid", default=" ".join(map(str, BRAID_818.letters)))
    parser.add_argument("--strands", type=int, default=3)
    parser.add_argument("--radii", type=radii_list, help="comma separated, default 1..strands")
    parser.add_argument("--points-per-slot", type=positive_int, default=64)
    parser.add_argument("--out", required=True, help="points CSV path")
    parser.add_argument("--markers", default=None, help="optional crossing marker CSV path")
    args = parser.parse_args(argv)

    braid = parse_braid_word(args.braid, args.strands)
    embedding = annular_embed(braid, args.radii, slots_per_letter=args.points_per_slot)
    phase = winding_phase(embedding)
    write_points_csv(args.out, embedding)

    if args.markers:
        with open(args.markers, "w", encoding="utf-8") as fh:
            fh.write("crossing,sign,x,y,over_dx,over_dy,under_dx,under_dy\n")
            for m in embedding.markers:
                fh.write(
                    f"{m.crossing},{m.sign},{m.point[0]!r},{m.point[1]!r},"
                    f"{m.over_direction[0]!r},{m.over_direction[1]!r},"
                    f"{m.under_direction[0]!r},{m.under_direction[1]!r}\n"
                )
        print(f"wrote {len(embedding.markers)} markers to {args.markers}")

    print(f"winding phase: {phase!r} ({phase / math.pi:.6f} pi)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
