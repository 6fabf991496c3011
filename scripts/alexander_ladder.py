#!/usr/bin/env python3
"""Time the exact Alexander polynomial on a ladder of growing braids.

Each rung is one knot-closure braid; the script prints the best of
``--repeat`` wall times for the three stages of the Alexander path:
``burau_reduced``, the determinant of (rho - I), and the whole
``alexander_from_braid``; for ``closure_diagram``, the walk that
``knot818 build`` prints; for ``annular_embed`` at its default 64
samples per letter (the sampling of the benchmark and of ``knot818
embed``), so that an embedding cost superlinear in the word shows on
the long rungs; and for ``winding_number`` on that embedding.  The
stages are timed round-robin: each of the ``--repeat`` rounds runs
every stage once, in column order, so that a slow stretch of the
machine falls on one round of every column rather than on all rounds
of one.  ``embed_peak_b`` is the ``tracemalloc`` peak of one more,
untimed ``annular_embed``, in bytes per sample it holds.  The rungs:

- 3 strands at 50, 200, 800, 3000 and 6000 letters: generators
  alternate 1, 2 with seeded random signs (when that closes to a link,
  the last letter becomes 1, which makes it a knot);
- full-cycle words on 4..8, 10 and 12 strands: (1 -2 3 ... ±(n-1))^(n+1),
  up to 143 letters;
- torus words (1 2 ... 7)^k on 8 strands, k = 9, 35, 71, 143 (up to
  1001 letters), closing to the torus knots T(8, k).

``det_ms`` times ``PolyMatrix.det`` of rho - I given the braid, as
``alexander_from_braid`` calls it on every strand count but three: it
packs at min(column norms' product, max(Kauffman state bound, largest
column norm)).  ``bound_bits`` is the bit length of that bound, and
``det_bits`` the bit length of the largest coefficient of det(rho - I).
The 3-strand rungs' ``alexander_ms`` does not include ``det``:
``alexander_from_braid`` takes det rho - tr rho + 1 there.  Run from a checkout with ``PYTHONPATH=src``::

    python scripts/alexander_ladder.py [--quick] [--repeat K]
"""

import argparse
import random
import tracemalloc
from time import perf_counter

from knot818.braid import BraidWord, annular_embed, closure_diagram, winding_number
from knot818.cli import argparse_type, positive_int
from knot818.invariants import PolyMatrix, alexander_from_braid, burau_reduced


def three_strand(length: int) -> BraidWord:
    rng = random.Random(f"alexander_ladder/{length}")
    letters = [g * rng.choice((1, -1)) for g in (1, 2) * (length // 2)]
    braid = BraidWord(3, tuple(letters))
    if not braid.is_knot_closure:
        letters[-1] = 1
        braid = BraidWord(3, tuple(letters))
    return braid


def full_cycle(strands: int) -> BraidWord:
    cycle = tuple(i if i % 2 else -i for i in range(1, strands))
    return BraidWord(strands, cycle * (strands + 1))


def torus(k: int) -> BraidWord:
    return BraidWord(8, tuple(range(1, 8)) * k)


def ladder() -> list[tuple[str, BraidWord]]:
    return (
        [(f"3-strand/{n}", three_strand(n)) for n in (50, 200, 800, 3000, 6000)]
        + [(f"full-cycle/{s}", full_cycle(s)) for s in (4, 5, 6, 7, 8, 10, 12)]
        + [(f"torus-8/{k}", torus(k)) for k in (9, 35, 71, 143)]
    )


def best_ms(stages, repeat: int) -> list[float]:
    """Best wall time of each stage, in ms, over ``repeat`` rounds that each run every stage once, in order."""
    best = [float("inf")] * len(stages)
    for _ in range(repeat):
        for i, fn in enumerate(stages):
            start = perf_counter()
            fn()
            best[i] = min(best[i], perf_counter() - start)
    return [b * 1e3 for b in best]


def traced_embed(braid: BraidWord):
    """One embedding of ``braid`` and its tracemalloc peak in bytes per sample."""
    tracemalloc.start()
    try:
        embedding = annular_embed(braid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return embedding, peak / sum(map(len, embedding.loops))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="run only the two smallest 3-strand rungs")
    parser.add_argument(
        "--repeat", type=argparse_type(positive_int), default=3, help="runs per stage; the best is printed (default 3)"
    )
    args = parser.parse_args(argv)

    rungs = ladder()[:2] if args.quick else ladder()
    print(
        f"{'rung':<16} {'strands':>7} {'letters':>7} {'burau_ms':>10} {'det_ms':>10} {'alexander_ms':>12}"
        f" {'closure_ms':>10} {'embed_ms':>10} {'winding_ms':>10} {'det_bits':>8} {'bound_bits':>10}"
        f" {'embed_peak_b':>12}"
    )
    for name, braid in rungs:
        matrix = burau_reduced(braid) - PolyMatrix.identity(braid.strands - 1)
        det = matrix.det(braid)
        bits = max(abs(c).bit_length() for c in det.coeffs)
        bound_bits = matrix.det_bound(braid).bit_length()
        embedding, peak_b = traced_embed(braid)
        burau, det_ms, alexander, closure, embed, winding = best_ms(
            (
                lambda: burau_reduced(braid),
                lambda: matrix.det(braid),
                lambda: alexander_from_braid(braid),
                lambda: closure_diagram(braid),
                lambda: annular_embed(braid),
                lambda: winding_number(embedding),
            ),
            args.repeat,
        )
        print(
            f"{name:<16} {braid.strands:>7} {len(braid):>7} {burau:>10.2f} {det_ms:>10.2f} {alexander:>12.2f}"
            f" {closure:>10.2f} {embed:>10.2f} {winding:>10.2f} {bits:>8} {bound_bits:>10} {peak_b:>12.1f}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
