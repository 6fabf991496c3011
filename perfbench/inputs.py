"""Seeded inputs for the benchmark workloads.

Everything here is plain Python over tokens and integers: the library
only ever sees the finished inputs.  The same seed always gives the
same inputs, and :func:`digest` fingerprints them so two runs can show
they measured identical work.
"""

from __future__ import annotations

import hashlib
import json
import random

# The reference diagram, as stored in CONVENTIONS.md.
REFERENCE_GAUSS = "VK UG OC UD OE VJ UF OB UC OH VI UE OA UB OG VL UH OD UA OF"
REFERENCE_BRAID_TEXT = "1 -2 1 -2 1 -2 1 -2"

# Quarter turn of the annulus: (K J I L) (G F E H) (C B A D).
QUARTER_TURN = {
    "K": "J", "J": "I", "I": "L", "L": "K",
    "G": "F", "F": "E", "E": "H", "H": "G",
    "C": "B", "B": "A", "A": "D", "D": "C",
}

BRANCH = "IJKL"

# invariants_long: 3 strands; lengths on a fixed ladder so every seed
# spends about the same work, half alternating and half random signs.
LONG_STRANDS = 3
LONG_LENGTHS = (150, 186, 222, 258, 294, 330, 366, 400)

# invariants_wide: each strand count at 5..9 times its width.
WIDE_STRANDS = (6, 7, 8)
WIDE_MULTIPLIERS = (5, 6, 7, 8, 9)


def _cycle_ids(strands: int, where: list[int]) -> list[int]:
    """Cycle index of each position under the closure permutation so far."""
    ids = [0] * (strands + 1)
    count = 0
    for p0 in range(1, strands + 1):
        if ids[p0]:
            continue
        count += 1
        p = p0
        while not ids[p]:
            ids[p] = count
            p = where[p]
    return ids


def knot_closure_letters(rng: random.Random, strands: int, length: int, alternating: bool) -> tuple[int, ...]:
    """A braid word of exactly ``length`` letters whose closure is a knot.

    Built so by construction, never by rejection.  The closure is a knot
    exactly when the word's permutation is one n-cycle.  Each letter is
    an adjacent transposition, so it either merges two cycles or splits
    one, and a word closes to a knot only when its length has the parity
    of (strands - 1).  While enough letters remain to undo a split, a
    letter is drawn among the least used generators; once the remaining
    count equals the cycles still to merge, among those that merge.
    Balanced generator counts keep the Burau degree growth, and so the
    work of a pool, within a few percent across seeds (uniform draws
    spread it by about 10% on the wide pool).  Signs come last:
    alternating words give generator i the sign (-1)^(i+1); random words
    give each generator a shuffled, balanced mix of signs.
    """
    gens = strands - 1
    if length < gens or (length - gens) % 2:
        raise ValueError(f"no knot closure on {strands} strands has {length} letters")
    where = list(range(strands + 1))  # where[p]: strand now at position p
    uses = [0] * strands  # uses[g]: letters drawn on generator g so far
    idx = []
    for remaining in range(length, 0, -1):
        ids = _cycle_ids(strands, where)
        if remaining - 1 >= max(ids):
            least = min(uses[1:])
            i = rng.choice([g for g in range(1, strands) if uses[g] == least])
        else:
            i = rng.choice([g for g in range(1, strands) if ids[g] != ids[g + 1]])
        where[i], where[i + 1] = where[i + 1], where[i]
        uses[i] += 1
        idx.append(i)
    if alternating:
        letters = tuple(i if i % 2 else -i for i in idx)
    else:
        signs = {g: [1, -1] * (uses[g] // 2) + [rng.choice((1, -1))] * (uses[g] % 2) for g in range(1, strands)}
        for g in signs:
            rng.shuffle(signs[g])
        letters = tuple(i * signs[i].pop() for i in idx)
    if max(_cycle_ids(strands, where)) != 1:
        raise AssertionError("generator produced a word that does not close to a knot")
    return letters


def braid_text(letters) -> str:
    return " ".join(str(l) for l in letters)


def conjugate_by_rotation(rng: random.Random, letters) -> tuple[int, ...]:
    """A seeded conjugate: moving a prefix to the end conjugates by it."""
    k = rng.randrange(1, len(letters))
    return tuple(letters[k:]) + tuple(letters[:k])


def long_braids(seed: int) -> list[tuple[int, str]]:
    """(strands, text) pairs for invariants_long."""
    rng = random.Random(f"invariants_long/{seed}")
    return [
        (LONG_STRANDS, braid_text(knot_closure_letters(rng, LONG_STRANDS, n, alternating)))
        for alternating in (True, False)
        for n in LONG_LENGTHS
    ]


def wide_braids(seed: int) -> list[tuple[int, str]]:
    """(strands, text) pairs for invariants_wide, alternating signs."""
    rng = random.Random(f"invariants_wide/{seed}")
    out = []
    for strands in WIDE_STRANDS:
        for mult in WIDE_MULTIPLIERS:
            length = mult * strands
            if (length - (strands - 1)) % 2:
                length += 1
            out.append((strands, braid_text(knot_closure_letters(rng, strands, length, True))))
    return out


def presentation(rotation: int, reverse: bool, quarter_turns: int) -> str:
    """The reference word relabeled, reversed and re-based, as Gauss text."""
    tokens = REFERENCE_GAUSS.split()
    for _ in range(quarter_turns):
        tokens = [t[0] + QUARTER_TURN[t[1:]] for t in tokens]
    if reverse:
        tokens.reverse()
    return " ".join(tokens[rotation:] + tokens[:rotation])


def start_states() -> list[tuple[str, str, str | None]]:
    """All forty (site, direction, role) start states, role None at branches."""
    out = []
    for site in "ABCDEFGHIJKL":
        for direction in ("cw", "ccw"):
            if site in BRANCH:
                out.append((site, direction, None))
            else:
                out.extend((site, direction, role) for role in ("over", "under"))
    return out


def paper_inputs(seed: int, count: int = 8) -> list[dict]:
    """Seeded presentations of the reference word, each with a start state.

    Half the presentations are reversed, so the equivalence search does
    the same total work whatever the seed.
    """
    rng = random.Random(f"paper818/{seed}")
    states = rng.sample(start_states(), count)
    out = []
    for k in range(count):
        out.append(
            {
                "gauss": presentation(rng.randrange(20), k % 2 == 1, rng.randrange(4)),
                "start": states[k],
            }
        )
    return out


def digest(inputs) -> str:
    """sha256 of the canonical JSON of the inputs, first 16 hex digits."""
    blob = json.dumps(inputs, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
