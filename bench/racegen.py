"""Seeded race-CSV generator for the ``tables-24k`` workload.

The input is made here, not by ``brokenstick.synth``, so a change to the
library's sampling stream leaves the benchmark input unchanged.  Every step
is vectorised over all rows at once:

* field sizes: 811 of 12,736 races (the published drop to 11,925 races with
  five or more runners) get n = 2..4, the rest follow
  ``reference_field_size_histogram()``;
* true probabilities: normalised unit exponentials (a uniformly broken
  stick), and one winner drawn from them;
* quotes: each probability times log-normal noise (sigma 0.3), rescaled to
  a per-race overround in [1.00, 1.05], quoted as decimal odds on a
  2-decimal ladder (which makes tied odds);
* faults: about 2% of races carry exactly one injected fault, spread over
  every rejection reason ``parse_races`` knows, so the expected rejection
  count per reason is exact;
* rows of all races are shuffled together, so races are interleaved.

Run as ``python -m bench.racegen --seed 1 --races 24000 --out races.csv``;
it writes the CSV and, beside it, ``<out>.expected.json`` with the counts.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

from brokenstick.reference import (
    RACES_TOTAL,
    RACES_WITH_5_PLUS,
    reference_field_size_histogram,
)

HEADER = "race_id,horse_id,decimal_odds,won\n"
SMALL_FIELD_SHARE = (RACES_TOTAL - RACES_WITH_5_PLUS) / RACES_TOTAL
ODDS_NOISE = 0.3
OVERROUND = (1.00, 1.05)
FAULT_SHARE = 0.02
MIN_FIELD_SIZE = 5  # analyze's default cut

# Rejection reasons of ``parse_races``, keyed by the metric-name slug.  A
# malformed row's reason carries the parser's message after the colon.
REASONS = {
    "fewer_than_2_entries": "fewer than 2 entries",
    "duplicate_horse_id": "duplicate horse id",
    "odds_not_above_1": "decimal odds not greater than 1",
    "dead_heat": "dead heat",
    "no_winner": "no winner",
    "overround_out_of_band": "overround out of band",
    "malformed_row": "malformed row",
}
FAULTS = tuple(REASONS)

# Implied odds scaled down this far sum to about 0.8, outside analyze's
# default 1 +/- 0.10 band, and every quote stays above 1.
_UNDERROUND = 0.8
_MALFORMED_ODDS = ("n/a", "", "3,5")


def reason_slug(reason: str) -> str | None:
    """Slug of a ``Rejection.reason``, or None for a reason not listed."""
    text = reason.split(":", 1)[0] if reason.startswith("malformed row") else reason
    for slug, known in REASONS.items():
        if text == known:
            return slug
    return None


def generate(seed: int, races: int) -> tuple[bytes, dict]:
    """CSV bytes and the expected parse outcome; the same seed gives the same bytes."""
    if races < 1:
        raise ValueError(f"races must be >= 1, got {races}")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))

    weights = reference_field_size_histogram().weights()
    support = np.array(sorted(weights))
    probs = np.array([weights[n] for n in support])
    small = rng.random(races) < SMALL_FIELD_SHARE
    sizes = np.where(small, rng.integers(2, 5, races), rng.choice(support, races, p=probs))

    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    total = int(sizes.sum())
    race_of = np.repeat(np.arange(races), sizes)
    pos = np.arange(total) - starts[race_of]

    draws = rng.standard_exponential(total)
    true_p = draws / np.add.reduceat(draws, starts)[race_of]
    cum = np.cumsum(true_p)
    local = cum - np.concatenate(([0.0], cum))[starts][race_of]
    u = rng.random(races)
    winner_pos = np.minimum(np.add.reduceat((local <= u[race_of]).astype(np.int64), starts), sizes - 1)
    won = (pos == winner_pos[race_of]).astype(np.int64)

    quoted = true_p * rng.lognormal(0.0, ODDS_NOISE, total)
    overround = rng.uniform(*OVERROUND, races)
    quoted *= (overround / np.add.reduceat(quoted, starts))[race_of]

    fault = np.where(rng.random(races) < FAULT_SHARE, rng.integers(0, len(FAULTS), races), -1)
    fault_of = fault[race_of]
    quoted[fault_of == FAULTS.index("overround_out_of_band")] *= _UNDERROUND
    odds = np.maximum(np.round(1.0 / quoted, 2), 1.01)
    # Guard the expected counts: clean races must sit well inside the band.
    implied = np.add.reduceat(1.0 / odds, starts)
    clean = fault < 0
    if np.any((implied[clean] < 0.95) | (implied[clean] > 1.08)):
        raise RuntimeError("a clean race left the overround band; counts would be wrong")
    if np.any(implied[fault == FAULTS.index("overround_out_of_band")] > 0.88):
        raise RuntimeError("an underround fault stayed inside the band")

    horse = pos + 1
    odds_text = np.array([f"{o:.2f}" for o in odds.tolist()], dtype=object)
    won_text = won.astype(str).astype(object)
    extra = np.full(total, "", dtype=object)
    keep = np.ones(total, dtype=bool)

    def rows_of(kind: str, where) -> np.ndarray:
        return np.flatnonzero((fault_of == FAULTS.index(kind)) & where)

    winner_row = pos == winner_pos[race_of]
    keep[rows_of("fewer_than_2_entries", ~winner_row)] = False
    horse[rows_of("duplicate_horse_id", pos == 1)] = 1  # every race has n >= 2
    odds_text[rows_of("odds_not_above_1", winner_row)] = "1.00"
    won_text[rows_of("dead_heat", pos == (winner_pos[race_of] + 1) % sizes[race_of])] = "1"
    won_text[rows_of("no_winner", winner_row)] = "0"
    bad = rows_of("malformed_row", winner_row)
    variant = rng.integers(0, 5, bad.size)
    odds_text[bad[variant < 3]] = np.array(_MALFORMED_ODDS, dtype=object)[variant[variant < 3]]
    won_text[bad[variant == 3]] = "yes"
    extra[bad[variant == 4]] = ",extra"

    race_text = np.array([f"r{i + 1:06d}" for i in range(races)], dtype=object)
    horse_text = np.array([f"h{j:02d}" for j in range(1, int(sizes.max()) + 1)], dtype=object)
    order = rng.permutation(np.flatnonzero(keep))
    lines = (
        race_text[race_of[order]] + "," + horse_text[horse[order] - 1] + ","
        + odds_text[order] + "," + won_text[order] + extra[order]
    )
    body = "\n".join(lines.tolist())
    data = (HEADER + body + "\n").encode()

    rejected = {slug: int(np.sum(fault == i)) for i, slug in enumerate(FAULTS)}
    accepted_rows = int(keep[fault_of < 0].sum())
    expected = {
        "seed": int(seed),
        "races": int(races),
        "rows": int(order.size),
        "accepted": int(clean.sum()),
        "accepted_rows": accepted_rows,
        "below_min_field_size": int(np.sum(clean & (sizes < MIN_FIELD_SIZE))),
        "min_field_size": MIN_FIELD_SIZE,
        "rejected": rejected,
    }
    return data, expected


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--races", type=int, default=120_000)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    data, expected = generate(args.seed, args.races)
    out = Path(args.out)
    out.write_bytes(data)
    Path(f"{out}.expected.json").write_text(json.dumps(expected, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
