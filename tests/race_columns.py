"""``Races`` columns built from per-race records, for tests that write races by hand."""

import numpy as np

from brokenstick.racedata import Races


def races_of(records) -> Races:
    """The columns of ``records``, each with a ``race_id`` and ``entries`` of
    (``horse_id``, ``decimal_odds``, ``won``), in the given order."""
    records = list(records)
    entries = [e for r in records for e in r.entries]
    sizes = np.array([len(r.entries) for r in records], dtype=np.int64)
    return Races(
        race_ids=np.array([r.race_id for r in records], dtype=object),
        offsets=np.concatenate(([0], np.cumsum(sizes))),
        horse_ids=np.array([e.horse_id for e in entries], dtype=object),
        decimal_odds=np.array([e.decimal_odds for e in entries], dtype=float),
        won=np.array([e.won for e in entries], dtype=bool),
    )
