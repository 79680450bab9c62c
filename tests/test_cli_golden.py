"""Golden stdout of ``theory`` and ``simulate`` for a single field size.

``cli_golden.json`` maps each call's argv to the sha256 (first 16 hex
digits) of its stdout, for every call of the grid below that exits 0: each
``--stat``, n in {2, 5, 17}, no ``--k``, ``--k`` 1, 2 or ``longshot``, with
and without ``--x``, in text and in CSV.  A refactor of the statistics or of
their printing must reproduce every byte; calls that fail are not pinned.

Record the file again with ``python tests/test_cli_golden.py`` only for a
change that moves a printed number on purpose, and say why.
"""

import functools
import hashlib
import io
import itertools
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from brokenstick import cli
from brokenstick.cli import EXIT_OK, main

GOLDEN = Path(__file__).with_name("cli_golden.json")
STATS = ("mean", "second-moment", "cond-mean", "winner-mean", "ccdf")
SIMULATE = ("--samples", "3000", "--chunk-size", "1000", "--seed", "5")


def calls():
    """Every argv of the grid, theory first, in a fixed order."""
    for command, stat, n, k, x, fmt in itertools.product(
        ("theory", "simulate"), STATS, ("2", "5", "17"), (None, "1", "2", "longshot"),
        (None, "0.3,0.01,0.2,0.5,0,-1"), ("text", "csv"),
    ):
        argv = [command, "--n", n, "--stat", stat, "--format", fmt]
        argv += ["--k", k] if k else []
        argv += ["--x", x] if x else []
        yield argv + list(SIMULATE if command == "simulate" else ())


def run(argv):
    """Exit code and the sha256 prefix of stdout; stderr is dropped."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]


def test_single_field_size_stdout_is_pinned(monkeypatch):
    # one parser for all calls: building it costs more than most calls
    monkeypatch.setattr(cli, "build_parser", functools.cache(cli.build_parser))
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    seen = {}
    for argv in calls():
        key = " ".join(argv)
        if key in golden:
            seen[key] = run(argv)
    assert seen == {key: (EXIT_OK, digest) for key, digest in golden.items()}


if __name__ == "__main__":
    pinned = {}
    for argv in calls():
        code, digest = run(argv)
        if code == EXIT_OK:
            pinned[" ".join(argv)] = digest
    GOLDEN.write_text(json.dumps(pinned, indent=0) + "\n", encoding="utf-8")
    print(f"pinned {len(pinned)} calls in {GOLDEN}")
