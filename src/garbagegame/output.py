"""The files simulate writes: the per-step CSV, made row by row as the walk goes,
and an output file that is written only once the run has succeeded.

Numbers use 17 significant digits, which round-trips float64 exactly, so
identical flags and seed give byte-identical files.
"""

from __future__ import annotations

import contextlib
import shutil
import tempfile
from typing import Iterator, TextIO

from .dynamics import GarbageState

_FLOAT_FORMAT = "%.17g"  # every number in emitted files: cli.to_json and the CSV rows


class _CsvRows:
    """The per-step CSV in pieces: row gives, for each state in order, f"{t}," and the text of the
    rest of the row (the header before the first); tail then gives the rows that repeat the last
    period rows given, each with its own t and the text of the row period steps back, so no tail
    state is made."""

    def __init__(self) -> None:
        self._last = []  # the time and text after t of the last two rows

    def row(self, s: GarbageState, z: float, active_edges: int, spread: float) -> list[str]:
        pieces = []
        if not self._last:  # the header, and the row format for s.n agents
            pieces.append("t," + ",".join(f"x_{i}" for i in range(1, s.n + 1)) + ",z,active_edges,max_diff\n")
            self._format = ",".join([_FLOAT_FORMAT] * (s.n + 1)) + f",%d,{_FLOAT_FORMAT}\n"  # x_1..x_n, z, |E_t|, spread
        text = self._format % (*s.values.tolist(), z, active_edges, spread)
        self._last = [*self._last[-1:], (s.time, text)]
        return [*pieces, f"{s.time},", text]

    def tail(self, rows: int, period: int) -> Iterator[str]:
        t, texts = self._last[-1][0] + 1, [text for _, text in self._last[-period:]]
        for i in range(rows):
            yield f"{t + i},"
            yield texts[i % period]


@contextlib.contextmanager
def _written_on_success(path: str) -> Iterator[TextIO]:
    """A text file that is copied to path, opened as open(path, "w") opens it, only when the block
    succeeds: until then the text goes to an anonymous temporary file, so a failure leaves path as
    it was and nothing behind.  The text layer is write-only (a readable one resets its decoder on
    every write); the copy reads the file's bytes back through its descriptor."""
    with tempfile.TemporaryFile("w", encoding="utf-8", newline="") as tmp:
        yield tmp
        tmp.flush()
        with open(tmp.fileno(), "rb", closefd=False) as src, open(path, "wb") as fh:
            src.seek(0)
            shutil.copyfileobj(src, fh)
