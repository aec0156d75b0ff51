"""Deterministic text output helpers (12-significant-digit CSV, reports)."""
from __future__ import annotations

from typing import Iterable, Sequence, TextIO

import numpy as np

__all__ = ["g12", "write_csv", "write_table", "KVWriter"]

# rows formatted by one %-operation in write_table; bounds the temporaries
_BLOCK_ROWS = 256


def g12(value: float | int) -> str:
    """Render a number at 12 significant digits, '.' decimal, no locale."""
    if isinstance(value, bool):  # guard: bool is an int subclass
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".12g")


def write_csv(fh: TextIO, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    """Write rows with numbers at 12 significant digits; strings pass through."""
    fh.write(",".join(header) + "\n")
    for row in rows:
        fh.write(",".join(cell if isinstance(cell, str) else g12(cell) for cell in row) + "\n")


def write_table(fh: TextIO, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """Write float columns side by side, each cell as ``g12`` writes it.

    ``columns`` are 1-D or 2-D arrays with one shared row count; a 2-D array
    contributes one CSV column per array column.  Rows are formatted a block
    at a time with ``"%.12g"``, which renders a float exactly as
    ``format(x, ".12g")`` does.
    """
    fh.write(",".join(header) + "\n")
    for start in range(0, len(columns[0]), _BLOCK_ROWS):
        block = np.column_stack([c[start:start + _BLOCK_ROWS] for c in columns])
        row_fmt = ",".join(["%.12g"] * block.shape[1]) + "\n"
        fh.write((row_fmt * len(block)) % tuple(block.ravel().tolist()))


class KVWriter:
    """Tiny structured key-value document writer used for reports.

    Produces ``key = value`` lines grouped under ``# section`` headings —
    stable, diffable, and trivially machine-parseable.
    """

    def __init__(self) -> None:
        self._lines: list[str] = []

    def section(self, title: str) -> None:
        if self._lines:
            self._lines.append("")
        self._lines.append(f"# {title}")

    def field(self, key: str, value: object) -> None:
        if isinstance(value, (bool, int, float)):
            rendered = g12(value)
        else:
            rendered = str(value)
        self._lines.append(f"{key} = {rendered}")

    def note(self, text: str) -> None:
        self._lines.append(f"# note: {text}")

    def write(self, fh: TextIO) -> None:
        fh.write("\n".join(self._lines) + "\n")
