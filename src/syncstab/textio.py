"""Deterministic text output: one CSV writer, ``write_table`` (text cells as
they are, numbers at 12 significant digits), and the report writer."""
from __future__ import annotations

from typing import Sequence, TextIO

import numpy as np

__all__ = ["g12", "write_table", "KVWriter"]

# rows formatted by one %-operation in write_table; bounds the temporaries
_BLOCK_ROWS = 256


def g12(value: float | int) -> str:
    """Render a number at 12 significant digits, '.' decimal, no locale."""
    if isinstance(value, bool):  # guard: bool is an int subclass
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".12g")


def write_table(fh: TextIO, header: Sequence[str], columns: Sequence) -> None:
    """Write columns side by side: a 1-D column gives one CSV column, a 2-D
    one a CSV column per array column; all share one row count.

    A text column (a NumPy ``U`` array or a sequence of ``str``) renders
    with ``"%s"``, every other cell with ``"%.12g"``, which renders a float
    exactly as ``format(x, ".12g")`` does.  Rows are formatted a block at a time.
    """
    fh.write(",".join(header) + "\n")
    columns = [np.asarray(c) for c in columns]
    row_fmt = ",".join("%s" if c.dtype.kind == "U" else "%.12g" for c in columns
                       for _ in range(c.shape[1] if c.ndim == 2 else 1)) + "\n"
    if "%s" in row_fmt:      # beside text a float must stay a float, not become a str
        columns = [c.astype(object) for c in columns]
    for start in range(0, len(columns[0]), _BLOCK_ROWS):
        block = np.column_stack([c[start:start + _BLOCK_ROWS] for c in columns])
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
