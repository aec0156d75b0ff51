"""Deterministic text output: one CSV writer, ``write_table`` (text cells as
they are, numbers at 12 significant digits), and the report writer.

``write_table`` formats a block of rows with one ``%`` operation.  A numeric
column that holds one bit pattern through a block (the zeros of a time
series at rest) is formatted once per block and enters the block's row
format as text, so those rows cost about what their moving cells cost.  The
bytes are the same as formatting every cell: equal bits format to equal text,
and ``0.0`` and ``-0.0``, which differ in their bits, never fold together."""
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
    exactly as ``format(x, ".12g")`` does.  Rows are formatted a block at a
    time.  Within a block, a numeric CSV column whose cells all have the
    bits of its first cell is formatted once, with ``"%.12g"``, and that
    text goes into the block's row format as a literal; only the other
    cells pass through the ``%`` operation.  Equal bits give equal text, so
    the bytes are those of formatting every cell; bits, not values, are
    compared, so ``0.0`` and ``-0.0`` (``0`` and ``-0``) never fold together,
    while a constant NaN or inf folds like any other value.
    """
    fh.write(",".join(header) + "\n")
    columns = [np.asarray(c) for c in columns]
    text = any(c.dtype.kind == "U" for c in columns)
    rows = len(columns[0])
    for start in range(0, rows, _BLOCK_ROWS):
        cells, moving = [], []
        for c in columns:
            part = c[start:start + _BLOCK_ROWS]
            if part.ndim == 1:
                part = part[:, None]
            fmt = "%s" if c.dtype.kind == "U" else "%.12g"
            same = _same_bits(part)
            cells += [fmt % v if fold else fmt for v, fold in zip(part[0], same)]
            if not same.all():
                moving.append(part[:, ~same] if same.any() else part)
        row_fmt = ",".join(cells) + "\n"
        if not moving:
            fh.write(row_fmt * min(_BLOCK_ROWS, rows - start))
            continue
        if text:     # beside text a float must stay a float, not become a str
            moving = [m.astype(object) for m in moving]
        block = np.column_stack(moving)
        fh.write((row_fmt * len(block)) % tuple(block.ravel().tolist()))


def _same_bits(part: np.ndarray) -> np.ndarray:
    """Per column of the 2-D ``part``, whether every cell has the bits of
    the first; False for cells that are not real numbers (text, objects)."""
    if part.dtype.kind not in "biuf":
        return np.zeros(part.shape[1], dtype=bool)
    bits = part.view(f"u{part.itemsize}")
    return (bits == bits[0]).all(axis=0)


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
