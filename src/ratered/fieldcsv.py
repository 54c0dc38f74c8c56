"""The field-CSV format: a dense field, one row per grid point.

Rows come in row-major index order: the indices i_1..i_m, their grid
values p_1..p_m, then rho_<label> and Rsum_<label>, with 17 significant
digits and the spellings "inf" and "-inf".  Identical fields give
byte-identical files, and read_field_csv reads write_field_csv's output
back bit-exactly.  Files are written and read a block of rows at a time,
so no whole-file text is held in memory: each distinct value of a block is
formatted once, in numpy by decimal17.format_g17 (byte for byte "%.17g"),
and each block is parsed by one np.loadtxt call, numpy's C text reader.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import warnings
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .lattice import RateReductionField, gap, sum_rate_field
from .probability import GridSpec, entropy_grid

# Rows per block when a field CSV is written or read; bounds the row and cell
# strings held in memory at once.
_CSV_BLOCK = 4096
# Width of a p_j cell as read: one more than the longest "%.17g" of any float
# ("-2.2250738585072014e-308"), so a longer cell, which loadtxt cuts to this
# width, still spells no grid value.
_P_WIDTH = 25
# What loadtxt is given in place of NUL, which numpy drops from the end of a
# text cell, and of "\x1f", which it strips from around a number as
# whitespace where int() and float() reject it: U+FFFD, which no valid cell
# holds and no number parser accepts, so the cell stays bad.
_UNREAD = {0x00: "\ufffd", 0x1F: "\ufffd"}


def _fmt(x: float) -> str:
    """Decimal serialization at 17 significant digits; round-trips float64
    bit-exactly and spells the infinities 'inf' / '-inf'."""
    return "%.17g" % x


def _cell_table(cells: list[str]) -> np.ndarray:
    """The ASCII bytes of each cell, left-aligned in the rows of a uint8
    matrix and padded with zero bytes."""
    width = max(map(len, cells))
    text = np.array([c.encode() for c in cells], dtype=f"S{width}")
    return text.view(np.uint8).reshape(len(cells), width)


def _write_grid_csv(items: list, axes: list, h: np.ndarray, grid: GridSpec) -> None:
    """Dense dumps of fields on one grid, one file per (path, label, rho) in
    items.  Each rho has the shape of h, the joint entropy, with one
    dimension per 1-based grid axis in axes.  A file has one row per cell in
    row-major index order: the indices, their grid values, rho and Rsum
    (lattice.gap(h, rho): h - rho, inf where rho is BOTTOM).

    The files are written in one pass, _CSV_BLOCK rows at a time, so memory
    stays bounded by a block whatever the grid size.  Per block, the
    distinct floats of every file are formatted once, by
    decimal17.format_g17 (keyed by their bits, so -0.0 and 0.0 stay apart).
    The block's rows are laid out in one uint8 matrix, each cell in a slot
    padded with zero bytes, which no cell contains.  The index and
    grid-value cells are gathered once for all files.  Per file, the rho
    and Rsum slots, each as wide as the block's longest text, are gathered
    from the formatted table, and the non-zero bytes are written with one
    call.  No Python object is made per cell.
    """
    # Imported here: only this writer uses the formatter, so the commands
    # that write no field CSV do not load it.
    from .decimal17 import format_g17

    prefix = [_cell_table([f"{i}," for i in range(grid.points_per_axis)])] * len(axes) \
        + [_cell_table([_fmt(v) + "," for v in grid.axis_values()])] * len(axes)
    prefix_width = sum(cells.shape[1] for cells in prefix)
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(open(path, "wb")) for path, _, _ in items]
        for out, (_, label, _) in zip(files, items):
            out.write((",".join([f"i_{j}" for j in axes] + [f"p_{j}" for j in axes]
                                + [f"rho_{label}", f"Rsum_{label}"]) + "\n").encode())
        for lo in range(0, h.size, _CSV_BLOCK):
            hi = min(lo + _CSV_BLOCK, h.size)
            # .flat slices a block in row-major order without copying a
            # whole rho that is a rotated view.
            values = np.empty((len(items), 2, hi - lo))
            for v, (_, _, rho) in zip(values, items):
                v[0] = rho.flat[lo:hi]
                v[1] = gap(h.flat[lo:hi], v[0])
            # A 1-D input keeps the inverse 1-D on every numpy version.
            bits, inverse = np.unique(values.reshape(-1).view(np.uint64), return_inverse=True)
            inverse = inverse.astype(np.int32).reshape(values.shape)
            del values
            text, length = format_g17(bits.view(np.float64))
            del bits
            width = int(length.max())
            text = text[:, :width]
            # A row: the prefix cells, rho, ",", Rsum, "\n".
            rows = np.empty((hi - lo, prefix_width + 2 * width + 2), np.uint8)
            at = 0
            index = np.unravel_index(np.arange(lo, hi), h.shape)
            for cells, i in zip(prefix, index + index):
                rows[:, at : at + cells.shape[1]] = cells[i]
                at += cells.shape[1]
            rows[:, at + width], rows[:, -1] = ord(","), ord("\n")
            slots = (slice(at, at + width), slice(at + width + 1, at + 2 * width + 1))
            for out, cells in zip(files, inverse):
                for slot, i in zip(slots, cells):
                    rows[:, slot] = text[i]
                out.write(rows[rows != 0])


def write_field_csv(path: Path, field_in: RateReductionField, label: str) -> None:
    """Dense dump, one row per grid point in row-major index order.  A label
    that no header cell can hold (empty, or with a "," or anything that
    str.splitlines splits on) is refused before the file is opened."""
    if "," in label or label.splitlines() != [label]:
        raise ConfigError(f"field CSV label {label!r} must be non-empty and hold no ',' "
                          "or line break")
    grid = field_in.grid
    _write_grid_csv([(path, label, field_in.data)], list(range(1, grid.m + 1)),
                    entropy_grid(grid), grid)


def _loadtxt(lines: list[str], dtype, **kwargs) -> np.ndarray:
    """The rows of CSV lines by numpy's C text reader: no comment or quote
    character, blank lines skipped.  An integer spelled as a float ("1.0"),
    which numpy 1.x still reads under a DeprecationWarning, is rejected."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1, **kwargs)


def read_field_csv(path) -> RateReductionField:
    """Re-ingest a field CSV bit-exactly.

    The header must end in rho_<label>,Rsum_<label> with one non-empty
    label.  Every cell is checked against the format write_field_csv
    produces: rho must be finite or -inf, each p_j cell must read exactly as
    the grid value of its i_j, and Rsum must equal sum_rate_field of the
    parsed field bit for bit.  A bad cell is reported with its line number.

    Each block of _CSV_BLOCK lines is parsed by one np.loadtxt call.
    Floats are read bit-exactly, by the routine float() uses.  numpy's
    parser is stricter than int() and float(): a number with an underscore
    ("1_0" as an i_j, "1_5" as rho or Rsum) or with non-ASCII digits, and
    an i_j outside int64, are bad cells here though int() and float() read
    them.  An i_j spelled as a float ("1.0"), which numpy 1.x would read
    under a DeprecationWarning, stays a bad cell.  A p_j cell is read to
    _P_WIDTH characters, one more than any grid value takes, so a cell
    that starts with its grid value and goes on is still named.
    """
    def data_lines() -> list[tuple[int, str]]:
        """(line number, text) of each non-blank line after the header, read
        again from the file: only to name a bad line."""
        lines = Path(path).read_text().splitlines()[1:]
        return [(line_no, line) for line_no, line in enumerate(lines, 2) if line]

    def bad_cell(r: int, c: int) -> tuple[str, str]:
        """path:line of data row r and its cell c, read again from the file."""
        line_no, line = data_lines()[r]
        return f"{path}:{line_no}", line.split(",")[c]

    def bad_block(block: list[str], read: list[str], line_no: int,
                  err: ValueError) -> ConfigError:
        """Why loadtxt rejected read, the block's lines as it was given them;
        the block's first line is line line_no.  The first line with the
        wrong number of cells, else the first i_j, rho or Rsum cell that
        loadtxt does not read alone, is named as block spells it."""
        body = [(no, line, seen) for no, line, seen
                in zip(itertools.count(line_no), block, read) if line]
        for no, line, _ in body:
            if line.count(",") != n_cols - 1:
                return ConfigError(f"{path}:{no}: expected {n_cols} cells, "
                                   f"got {line.count(',') + 1}")
        for no, line, seen in body:
            for c in [*range(m), 2 * m, 2 * m + 1]:
                try:
                    _loadtxt([seen], np.int64 if c < m else np.float64, usecols=c)
                except (ValueError, DeprecationWarning):
                    return ConfigError(f"{path}:{no}: {header[c]} {line.split(',')[c]!r} "
                                       f"is not {'an integer' if c < m else 'a number'}")
        return ConfigError(f"{path}:{line_no}-{line_no + len(block) - 1}: {err}")

    with open(path) as src:
        # The text of _CSV_BLOCK lines at a time and its lines, split as
        # str.splitlines splits the whole text; "" once the file is exhausted.
        blocks = ((text, text.splitlines()) for text in
                  iter(lambda: "".join(itertools.islice(src, _CSV_BLOCK)), ""))
        text, first = next(blocks, ("", []))
        if not first:
            raise ConfigError(f"{path}: empty field CSV")
        header = first[0].split(",")
        n_cols = len(header)
        if n_cols < 6 or n_cols % 2 != 0:
            raise ConfigError(f"{path}: malformed field CSV header {first[0]!r}")
        m = (n_cols - 2) // 2
        expect_i = [f"i_{j}" for j in range(1, m + 1)]
        expect_p = [f"p_{j}" for j in range(1, m + 1)]
        label = header[2 * m][len("rho_"):]
        if header[:m] != expect_i or header[m : 2 * m] != expect_p or not label or \
                header[2 * m :] != [f"rho_{label}", f"Rsum_{label}"]:
            raise ConfigError(f"{path}: unexpected field CSV columns {header}")
        # A row: the m i_j, the m p_j cells as text, then rho and Rsum.
        row = np.dtype([("i", np.int64, (m,)), ("p", f"U{_P_WIDTH}", (m,)),
                        ("v", np.float64, (2,))])

        n_rows, line_no = 0, 2
        p_cells: list = [{} for _ in range(m)]     # i_j -> its p_j cell, per axis
        p_mixed = [False] * m                      # an i_j came with two p_j cells
        indices, values = [], []
        for text, block in itertools.chain([(text, first[1:])], blocks):
            start, line_no = line_no, line_no + len(block)
            if not any(block):
                continue
            read = block
            if "\x00" in text or "\x1f" in text:
                read = [line.translate(_UNREAD) for line in block]
            try:
                rows = _loadtxt(read, row)
                if len(rows) != len(block) - block.count(""):
                    raise ValueError("loadtxt skipped a line that is not blank")
            except (ValueError, DeprecationWarning) as err:
                raise bad_block(block, read, start, err) from None
            n_rows += len(rows)
            index, p = rows["i"], rows["p"]
            for j in range(m):
                # One p_j cell per i_j of the block, then the block's <= N+1
                # cells join the file's.
                keys, first_row, inverse = np.unique(index[:, j], return_index=True,
                                                     return_inverse=True)
                cells = p[first_row, j]
                if (cells[inverse] != p[:, j]).any() or any(
                        p_cells[j].setdefault(i, c) != c
                        for i, c in zip(keys.tolist(), cells.tolist())):
                    p_mixed[j] = True
            # Copies, so the block's records, p_j text included, go with it.
            indices.append(index.copy())
            values.append(rows["v"].copy())
            del rows, index, p
    if not n_rows:
        raise ConfigError(f"{path}: field CSV has no data rows")

    index = np.concatenate(indices).T
    rho, rsum = np.concatenate(values).T
    bad = np.isnan(rho) | (rho == math.inf)
    if bad.any():
        where, cell = bad_cell(int(np.argmax(bad)), 2 * m)
        raise ConfigError(f"{where}: rho {cell!r} is neither finite nor -inf")
    if index.min() < 0:
        raise ConfigError(f"{path}: negative grid index")
    if index.max() == 0:
        raise ConfigError(f"{path}: every i_j is 0, so the indices span no grid step")
    try:
        grid = GridSpec(m=m, n_steps=int(index.max()))
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if n_rows != grid.n_points:
        raise ConfigError(
            f"{path}: {n_rows} rows does not cover the "
            f"{grid.n_points}-point grid inferred from the indices"
        )
    axis = [_fmt(v) for v in grid.axis_values()]
    for j in range(m):
        if p_mixed[j] or any(axis[i] != p for i, p in p_cells[j].items()):
            r = next(r for r, (_, line) in enumerate(data_lines())
                     if line.split(",")[m + j] != axis[index[j, r]])
            where, cell = bad_cell(r, m + j)
            raise ConfigError(
                f"{where}: p_{j + 1} = {cell!r} is not the "
                f"grid value {axis[index[j, r]]} of i_{j + 1} = {index[j, r]}"
            )
    flat = np.ravel_multi_index(index, grid.shape)
    data = np.full(grid.n_points, np.nan)
    data[flat] = rho
    if np.any(np.isnan(data)):
        raise ConfigError(f"{path}: duplicate rows leave grid points unfilled")
    field = RateReductionField(grid=grid, data=data.reshape(grid.shape))
    bad = sum_rate_field(field).reshape(-1)[flat].view(np.uint64) != rsum.view(np.uint64)
    if bad.any():
        where, cell = bad_cell(int(np.argmax(bad)), 2 * m + 1)
        raise ConfigError(
            f"{where}: Rsum {cell!r} is not the "
            "joint entropy minus rho (inf where rho is -inf)"
        )
    return field
