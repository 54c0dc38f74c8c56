"""The field-CSV format: a dense field, one row per grid point.

Rows come in row-major index order: the indices i_1..i_m, their grid
values p_1..p_m, then rho_<label> and Rsum_<label>, with 17 significant
digits and the spellings "inf" and "-inf".  Identical fields give
byte-identical files, and read_field_csv reads write_field_csv's output
back bit-exactly.  Files are written and read a block of rows at a time,
so no whole-file text is held in memory.  A block of every file of one
write is written by one call of the compiled row writer of the envelope
library (ratered_csv_write in _envelope.c, adopted with the compiled
sweep): it reads h and each rho in place, computes Rsum, spells a row's
index and grid-value cells once for all files and each value byte for
byte as "%.17g" does, and a file whose rho has an earlier file's bits in
the row copies that file's bytes.  Where that library is not adopted,
_python_rows writes them by Python's own "%.17g" % per row; it is also
the reference that the library's row probes compare with.

A file that is byte for byte what the writer writes is read back by the
same library's row reader (ratered_csv_read), a chunk of bytes per call:
a value in the writer's fixed notation by its layout and its 17 digits,
as one integer, and only "0", "-0", "inf", "-inf", "nan", exponent
notation and a cell that no candidate matches by strtod, each kept only
if the writer spells the value with the cell's bytes.
Every other file, and every file where the library is not adopted, is
read by the block reader: each block of lines is parsed by one np.loadtxt
call, numpy's C text reader, and every cell is checked.  The block reader
alone raises the errors, so a file the row reader declines is read again
from its start.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import stat
import warnings
from pathlib import Path

import numpy as np

from .envelope import compiled_csv_read, compiled_csv_rows
from .errors import ConfigError, read_text
from .lattice import RateReductionField, gap, sum_rate_field
from .probability import GridSpec, entropy_grid

# Rows per block when a field CSV is written or read; bounds the row and cell
# strings held in memory at once.
_CSV_BLOCK = 4096
# Bytes per chunk of the compiled row reader, and the most bytes of the
# header line and of the file's end that it reads at once; a row is far
# shorter.
_CSV_CHUNK = 1 << 20
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


def _grid_cells(grid: GridSpec) -> list[str]:
    """The cells a row on grid starts with: the "i," cell of every grid
    index i, then the "p_i," cell of every grid value."""
    return [f"{i}," for i in range(grid.points_per_axis)] \
        + [_fmt(v) + "," for v in grid.axis_values()]


def _header(path, line: str) -> tuple[list[str], int]:
    """The cells of a field CSV's header line and m, the number of grid
    axes: i_1..i_m, p_1..p_m, then rho_<label>,Rsum_<label> with one
    non-empty label, else a ConfigError naming path."""
    header = line.split(",")
    if len(header) < 6 or len(header) % 2 != 0:
        raise ConfigError(f"{path}: malformed field CSV header {line!r}")
    m = (len(header) - 2) // 2
    label = header[2 * m][len("rho_"):]
    if header[:m] != [f"i_{j}" for j in range(1, m + 1)] or not label or \
            header[m : 2 * m] != [f"p_{j}" for j in range(1, m + 1)] or \
            header[2 * m :] != [f"rho_{label}", f"Rsum_{label}"]:
        raise ConfigError(f"{path}: unexpected field CSV columns {header}")
    return header, m


def _write_grid_csv(items: list, axes: list, h: np.ndarray, grid: GridSpec) -> None:
    """Dense dumps of fields on one grid, one file per (path, label, rho) in
    items.  Each rho has the shape of h, the joint entropy, with one
    dimension per 1-based grid axis in axes.  A file has one row per cell in
    row-major index order: the indices, their grid values, rho and Rsum
    (lattice.gap(h, rho): h - rho, inf where rho is BOTTOM).

    The files are written in one pass, _CSV_BLOCK rows at a time, so memory
    stays bounded by a block whatever the grid size.  Per block, the rows
    of every file are written by one call of the compiled row writer
    (envelope.compiled_csv_rows), else of _python_rows; either reads h and
    each rho in place, a rotated view or a slice included.  A rho of another
    dtype, or one that numpy does not hold aligned, is copied once first.
    """
    rows = (compiled_csv_rows() or _python_rows)(_grid_cells(grid), h.shape)
    rhos = [np.require(rho, np.float64, "A") for *_, rho in items]   # aligned: read in place
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(open(path, "wb")) for path, _, _ in items]
        for out, (_, label, _) in zip(files, items):
            out.write((",".join([f"i_{j}" for j in axes] + [f"p_{j}" for j in axes]
                                + [f"rho_{label}", f"Rsum_{label}"]) + "\n").encode())
        for first in range(0, h.size, _CSV_BLOCK):
            for out, text in zip(files, rows(h, rhos, first, min(_CSV_BLOCK, h.size - first))):
                out.write(text)
            del text        # frees this block's buffer before the next one is allocated


def _python_rows(cells: list[str], shape: tuple):
    """The Python row writer, with envelope.compiled_csv_rows' interface,
    yielding each file's rows as a uint8 array.  Per block, the "i," and
    "p_i," cells of every row are taken once for all files, and each file's
    rows are spelled by one template, the 2m cells then "%.17g,%.17g\n" of
    its rho and Rsum, lattice.gap(h, rho)."""
    n, row = len(cells) // 2, "%s" * (2 * len(shape)) + "%.17g,%.17g\n"

    def rows(h, rhos, first: int, count: int):
        index = [i.tolist() for i in np.unravel_index(np.arange(first, first + count), shape)]
        prefix = [[cells[i] for i in at] for at in index] \
            + [[cells[n + i] for i in at] for at in index]
        entropy = h.flat[first : first + count]    # row-major, copying no whole view
        for rho in rhos:
            v = rho.flat[first : first + count]
            text = "".join(map(row.__mod__, zip(*prefix, v.tolist(), gap(entropy, v).tolist())))
            yield np.frombuffer(text.encode(), np.uint8)
    return rows


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


def _read_written(path) -> RateReductionField | None:
    """The field of a field CSV that is byte for byte what write_field_csv
    writes, read by the compiled row reader (envelope.compiled_csv_read);
    None for every other file, and where that reader is not adopted.  It
    raises no ConfigError: read_field_csv's block reader names what is
    wrong with a file.

    N, the grid's steps, is the first cell of the file's last line, read
    with one seek; the file must be long enough for (N+1)^m rows of at
    least 4m + 4 bytes before anything of that size is allocated.  The rows
    are then read _CSV_CHUNK bytes at a time, a partial last line carried
    to the next chunk.  There must be exactly (N+1)^m of them and nothing
    after the last "\n", no rho may be NaN or +inf, and every Rsum must be
    sum_rate_field of the field read, bit for bit."""
    read = compiled_csv_read()
    if read is None:
        return None
    try:
        src = open(path, "rb")
    except OSError:
        return None
    with src:
        status = os.fstat(src.fileno())
        if not stat.S_ISREG(status.st_mode):
            return None                 # a pipe would not give its bytes twice
        head = src.readline(_CSV_CHUNK)
        try:
            line = head[:-1].decode("utf-8")
            _, m = _header(path, line)
        except (UnicodeDecodeError, ConfigError):
            return None
        if not head.endswith(b"\n") or line.splitlines() != [line]:
            return None
        src.seek(max(len(head), status.st_size - _CSV_CHUNK))
        tail = src.read()
        n_steps = tail[tail.rfind(b"\n", 0, -1) + 1 :].split(b",", 1)[0]
        if not (tail.endswith(b"\n") and n_steps.isdigit() and len(n_steps) < 20):
            return None
        try:
            grid = GridSpec(m=m, n_steps=int(n_steps))
        except ConfigError:
            return None
        if status.st_size - len(head) < grid.n_points * (4 * m + 4):
            return None
        rows = read(_grid_cells(grid), grid.shape)
        rho, rsum = np.empty(grid.n_points), np.empty(grid.n_points)
        src.seek(len(head))
        first, chunk = 0, b""
        while more := src.read(_CSV_CHUNK):
            chunk += more
            done = rows(chunk, first, rho, rsum)
            if done is None:
                return None
            first, chunk = first + done[0], chunk[done[1]:]
            if len(chunk) > _CSV_CHUNK:     # no row is that long
                return None
    if chunk or first != grid.n_points or np.isnan(rho).any() or (rho == math.inf).any():
        return None
    field = RateReductionField(grid=grid, data=rho.reshape(grid.shape))
    if not np.array_equal(sum_rate_field(field).reshape(-1).view(np.uint64),
                          rsum.view(np.uint64)):
        return None
    return field


def read_field_csv(path) -> RateReductionField:
    """Re-ingest a field CSV bit-exactly.

    The header must end in rho_<label>,Rsum_<label> with one non-empty
    label.  Every cell is checked against the format write_field_csv
    produces: rho must be finite or -inf, each p_j cell must read exactly as
    the grid value of its i_j, and Rsum must equal sum_rate_field of the
    parsed field bit for bit.  A bad cell is reported with its line number.

    A file that is byte for byte what write_field_csv writes is read in one
    pass by the compiled row reader (_read_written), where the compiled
    library is adopted.  Every other file is read from its start by the
    block reader below, which alone raises the errors; so both readers
    accept the same files, with the same bits, and every message comes
    from the block reader.

    The block reader parses each block of _CSV_BLOCK lines by one
    np.loadtxt call.  Floats are read bit-exactly, by the routine float()
    uses.  numpy's
    parser is stricter than int() and float(): a number with an underscore
    ("1_0" as an i_j, "1_5" as rho or Rsum) or with non-ASCII digits, and
    an i_j outside int64, are bad cells here though int() and float() read
    them.  An i_j spelled as a float ("1.0"), which numpy 1.x would read
    under a DeprecationWarning, stays a bad cell.  A p_j cell is read to
    _P_WIDTH characters, one more than any grid value takes, so a cell
    that starts with its grid value and goes on is still named.
    """
    field = _read_written(path)
    if field is not None:
        return field

    def data_lines() -> list[tuple[int, str]]:
        """(line number, text) of each non-blank line after the header, read
        again from the file: only to name a bad line."""
        lines = read_text(path).splitlines()[1:]
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

    def next_block() -> str:
        """The text of the next _CSV_BLOCK lines of src; "" at its end."""
        try:
            return "".join(itertools.islice(src, _CSV_BLOCK))
        except UnicodeDecodeError:
            read_text(path)             # raises the ConfigError naming the line
            raise

    with open(path, encoding="utf-8") as src:
        # Each block's text and its lines, split as str.splitlines splits it.
        blocks = ((text, text.splitlines()) for text in iter(next_block, ""))
        text, first = next(blocks, ("", []))
        if not first:
            raise ConfigError(f"{path}: empty field CSV")
        header, m = _header(path, first[0])
        n_cols = len(header)
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
