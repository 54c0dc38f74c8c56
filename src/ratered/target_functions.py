"""Truth tables for the function the sink must compute.

A function is stored explicitly as a total map from input tuples to output
symbols, so every predicate on it (zero-message computability in
lattice.zero_message_mask, support constancy in the oracle) scans table
entries exactly, independent of floating-point entropy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, read_text

# The builtin functions by name: min == and and max == or on {0,1}, and
# "constant" is the all-zeros function (a degenerate smoke case).
_BUILTINS = {"min": min, "max": max, "and": min, "or": max,
             "parity": lambda x: sum(x) % 2, "constant": lambda x: 0}
BUILTIN_NAMES = tuple(_BUILTINS)


def _check_entry(m: int, outputs, x: tuple[int, ...], z: int, where: str = "") -> None:
    """One truth-table row x -> z over binary inputs, reported after `where`."""
    if len(x) != m:
        raise ConfigError(f"{where}input tuple {x} has wrong arity")
    if any(xi not in (0, 1) for xi in x):
        raise ConfigError(f"{where}input symbol out of range in {x}")
    if z not in outputs:
        raise ConfigError(f"{where}output {z} for {x} not in output alphabet")


@dataclass(frozen=True)
class FunctionTable:
    """Explicit truth table f: {0,1}^m -> Z, total over the 2^m inputs."""

    m: int
    output_alphabet: tuple[int, ...]
    table: dict[tuple[int, ...], int]

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ConfigError(f"arity must be >= 1, got {self.m}")
        expected = 2**self.m
        if len(self.table) != expected:
            raise ConfigError(
                f"non-total table: {len(self.table)} entries, expected {expected}"
            )
        outputs = set(self.output_alphabet)
        for x, z in self.table.items():
            _check_entry(self.m, outputs, x, z)

    def __call__(self, x: tuple[int, ...]) -> int:
        return self.table[x]


def builtin_table(name: str, m: int) -> FunctionTable:
    """One of the built-in binary functions over m sources (_BUILTINS), by
    its name in any case."""
    if m < 2:
        raise ConfigError(f"builtin functions need m >= 2, got {m}")
    fn = _BUILTINS.get(name.lower())
    if fn is None:
        raise ConfigError(f"unknown builtin function {name!r}; choose from {BUILTIN_NAMES}")
    table = {x: int(fn(x)) for x in itertools.product((0, 1), repeat=m)}
    outputs = tuple(sorted(set(table.values())))
    return FunctionTable(m=m, output_alphabet=outputs, table=table)


def load_table(path: str | Path) -> FunctionTable:
    """Parse a truth-table file.

    Format: a header line `arity m=3 alphabets=2,2,2 outputs=0,1`, then one
    record per line `x1 x2 ... xm -> z` with integer symbols; `#` starts a
    comment; blank lines are ignored.  The file is read as UTF-8.
    """
    path = Path(path)
    lines = []
    for raw_no, raw in enumerate(read_text(path).splitlines(), start=1):
        text = raw.split("#", 1)[0].strip()
        if text:
            lines.append((raw_no, text))
    if not lines:
        raise ConfigError(f"{path}: empty table file")

    header_no, header = lines[0]
    fields = dict()
    parts = header.split()
    if not parts or parts[0] != "arity":
        raise ConfigError(f"{path}:{header_no}: header must start with 'arity'")
    for part in parts[1:]:
        if "=" not in part:
            raise ConfigError(f"{path}:{header_no}: bad header field {part!r}")
        key, value = part.split("=", 1)
        fields[key] = value
    try:
        m = int(fields["m"])
        alphabet_sizes = tuple(int(a) for a in fields["alphabets"].split(","))
        outputs = tuple(int(z) for z in fields["outputs"].split(","))
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"{path}:{header_no}: malformed header: {exc}") from exc
    # FunctionTable itself is binary: the header's sizes are checked here
    where = f"{path}:{header_no}: alphabets="
    if len(alphabet_sizes) != m:
        raise ConfigError(f"{where} lists {len(alphabet_sizes)} sizes, expected m={m}")
    if any(a != 2 for a in alphabet_sizes):
        raise ConfigError(f"{where}{','.join(map(str, alphabet_sizes))}: "
                          "only binary source alphabets are supported")

    table: dict[tuple[int, ...], int] = {}
    for line_no, text in lines[1:]:
        tokens = text.split()
        if len(tokens) != m + 2 or tokens[m] != "->":
            raise ConfigError(
                f"{path}:{line_no}: expected '{m} symbols -> z', got {text!r}"
            )
        try:
            x = tuple(int(t) for t in tokens[:m])
            z = int(tokens[m + 1])
        except ValueError as exc:
            raise ConfigError(f"{path}:{line_no}: non-integer symbol") from exc
        if x in table:
            raise ConfigError(f"{path}:{line_no}: duplicate entry for {x}")
        _check_entry(m, outputs, x, z, f"{path}:{line_no}: ")
        table[x] = z

    # rows are distinct binary tuples, so the table is total iff none is missing
    missing = [x for x in itertools.product((0, 1), repeat=m) if x not in table]
    if missing:
        raise ConfigError(
            f"{path}: non-total table, missing {len(missing)} rows, "
            f"first missing {missing[0]}"
        )
    return FunctionTable(m=m, output_alphabet=outputs, table=table)
