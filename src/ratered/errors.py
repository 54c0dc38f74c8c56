"""Exception types shared across the package, and the UTF-8 text reader."""

from pathlib import Path


class ConfigError(ValueError):
    """Bad user-supplied configuration: unknown function name, malformed
    truth-table file, non-reciprocal grid step, mismatched grids, ..."""


class NotCertifiedError(RuntimeError):
    """A lower bound was requested from a field whose membership check
    did not pass (or was never run)."""


def read_text(path) -> str:
    """The text of the file at path, decoded as UTF-8 whatever the locale;
    bytes that do not decode are a ConfigError naming path:line."""
    raw = Path(path).read_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = raw.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"{path}:{line_no}: not UTF-8 text: {exc.reason} "
                          f"(byte 0x{raw[exc.start]:02x})") from None
