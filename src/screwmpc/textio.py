"""Text formats of every file the program reads or writes.

A file read holds one record per line: blank lines and '#' lines are
skipped, and a record that does not parse is reported as ``file:line:``.
Numbers are written with 17 significant digits, which round-trip a double.
"""

from __future__ import annotations

from pathlib import Path


def records(text: str, source, parse, first: int = 1) -> list:
    """``parse(line)`` of each stripped record line of text, numbered from ``first``."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=first):
        line = raw.strip()
        if line and not line.startswith("#"):
            try:
                out.append(parse(line))
            except ValueError as err:
                raise ValueError(f"{source}:{lineno}: {err}") from None
    return out


def floats(fields) -> list[float]:
    try:
        return [float(tok) for tok in fields]
    except ValueError as err:
        raise ValueError(f"non-numeric field ({err})") from None


_NUMBER = "%.17g"


def fmt(x: float) -> str:
    return _NUMBER % x


def record_format(n: int) -> str:
    """%-format string writing a sequence of n numbers as one comma-separated record."""
    return ",".join([_NUMBER] * n)


def write_lines(path: str | Path, lines) -> None:
    Path(path).write_text("\n".join(lines) + "\n")
