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


def write_records(path: str | Path, header: str, rows, sep: str = ",") -> None:
    """Write the header line, then each of the rows (sequences of numbers of
    one length) as one record of its numbers, %.17g, joined by sep."""
    record = sep.join(["%.17g"] * len(rows[0])) if rows else ""
    lines = [header] + [record % tuple(row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")
