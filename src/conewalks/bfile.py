"""Reading sequence listing files and comparing them against the oracle.

The file format is plain text: one "n value" pair per line, '#'-prefixed
comment lines and blank lines skipped.  Indices must be strictly
increasing.  A parsed file is the tuple of its (n, value) pairs.
"""

from __future__ import annotations


class BFileError(ValueError):
    """A malformed line, with its 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def parse_bfile(text: str) -> tuple:
    """The (n, value) pairs of a sequence file's text, n strictly
    increasing."""
    entries = []
    prev_n = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise BFileError(lineno, f"expected 'n value', got {raw!r}")
        try:
            n = int(parts[0])
            value = int(parts[1])
        except ValueError:
            raise BFileError(lineno, f"non-integer field in {raw!r}")
        if n < 0:
            raise BFileError(lineno, f"negative index {n}")
        if value < 0:
            raise BFileError(lineno, f"negative value {value}")
        if prev_n is not None and n <= prev_n:
            raise BFileError(lineno, f"index {n} not increasing (previous {prev_n})")
        prev_n = n
        entries.append((n, value))
    return tuple(entries)


def read_bfile(path) -> tuple:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise BFileError(lineno, f"non-ASCII byte {data[exc.start]:#04x}")
    return parse_bfile(text)


def compare(entries, oracle, max_n=None) -> dict:
    """Compare a file's (n, value) pairs up to ``max_n`` against a callable
    n -> count.

    Returns a report dict: verdict "agree" (possibly vacuous), or
    "mismatch" with the first differing index and both values.
    """
    entries = [(n, v) for n, v in entries if max_n is None or n <= max_n]
    for checked, (n, value) in enumerate(entries):
        expected = oracle(n)
        if expected != value:
            return {
                "verdict": "mismatch",
                "n": n,
                "file_value": str(value),
                "computed_value": str(expected),
                "entries_checked": checked,
            }
    report = {"verdict": "agree", "entries_checked": len(entries)}
    if entries:
        report["first_n"], report["last_n"] = entries[0][0], entries[-1][0]
    else:
        report["warning"] = "no entries compared"
    return report
