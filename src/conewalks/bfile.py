"""Reading sequence listing files and comparing them against the oracle.

The file format is plain text: one "n value" pair per line, '#'-prefixed
comment lines and blank lines skipped.  Indices must be strictly
increasing.
"""

from __future__ import annotations

from .walks import Record


class BFileError(ValueError):
    """A malformed line, with its 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class BFile(Record):
    """Parsed sequence file: a list of (n, value) pairs, n strictly increasing."""

    __slots__ = ("entries",)


def parse_bfile(text: str) -> BFile:
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
    return BFile(tuple(entries))


def read_bfile(path) -> BFile:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise BFileError(lineno, f"non-ASCII byte {data[exc.start]:#04x}")
    return parse_bfile(text)


def compare(bfile: BFile, oracle, max_n=None) -> dict:
    """Compare file entries against a callable n -> count.

    Returns a report dict: verdict "agree" (possibly vacuous), or
    "mismatch" with the first differing index and both values.
    """
    checked = 0
    first = last = None
    for n, value in bfile.entries:
        if max_n is not None and n > max_n:
            break
        expected = oracle(n)
        if expected != value:
            return {
                "verdict": "mismatch",
                "n": n,
                "file_value": str(value),
                "computed_value": str(expected),
                "entries_checked": checked,
            }
        if first is None:
            first = n
        last = n
        checked += 1
    report = {"verdict": "agree", "entries_checked": checked}
    if checked == 0:
        report["warning"] = "no entries compared"
    else:
        report["first_n"] = first
        report["last_n"] = last
    return report
