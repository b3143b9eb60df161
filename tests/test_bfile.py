"""Sequence-file parsing and oracle comparison."""

import pytest

from conewalks.bfile import BFile, BFileError, compare, parse_bfile, read_bfile


GOOD = """\
# a comment
0 1
1 4

2 14
3 54
"""


def test_parse_good():
    bf = parse_bfile(GOOD)
    assert bf.entries == ((0, 1), (1, 4), (2, 14), (3, 54))
    assert dict(bf.entries)[2] == 14
    assert len(bf.entries) == 4


def test_parse_empty():
    assert parse_bfile("").entries == ()
    assert parse_bfile("# only comments\n").entries == ()


def test_big_values():
    bf = parse_bfile("0 123456789012345678901234567890\n")
    assert bf.entries[0][1] == 123456789012345678901234567890


@pytest.mark.parametrize(
    "text,lineno",
    [
        ("0 1\nbogus\n", 2),
        ("0 1 2\n", 1),
        ("0 x\n", 1),
        ("-1 5\n", 1),
        ("0 -5\n", 1),
        ("0 1\n0 2\n", 2),
        ("1 1\n0 2\n", 2),
    ],
)
def test_malformed_lines(text, lineno):
    with pytest.raises(BFileError) as exc:
        parse_bfile(text)
    assert exc.value.lineno == lineno
    assert f"line {lineno}:" in str(exc.value)


def test_read_bfile(tmp_path):
    path = tmp_path / "b.txt"
    path.write_text("0 1\n1 4\n")
    assert read_bfile(path).entries == ((0, 1), (1, 4))


def test_compare_agree():
    bf = parse_bfile("0 1\n1 4\n2 14\n")
    report = compare(bf, lambda n: [1, 4, 14][n])
    assert report["verdict"] == "agree"
    assert report["entries_checked"] == 3
    assert report["first_n"] == 0 and report["last_n"] == 2


def test_compare_mismatch():
    bf = parse_bfile("0 1\n1 5\n")
    report = compare(bf, lambda n: [1, 4][n])
    assert report["verdict"] == "mismatch"
    assert report["n"] == 1
    assert report["file_value"] == "5"
    assert report["computed_value"] == "4"


def test_compare_empty_is_vacuous():
    report = compare(BFile(()), lambda n: 1)
    assert report["verdict"] == "agree"
    assert "warning" in report


def test_compare_respects_max_n():
    bf = parse_bfile("0 1\n1 4\n50 999\n")
    report = compare(bf, lambda n: [1, 4][n], max_n=10)
    assert report["verdict"] == "agree"
    assert report["entries_checked"] == 2


def test_compare_against_oracle():
    from conewalks.walks import Region, SQUARE, WalkModel, count_sequence

    model = WalkModel(SQUARE, Region.THREE_QUADRANT, (0, 0))
    bf = parse_bfile("0 1\n1 4\n2 14\n3 54\n4 200\n")
    report = compare(bf, count_sequence(model, 4).__getitem__)
    assert report["verdict"] == "agree"


def test_read_bfile_non_ascii_names_the_line(tmp_path):
    path = tmp_path / "b.txt"
    path.write_bytes(b"# caf\xc3\xa9\n0 1\n")
    with pytest.raises(BFileError) as info:
        read_bfile(path)
    assert info.value.lineno == 1
