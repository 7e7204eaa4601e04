"""Dataset CSV I/O against the row-wise oracles of conftest: the bytes
save_dataset writes, and the result or error of load_dataset on clean and
edited pairs files."""

import tracemalloc

import numpy as np
import pytest

from conftest import naive_load_dataset, naive_save_dataset
from dyadreg import dgp
from dyadreg.dgp import DyadicDataset, load_dataset, make_dgp, save_dataset, simulate

_FILES = ("d.csv", "d.units.csv", "d.manifest.json")


def _assert_writes_the_oracle_bytes(data, tmp_path):
    (tmp_path / "fast").mkdir()
    (tmp_path / "naive").mkdir()
    save_dataset(data, str(tmp_path / "fast" / "d.csv"), meta={"seed": 1})
    naive_save_dataset(data, str(tmp_path / "naive" / "d.csv"), meta={"seed": 1})
    for name in _FILES:
        assert (tmp_path / "fast" / name).read_bytes() == (tmp_path / "naive" / name).read_bytes()


_SPECS = [("theorem1", "sin_additive", 1, "uniform"), ("theorem1", "sin_additive", 2, "uniform"),
          ("theorem1", "product", 1, "truncnorm"), ("threshold_graphon", "sin_additive", 1, "uniform"),
          ("sigmoid_graphon", "sin_additive", 2, "uniform"), ("noiseless", "zero", 1, "uniform")]


@pytest.mark.parametrize("n", [2, 3, 65, 129])
@pytest.mark.parametrize("kind,g,d_x,law", _SPECS)
def test_save_writes_the_row_wise_bytes(tmp_path, kind, g, d_x, law, n):
    _assert_writes_the_oracle_bytes(simulate(make_dgp(kind, g, d_x=d_x, law=law), n, 11), tmp_path)


def test_save_writes_the_row_wise_bytes_of_edge_floats(tmp_path):
    y = np.array([[0.0, -0.0, 5e-324, 1e16],
                  [1e-05, 0.0, 0.1 + 0.2, -1e300],
                  [1e22, 123456789.0, 0.0, -2.5e-310],
                  [1.0, 0.5, 1 / 3, 0.0]])
    _assert_writes_the_oracle_bytes(DyadicDataset(x=np.arange(4.0)[:, None], y=y), tmp_path)


def _outcome(load, path):
    """(x bytes, y bytes, manifest) of a load, or the type and text of its error."""
    try:
        data, manifest = load(path)
    except Exception as exc:  # the oracle's error, whatever its type
        return type(exc), str(exc)
    return data.x.tobytes(), data.y.tobytes(), manifest


def _cell(line, field, text):
    """Edit putting `text` in field `field` of line `line` (from 1)."""
    def edit(lines):
        cells = lines[line - 1].split(",")
        cells[field] = text
        lines[line - 1] = ",".join(cells)
    return edit


# name: (edit of the CRLF lines of an N=5 pairs file, whether the row-wise loader takes it)
_EDITS = {
    "quoted field": (_cell(2, 0, '"0"'), True),
    "quoted header": (_cell(1, 0, '"i"'), True),
    "space-padded": (lambda lines: lines.__setitem__(1, lines[1].replace("0,1,", " 0 , 1 ,")), True),
    "underscore index": (_cell(2, 0, "0_0"), True),
    "plus index": (_cell(3, 1, "+2"), True),
    "float index": (_cell(2, 1, "1.0"), False),
    "huge index": (_cell(2, 0, "9" * 30), False),
    "leading-zero index": (_cell(2, 1, "001"), True),
    "leading-zero index out of range": (_cell(2, 0, "007"), False),
    "19-digit index": (_cell(3, 0, "0" * 19), True),
    "index 2^64 + 1": (_cell(2, 1, str(2**64 + 1)), False),
    "negative index": (_cell(2, 0, "-1"), False),
    "non-ASCII digit index": (_cell(2, 1, "١"), True),
    "exponent value": (_cell(4, 2, "1e0"), True),
    "negative zero value": (_cell(4, 2, "-0.0"), True),
    "vertical-tab padded value": (_cell(4, 2, "0.25\x0b"), True),
    "nan value": (_cell(5, 2, "nan"), False),
    "-inf value": (_cell(5, 2, "-inf"), False),
    "abc value": (_cell(3, 2, "abc"), False),
    "NUL in a value": (_cell(3, 2, "0.5\x00"), False),
    "overlong value": (_cell(3, 2, "0." + "0" * 140_000), False),
    "# in a field": (_cell(4, 2, "#0.5"), False),
    "extra field": (lambda lines: lines.__setitem__(2, lines[2] + ",7"), False),
    "field moved across a line end": (lambda lines: lines.__setitem__(slice(1, 3), [
        lines[1].rsplit(",", 1)[0], lines[1].rsplit(",", 1)[1] + "," + lines[2]]), False),
    "blank line": (lambda lines: lines.insert(2, ""), False),
    "trailing blank line": (lambda lines: lines.append(""), False),
    "duplicate pair": (lambda lines: lines.__setitem__(-2, lines[1]), False),
    "missing pair": (lambda lines: lines.pop(5), False),
    "diagonal pair": (lambda lines: lines.__setitem__(3, "2,2,0.5"), False),
    "header only": (lambda lines: lines.__delitem__(slice(1, -1)), False),
}
# name: rewrite of the whole text; every one of these loads
_LINE_ENDS = {
    "LF only": lambda text: text.replace("\r\n", "\n"),
    "CR only": lambda text: text.replace("\r\n", "\r"),
    "no trailing newline": lambda text: text[:-2],
    "lone CR at the end": lambda text: text[:-1],
    "one LF line end": lambda text: text.replace("\r\n", "\n", 3).replace("\n", "\r\n", 2),
    "one lone CR line end": lambda text: text.replace("\r\n", "\r", 3).replace("\r", "\r\n", 2),
}


@pytest.fixture(params=[dgp._BLOCK_CHARS, 41], ids=["default-block", "41-char-block"])
def block_chars(request, monkeypatch):
    monkeypatch.setattr(dgp, "_BLOCK_CHARS", request.param)
    return request.param


def _saved(tmp_path, n):
    path = tmp_path / "d.csv"
    save_dataset(simulate(make_dgp("theorem1", "sin_additive"), n, 1), str(path))
    return path


@pytest.mark.parametrize("name", sorted(_EDITS) + sorted(_LINE_ENDS))
def test_load_gives_the_row_wise_result_or_error(tmp_path, block_chars, name):
    path = _saved(tmp_path, 5)
    text = path.read_bytes().decode()
    if name in _LINE_ENDS:
        text, loads = _LINE_ENDS[name](text), True
    else:
        edit, loads = _EDITS[name]
        lines = text.split("\r\n")
        edit(lines)
        text = "\r\n".join(lines)
    path.write_bytes(text.encode())
    expect = _outcome(naive_load_dataset, str(path))
    assert isinstance(expect[0], bytes) == loads
    assert _outcome(load_dataset, str(path)) == expect


def test_index_byte_past_the_digits_gives_the_row_walk_error(tmp_path):
    path = _saved(tmp_path, 12)
    replace = path.read_bytes().replace(b"\r\n0,10,", b"\r\n0,:,", 1)  # ":" is the byte after "9"
    path.write_bytes(replace)
    expect = _outcome(naive_load_dataset, str(path))
    assert expect[0] is ValueError and _outcome(load_dataset, str(path)) == expect


def test_blank_line_is_refused_at_its_line(tmp_path):
    path = _saved(tmp_path, 5)
    lines = path.read_bytes().decode().split("\r\n")
    lines.insert(2, "")
    path.write_bytes("\r\n".join(lines).encode())
    with pytest.raises(ValueError, match=r"d\.csv, line 3: \[\] does not have 3 fields"):
        load_dataset(str(path))


@pytest.mark.parametrize("ends", ["\r\n", "\n"])
@pytest.mark.parametrize("last", ["", "\r"])
@pytest.mark.parametrize("chars", [34, 35, 59, 128, 1 << 18])
def test_clean_files_load_by_blocks_at_any_block_size(tmp_path, monkeypatch, chars, last, ends):
    path = _saved(tmp_path, 20)
    path.write_bytes(path.read_bytes().replace(b"\r\n", ends.encode())[:-len(ends)] + last.encode())
    expect = _outcome(naive_load_dataset, str(path))

    def refuse(*args):
        raise AssertionError("a clean file fell back to the row walk")

    monkeypatch.setattr(dgp, "_BLOCK_CHARS", chars)
    monkeypatch.setattr(dgp, "_pairs_by_row", refuse)
    assert _outcome(load_dataset, str(path)) == expect


@pytest.mark.parametrize("step", ["save", "load"])
def test_dataset_io_keeps_its_temporaries_per_block(tmp_path, step):
    n = 600
    data = simulate(make_dgp("theorem1", "sin_additive"), n, 3)
    path = str(tmp_path / "d.csv")
    save_dataset(data, path)
    tracemalloc.start()
    try:
        if step == "save":
            save_dataset(data, path)
        else:
            load_dataset(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * n * n * 8  # y, its dataset copy and one more N x N


def test_load_keeps_the_parsed_y_as_the_datasets_own(tmp_path):
    n = 600
    path = str(tmp_path / "d.csv")
    save_dataset(simulate(make_dgp("theorem1", "sin_additive"), n, 3), path)
    tracemalloc.start()
    try:
        load_dataset(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * n * n * 8  # y, checked in place, and one block's temporaries
