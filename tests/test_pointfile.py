"""Round-trip and error-reporting tests for the point-set file format."""

import io
import os
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nkline import pointfile
from nkline.construct import explicit_construct
from nkline.grid import MAX_SIDE, PointSet
from nkline.pointfile import MAGIC, ParseError, parse, read_points, serialize, write_points
from oracles import parse_by_lines, serialize_by_points


def test_serialize_layout():
    s = PointSet.from_points(3, [(2, 1), (1, 2)])
    text = serialize(s, k=1, reserve=0, seed=9)
    lines = text.split("\n")
    assert lines[0] == MAGIC
    assert lines[1] == "n=3 k=1 reserve=0 seed=9"
    assert lines[2:4] == ["1 2", "2 1"]
    assert text.endswith("\n")


def test_serialize_unknown_reserve_and_no_seed():
    s = PointSet.from_points(2, [])
    text = serialize(s, k=0)
    assert "reserve=unknown" in text
    assert "seed=none" in text



@pytest.mark.parametrize(
    "k, reserve, seed, name",
    [(9.0, None, None, "k"), (True, None, None, "k"), ("9", None, None, "k"),
     (9, 1.5, None, "reserve"), (9, np.bool_(True), None, "reserve"), (9, 0, 2.0, "seed")],
)
def test_serialize_rejects_headers_parse_would_reject(k, reserve, seed, name):
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        serialize(PointSet.from_points(3, [(1, 1)]), k, reserve, seed)


def test_serialize_takes_numpy_integers():
    s = PointSet.from_points(3, [(2, 1), (1, 2)])
    text = serialize(s, np.int64(1), reserve=np.int32(0), seed=np.uint64(2**63 - 1))
    assert text == serialize(s, 1, reserve=0, seed=2**63 - 1)
    parsed = parse(text)
    assert (parsed.points, parsed.k, parsed.reserve, parsed.seed) == (s, 1, 0, 2**63 - 1)

@st.composite
def _point_sets(draw):
    n = draw(st.integers(1, 30))
    coord = st.integers(1, n)
    if draw(st.booleans()):
        # a single run of equal x, with y = n among its points
        x = draw(coord)
        pts = {(x, y) for y in draw(st.sets(coord))} | {(x, n)}
    else:
        pts = draw(st.sets(st.tuples(coord, coord), max_size=3 * n))
    return PointSet.from_points(n, pts)


def _corners(n):
    return PointSet.from_points(n, [(1, 1), (1, n), (n, 1), (n, n)])


@given(
    points=_point_sets(),
    k=st.integers(0, 50),
    reserve=st.none() | st.integers(-5, 50),
    seed=st.none() | st.integers(-(2**63), 2**63 - 1),
)
@example(points=PointSet.from_points(4, []), k=0, reserve=None, seed=None)
@example(points=PointSet.from_points(1, [(1, 1)]), k=1, reserve=0, seed=0)
@example(points=PointSet.from_points(1, []), k=0, reserve=None, seed=3)
@example(points=PointSet.from_points(5, [(5, 5), (5, 1), (1, 5)]), k=2, reserve=1, seed=None)
# the corners of sides at and around each boundary of the 3-digit groups
@example(points=_corners(999), k=2, reserve=0, seed=1)
@example(points=_corners(1000), k=2, reserve=0, seed=1)
@example(points=_corners(1001), k=2, reserve=0, seed=1)
@example(points=_corners(999_999), k=2, reserve=0, seed=1)
@example(points=_corners(10**6), k=2, reserve=0, seed=1)
@example(points=_corners(10**6 + 1), k=2, reserve=0, seed=1)
@example(points=_corners(MAX_SIDE), k=2, reserve=0, seed=1)
@settings(max_examples=150, deadline=None)
def test_serialize_matches_one_line_per_point_rendering(points, k, reserve, seed):
    assert serialize(points, k, reserve, seed) == serialize_by_points(points, k, reserve, seed)


@st.composite
def _sets_across_digit_groups(draw):
    n = draw(st.sampled_from([1, 2, 999, 1000, 1001, 999_999, 10**6, 10**6 + 1, MAX_SIDE]))
    # the smallest and largest coordinates of each digit count up to n
    edges = sorted({v for d in range(len(str(n))) for v in (10**d, 10 ** (d + 1) - 1, n) if v <= n})
    coord = st.sampled_from(edges) | st.integers(1, n)
    return PointSet.from_points(n, draw(st.sets(st.tuples(coord, coord), max_size=22)))


def _first_keys(n, count):
    return PointSet(n, np.arange(count))


def _last_keys(n, count):
    return PointSet(n, np.arange(n * n - count, n * n))


@given(
    points=_sets_across_digit_groups(),
    chunk=st.sampled_from([1, 2, 3, 7]),
    k=st.integers(0, 50),
    reserve=st.none() | st.integers(-5, 50),
    seed=st.none() | st.integers(-(2**63), 2**63 - 1),
)
@example(points=PointSet.from_points(5, []), chunk=1, k=0, reserve=None, seed=None)
@example(points=PointSet.from_points(5, [(5, 1)]), chunk=7, k=1, reserve=0, seed=0)
@example(points=PointSet.from_points(1, [(1, 1)]), chunk=1, k=1, reserve=0, seed=0)
# sizes that are exact multiples of the chunk, with 4 and 7 digit groups
@example(points=_first_keys(1000, 14), chunk=7, k=2, reserve=0, seed=1)
@example(points=_first_keys(10**6, 6), chunk=3, k=2, reserve=None, seed=None)
@example(points=_corners(10**6 + 1), chunk=2, k=2, reserve=0, seed=1)
@example(points=_corners(MAX_SIDE), chunk=1, k=2, reserve=0, seed=1)
# a chunk and one point, and two chunks, so that the last chunk fills a short
# slice of the reused buffers or all of them, with 1, 2 and 4 digit groups
@example(points=_first_keys(999, 8), chunk=7, k=2, reserve=0, seed=1)
@example(points=_last_keys(999, 14), chunk=7, k=2, reserve=0, seed=1)
@example(points=_first_keys(1000, 4), chunk=3, k=2, reserve=0, seed=1)
@example(points=_last_keys(999_999, 6), chunk=3, k=2, reserve=0, seed=1)
@example(points=_last_keys(MAX_SIDE, 3), chunk=2, k=2, reserve=0, seed=1)
@example(points=_last_keys(MAX_SIDE, 4), chunk=2, k=2, reserve=0, seed=1)
@settings(max_examples=200, deadline=None)
def test_write_points_matches_one_line_per_point_rendering_across_chunks(
    points, chunk, k, reserve, seed
):
    expected = serialize_by_points(points, k, reserve, seed)
    buffer = io.BytesIO()
    with mock.patch.object(pointfile, "_CHUNK", chunk):
        write_points(buffer, points, k, reserve, seed)
        text = serialize(points, k, reserve, seed)
    assert buffer.getvalue() == expected.encode()
    assert text == expected


@pytest.mark.parametrize("separator", [pointfile._SP, pointfile._LF])
def test_tagged_words_are_the_group_words_with_their_separator(separator):
    tagged = pointfile._group_words(separator)
    for table, plain in zip(tagged, pointfile._group_words(), strict=True):
        assert np.array_equal(table, plain | np.uint32(separator << 24))
        assert not table.flags.writeable


def test_write_points_peak_memory_does_not_grow_with_the_set():
    points = explicit_construct(1200, 1000)
    tracemalloc.start()
    try:
        with open(os.devnull, "wb") as file:
            write_points(file, points, 1000)
        _, written_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        text = serialize(points, 1000)
        _, whole_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(points) == 1_200_000 and len(text) > 9 * 2**20
    # one chunk of 16,384 points at n=1200 measured 1.13 MiB (72 bytes a
    # point: coordinates, group remainders, group words and their bytes);
    # the bound holds a chunk with headroom, far below the 9.3 MiB text
    assert written_peak <= 4 * 2**20
    # while serialize, which returns the whole text, holds at least that
    assert whole_peak >= len(text)


def test_roundtrip_random_sets():
    rng = random.Random(4)
    for trial in range(10):
        n = rng.randint(1, 25)
        pts = {(rng.randint(1, n), rng.randint(1, n)) for _ in range(rng.randint(0, 2 * n))}
        s = PointSet.from_points(n, pts)
        parsed = parse(serialize(s, k=5, reserve=None, seed=trial))
        assert parsed.points == s
        assert parsed.k == 5
        assert parsed.reserve is None
        assert parsed.seed == trial


def test_parse_rejects_bad_magic():
    with pytest.raises(ParseError) as exc:
        parse("wrong v9\nn=2 k=1 reserve=0 seed=none\n")
    assert exc.value.line_no == 1


def test_parse_rejects_missing_fields():
    with pytest.raises(ParseError) as exc:
        parse(f"{MAGIC}\nn=2 k=1 reserve=0\n")
    assert exc.value.line_no == 2


def test_parse_rejects_a_magic_line_with_no_line_after_it():
    with pytest.raises(ParseError, match="^line 2: missing parameter line$") as exc:
        parse(MAGIC)
    assert exc.value.line_no == 2


@pytest.mark.parametrize("n", [0, MAX_SIDE + 1])
def test_parse_rejects_a_grid_side_whose_keys_leave_int64(n):
    with pytest.raises(ParseError, match=rf"^line 2: grid side n={n} outside \[1, {MAX_SIDE}\]$"):
        parse(f"{MAGIC}\nn={n} k=1 reserve=0 seed=none\n")


_BAD_HEADERS = [
    "n=1_0 k=+2 reserve=\u0663 seed=07 n=4",
    "n=10 k=2 reserve=0 seed=none n=4",
    "n=10 k=2 k=3 reserve=0 seed=none",
    "k=2 n=10 reserve=0 seed=none",
    "n=10 k=2 seed=none reserve=0",
    "n=10  k=2 reserve=0 seed=none",
    " n=10 k=2 reserve=0 seed=none",
    "n=10 k=2 reserve=0 seed=none ",
    "n=10\tk=2 reserve=0 seed=none",
    "n=10 k=2 reserve=0 seed=none\r",
    "n=+10 k=2 reserve=0 seed=none",
    "n=-10 k=2 reserve=0 seed=none",
    "n=010 k=2 reserve=0 seed=none",
    "n=1\u0660 k=2 reserve=0 seed=none",
    "n=10 k=-0 reserve=0 seed=none",
    "n=10 k=02 reserve=0 seed=none",
    "n=10 k=2 reserve=+1 seed=none",
    "n=10 k=2 reserve=1_0 seed=none",
    "n=10 k=2 reserve=\u0663 seed=none",
    "n=10 k=2 reserve= seed=none",
    "n=10 k=2 reserve=Unknown seed=none",
    "n=10 k=2 reserve=0 seed=07",
    "n=10 k=2 reserve=0 seed=-0",
    "n=10 k=2 reserve=0 seed=None",
    "n=10 k=2 reserve=0 seed=0x1f",
    "n=10 k=2 reserve=0 seed=none extra=1",
    "n=10 k=" + "9" * 5000 + " reserve=0 seed=none",
]


@pytest.mark.parametrize("header", _BAD_HEADERS)
def test_parse_rejects_non_canonical_headers(header):
    with pytest.raises(ParseError) as exc:
        parse(f"{MAGIC}\n{header}\n1 1\n")
    assert exc.value.line_no == 2


@given(
    k=st.integers(),
    reserve=st.none() | st.integers(-5, 50),
    seed=st.none() | st.integers(-(2**63), 2**63 - 1),
    n=st.sampled_from([1, 2, 10, MAX_SIDE]),
)
@example(k=0, reserve=0, seed=0, n=1)
@example(k=-1, reserve=-5, seed=-(2**63), n=MAX_SIDE)
@settings(max_examples=150, deadline=None)
def test_parse_reads_back_every_header(k, reserve, seed, n):
    parsed = parse(serialize(PointSet.from_points(n, [(1, n)]), k, reserve, seed))
    assert (parsed.points.n, parsed.k, parsed.reserve, parsed.seed) == (n, k, reserve, seed)
    assert parsed.points.sorted_xy() == [(1, n)]


def test_parse_reports_body_line_numbers():
    text = f"{MAGIC}\nn=4 k=2 reserve=0 seed=none\n1 1\n2 two\n"
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.line_no == 4


def test_parse_rejects_truncated_pair():
    text = f"{MAGIC}\nn=4 k=2 reserve=0 seed=none\n1\n"
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.line_no == 3


def test_parse_rejects_out_of_range_points():
    text = f"{MAGIC}\nn=4 k=2 reserve=0 seed=none\n5 1\n"
    with pytest.raises(ParseError):
        parse(text)


def test_parse_rejects_duplicates():
    text = f"{MAGIC}\nn=4 k=2 reserve=0 seed=none\n1 1\n1 1\n"
    with pytest.raises(ParseError):
        parse(text)


def test_parse_names_the_line_where_a_point_repeats():
    body = "2 2\n1 1\n3 3\n2 2\n1 1\n4 4\n"
    with pytest.raises(ParseError) as exc:
        parse(f"{MAGIC}\nn=4 k=2 reserve=0 seed=none\n{body}")
    assert exc.value.line_no == 6
    assert "(2, 2)" in str(exc.value)


@pytest.mark.parametrize(
    "line",
    ["2 2\r", "2\t2", "2  2", " 2 2", "2 2 ", "+2 2", "2 +2", "1_0 2", "2 \u0663", "02 2", "2 02"],
)
def test_parse_rejects_non_canonical_lines(line):
    # each of these read as a point before the grammar was exact
    text = f"{MAGIC}\nn=10 k=2 reserve=0 seed=none\n1 1\n{line}\n3 3\n"
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.line_no == 4


# 1 to 10 digits: sides of 5 to 9 digits read through int32, 10 through int64
_SIDES = [1, 9, 10, 11, 99, 100, 101, 1000, 32_768, 100_000, 10**6, 12_345_678, 999_999_999,
          MAX_SIDE]
_EDIT_CHARS = "0123456789 \n\r\t+_\u00e9\u0663"


@st.composite
def _sided_point_sets(draw):
    n = draw(st.sampled_from(_SIDES))
    coord = st.integers(1, n)
    return PointSet.from_points(n, draw(st.sets(st.tuples(coord, coord), max_size=12)))


@given(points=_sided_point_sets(), final_newline=st.booleans())
@settings(max_examples=100, deadline=None)
def test_parse_reads_back_every_serialized_set(points, final_newline):
    text = serialize(points, k=3, reserve=None, seed=5)
    parsed = parse(text if final_newline else text[:-1])
    assert parsed.points == points
    assert (parsed.k, parsed.reserve, parsed.seed) == (3, None, 5)


@st.composite
def _point_files(draw):
    """A file that `serialize` writes, maybe without its final newline,
    maybe with one character inserted, deleted or replaced in the body."""
    points = draw(_sided_point_sets())
    text = serialize(points, draw(st.integers(0, 9)), draw(st.none() | st.integers(0, 9)), 5)
    if draw(st.booleans()):
        text = text[:-1]
    # the body starts after the second newline (or nowhere, if it is gone)
    start = text.find("\n", len(MAGIC) + 1) + 1 or len(text)
    edit = draw(st.sampled_from(["none", "insert", "delete", "replace"]))
    if edit == "insert":
        at = draw(st.integers(start, len(text)))
        text = text[:at] + draw(st.sampled_from(_EDIT_CHARS)) + text[at:]
    elif edit != "none" and start < len(text):
        at = draw(st.integers(start, len(text) - 1))
        new = draw(st.sampled_from(_EDIT_CHARS)) if edit == "replace" else ""
        text = text[:at] + new + text[at + 1 :]
    return text


def _outcome(reader, text):
    try:
        return reader(text)
    except ParseError as exc:
        return exc.line_no


@given(text=_point_files())
@settings(max_examples=400, deadline=None)
def test_parse_agrees_with_line_by_line_oracle(text):
    assert _outcome(parse, text) == _outcome(parse_by_lines, text)


def _read_bytes(text):
    return read_points(io.BytesIO(text.encode("utf-8", "surrogatepass")))


def _outcome_with_message(reader, text):
    try:
        return reader(text)
    except ParseError as exc:
        return exc.line_no, str(exc)


@given(text=_point_files(), chunk=st.sampled_from([1, 2, 3, 7]))
@settings(max_examples=300, deadline=None)
def test_read_points_in_small_chunks_agrees_with_line_by_line_oracle(text, chunk):
    # chunks end inside the header, inside a token and on a separator
    with mock.patch.object(pointfile, "_READ_CHUNK", chunk):
        outcome = _outcome_with_message(_read_bytes, text)
    assert outcome == _outcome_with_message(parse_by_lines, text)


# the first and last number of each digit count up to MAX_SIDE's ten, and
# either side of the int16 and int32 limits
_WIDTH_EDGES = sorted(
    {10**d - 1 for d in range(1, 10)} | {10**d for d in range(10)}
    | {2**15 - 1, 2**15, 2**31 - 1, 2**31, MAX_SIDE}
)


@pytest.mark.parametrize("n", _WIDTH_EDGES)
def test_parse_reads_back_coordinates_of_every_digit_count(n):
    coords = [v for v in _WIDTH_EDGES if v <= n]
    points = PointSet.from_points(n, [(x, y) for x in coords for y in coords[-3:]])
    text = serialize(points, k=2)
    assert parse(text).points == points
    with mock.patch.object(pointfile, "_READ_CHUNK", 7):
        assert _read_bytes(text).points == points


@pytest.mark.parametrize("n", [4, 9_999, 99_999, MAX_SIDE])
@pytest.mark.parametrize("line", ["9" * 65536 + "12 1", "1 " + "9" * 65536 + "12"])
def test_parse_rejects_a_token_whose_length_wraps_a_narrow_integer(n, line):
    # 65,538 digits are 2 in a 16- or 8-bit length; read as the token's
    # last digits it would be the coordinate 12
    token = r"\d+(\[65458 more\]\d+)?"
    with pytest.raises(ParseError, match=rf"^line 4: point \({token}, {token}\) outside") as exc:
        parse(f"{MAGIC}\nn={n} k=2 reserve=0 seed=none\n1 1\n{line}\n2 2\n")
    assert exc.value.line_no == 4
    assert "[65458 more]" in str(exc.value)


def test_parse_reports_a_coordinate_too_long_for_int_at_its_line():
    # int() converts at most 4,300 digits; the message quotes the
    # canonical token by its first and last 40 digits
    text = f"{MAGIC}\nn=4 k=2 reserve=0 seed=none\n1 1\n2 2\n{'9' * 5000} 5\n"
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.line_no == 5
    assert str(exc.value) == f"line 5: point ({'9' * 40}[4920 more]{'9' * 40}, 5) outside [1,4]^2"


_BODY = f"{MAGIC}\nn=4 k=2 reserve=0 seed=none\n"
_LONG = "9" * 65536 + "12"
_HEAD = f"n=4 k=2 reserve=0 seed={'1' * 100000}x"


@pytest.mark.parametrize(
    "text, message",
    [
        # a point out of range quotes each token whole up to 80 characters
        (f"{_BODY}1 1\n{_LONG} 1\n",
         f"line 4: point ({'9' * 40}[65458 more]{'9' * 38}12, 1) outside [1,4]^2"),
        (f"{_BODY}1 1\n4 {'9' * 80}\n", f"line 4: point (4, {'9' * 80}) outside [1,4]^2"),
        # a line that breaks the grammar is quoted whole up to 80 characters
        (f"{_BODY}1 1\n{_LONG} x\n",
         f"line 4: expected 'x y' as canonical decimals, got '{'9' * 40}[65460 more]{'9' * 36}12 x'"),
        (f"{_BODY}1 {'9' * 76} x\n",
         f"line 3: expected 'x y' as canonical decimals, got '1 {'9' * 76} x'"),
        # and so is a header line
        (f"{MAGIC}\n{_HEAD}\n",
         "line 2: expected 'n=<n> k=<k> reserve=<h|unknown> seed=<seed|none>' as canonical "
         f"decimals, got '{_HEAD[:40]}[{len(_HEAD) - 80} more]{_HEAD[-40:]}'"),
    ],
    ids=["point", "point-80", "grammar", "grammar-80", "header"],
)
def test_parse_quotes_a_long_line_by_a_bounded_excerpt(text, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == message
    assert len(str(exc.value)) < 200


def test_serialize_peak_memory_is_at_most_6_bytes_per_byte_of_text():
    n, k = 400, 240
    xs = np.repeat(np.arange(1, n + 1), k)
    ys = (xs + np.tile(np.arange(k), n)) % n + 1
    points = PointSet.from_xy(n, xs, ys)
    tracemalloc.start()
    try:
        text = serialize(points, k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(text.split("\n")) == 2 + k * n + 1
    assert peak <= 6 * len(text)


def test_read_points_peak_memory_is_one_key_array_and_a_few_chunks(tmp_path):
    n, k = 1603, 933
    xs = np.repeat(np.arange(1, n + 1), k)
    ys = (xs + np.tile(np.arange(k), n)) % n + 1
    path = tmp_path / "points.txt"
    with open(path, "wb") as file:
        write_points(file, PointSet.from_xy(n, xs, ys), k)
    del xs, ys
    tracemalloc.start()
    try:
        with open(path, "rb") as file:
            parsed = read_points(file)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(parsed.points) == k * n and path.stat().st_size > 12 * 2**20
    # the keys are 11.4 MiB, grown in place chunk by chunk and adopted by
    # the PointSet, and the peak measured 16.4 MiB; the bound leaves room
    # for a few 1 MiB chunks' arrays, not for a second copy of the keys
    assert peak <= 20 * 2**20


def test_parse_peak_memory_is_at_most_16_bytes_per_byte_of_text():
    n, k = 400, 240
    xs = np.repeat(np.arange(1, n + 1), k)
    ys = (xs + np.tile(np.arange(k), n)) % n + 1
    text = serialize(PointSet.from_xy(n, xs, ys), k)
    tracemalloc.start()
    try:
        parsed = parse(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(parsed.points) == k * n
    assert peak <= 16 * len(text)
