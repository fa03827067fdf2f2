"""Round-trip and error-reporting tests for the point-set file format."""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nkline.grid import MAX_SIDE, PointSet
from nkline.pointfile import MAGIC, ParseError, parse, serialize
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


_SIDES = [1, 9, 10, 11, 99, 100, 101, 1000, MAX_SIDE]
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
