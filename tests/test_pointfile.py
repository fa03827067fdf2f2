"""Round-trip and error-reporting tests for the point-set file format."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nkline.grid import PointSet
from nkline.pointfile import MAGIC, ParseError, parse, serialize
from oracles import serialize_by_points


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
