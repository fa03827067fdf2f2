"""The nkline v1 point-set file format.

Line 1:  nkline v1
Line 2:  n=<n> k=<k> reserve=<h|unknown> seed=<seed|none>
Body:    one "x y" pair per line, 1-indexed, sorted ascending by (x, y).

The exact grammar, over the bytes of the file's UTF-8 encoding (ABNF,
string literals case-sensitive, LF = %x0A, SP = %x20, DIGIT =
%x30-39):

    file    = "nkline v1" LF header [LF body]
    header  = "n=" natural SP "k=" integer SP
              "reserve=" (integer / "unknown") SP "seed=" (integer / "none")
    natural = "0" / %x31-39 *DIGIT
    integer = natural / "-" %x31-39 *DIGIT
    body    = *(point LF) [point]
    point   = coord SP coord
    coord   = %x31-39 *DIGIT

So the header holds its four fields once each, in this order, split by
single spaces, and every number in the file is a canonical ASCII
decimal: no other whitespace (no CR, no tab), no "+", no digit
separator, no leading zero, no "-0".  The side n lies in [1, MAX_SIDE],
every coordinate in [1, n], and no point repeats.  `write_points` writes
the points in ascending order; `parse` accepts any order.  A ParseError
names the first line that breaks the grammar or a range; failing those,
the line where a point first repeats.

Plain 7-bit text with \n newlines; serialize/parse round-trips exactly.

`write_points` writes the file as bytes to a binary file object: the
header, then the body one chunk of `_CHUNK` points at a time, into
buffers allocated once per call, so what it holds beyond the set is
about a MiB however many points there are.
`serialize` is `write_points` into memory, decoded once to a str.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass
from functools import cache
from typing import Optional

import numpy as np

from .grid import MAX_SIDE, PointSet, _check_int

MAGIC = "nkline v1"

_LF, _SP, _ZERO = 0x0A, 0x20, 0x30
_WORD = np.dtype("<u4")  # little-endian: byte i of a word holds bits 8i..8i+7
_CHUNK = 16384  # points per body write; 8k-128k measured alike, less holds less

_INTEGER = "0|-?[1-9][0-9]*"
_HEADER = re.compile(
    f"n=(0|[1-9][0-9]*) k=({_INTEGER}) reserve=({_INTEGER}|unknown) seed=({_INTEGER}|none)"
)


class ParseError(ValueError):
    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class ParsedPointSet:
    points: PointSet
    k: int
    reserve: Optional[int]
    seed: Optional[int]


def write_points(
    file,
    points: PointSet,
    k: int,
    reserve: Optional[int] = None,
    seed: Optional[int] = None,
) -> None:
    """Write the nkline v1 file of `points` to the binary file object
    `file`: the header, then the body `_CHUNK` points at a time, into
    buffers allocated once per call at one chunk's size, so the memory
    it holds beyond `points` does not grow with the set.  Each
    coordinate is gathered group by group from the tables of
    `_group_words`, its last group from the tables with its separator
    in place, and one `bytes.translate` per chunk drops the NUL bytes.
    k, and reserve and seed when given, must be integers; they are
    checked before anything is written."""
    _check_int(k=k)
    if reserve is not None:
        _check_int(reserve=reserve)
    if seed is not None:
        _check_int(seed=seed)
    reserve_s = "unknown" if reserve is None else str(reserve)
    seed_s = "none" if seed is None else str(seed)
    n = points.n
    file.write(f"{MAGIC}\nn={n} k={k} reserve={reserve_s} seed={seed_s}\n".encode("ascii"))
    lead, padded = _group_words()
    # each coordinate is `width` 3-digit groups, most significant first, one
    # word each; a group's zeros lead only if no group above it is nonzero,
    # and the last group's byte 3 holds the separator after the coordinate
    width = (len(str(n)) + 2) // 3
    tagged = (_group_words(_SP), _group_words(_LF))
    size = min(_CHUNK, len(points))
    xs, ys = np.empty(size, np.int64), np.empty(size, np.int64)
    parts = np.empty(size, np.int64) if width > 1 else None
    words = np.empty((size, 2, width), _WORD)
    for start in range(0, len(points), _CHUNK):
        keys = points.keys[start : start + _CHUNK]
        count = len(keys)
        x, y, chunk = xs[:count], ys[:count], words[:count]
        np.floor_divide(keys, n, out=x)
        np.multiply(x, n, out=y)
        np.subtract(keys, y, out=y)
        x += 1
        y += 1
        for column, (high, tables) in enumerate(zip((x, y), tagged)):
            # only the last group's tables carry the separator
            for g in range(width - 1, 0, -1):
                part = parts[:count]
                np.remainder(high, 1000, out=part)
                high //= 1000
                chunk[:, column, g] = np.where(high > 0, tables[1][part], tables[0][part])
                tables = lead, padded
            np.take(tables[0], high, out=chunk[:, column, 0])
        # drops the leading zeros and the empty byte 3 of every group but the last
        file.write(chunk.tobytes().translate(None, b"\0"))


def serialize(
    points: PointSet,
    k: int,
    reserve: Optional[int] = None,
    seed: Optional[int] = None,
) -> str:
    """The nkline v1 text of `points`, as `write_points` writes it."""
    buffer = io.BytesIO()
    write_points(buffer, points, k, reserve, seed)
    return buffer.getvalue().decode("ascii")


@cache
def _group_words(separator: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(lead, padded): for each v in [0, 1000), the word whose bytes 0-2
    are v's three digits, most significant first, and whose byte 3 is
    `separator`: NUL for every group but a coordinate's last, which the
    separator follows.  `lead` writes leading zeros as NUL (bytes 0-2
    of lead[0] are NUL); `padded` keeps them."""
    v = np.arange(1000)[:, None]
    place = np.array([100, 10, 1])
    digits = (v // place % 10 + _ZERO) << np.array([0, 8, 16])
    tag = separator << 24
    lead = (np.where(v < place, 0, digits).sum(axis=1) + tag).astype(_WORD)
    padded = (digits.sum(axis=1) + tag).astype(_WORD)
    lead.flags.writeable = padded.flags.writeable = False
    return lead, padded


def parse(text: str) -> ParsedPointSet:
    head = text.split("\n", 2)
    if head[0] != MAGIC:
        raise ParseError(f"expected header {MAGIC!r}", 1)
    if len(head) < 2:
        raise ParseError("missing parameter line", 2)
    fields = _HEADER.fullmatch(head[1])
    if fields is None:
        raise ParseError(
            f"expected 'n=<n> k=<k> reserve=<h|unknown> seed=<seed|none>' "
            f"as canonical decimals, got {head[1]!r}",
            2,
        )
    try:
        n, k, reserve, seed = (
            None if value in ("unknown", "none") else int(value) for value in fields.groups()
        )
    except ValueError as exc:  # more digits than int() converts
        raise ParseError(str(exc), 2) from None
    if not 1 <= n <= MAX_SIDE:
        raise ParseError(f"grid side n={n} outside [1, {MAX_SIDE}]", 2)
    # surrogatepass: any str encodes; a non-ASCII character is bytes >= 0x80
    data = text.encode("utf-8", "surrogatepass")
    start = len(head[0]) + len(head[1]) + 2  # both lines are ASCII
    del head  # its last item is a copy of the body
    return ParsedPointSet(points=_parse_body(data, start, n), k=k, reserve=reserve, seed=seed)


def _parse_body(data: bytes, start: int, n: int) -> PointSet:
    """The points of the body data[start:], checked against the grammar
    on whole arrays.

    Each check looks only at the lines above the first bad line found so
    far, so the line reported is the first that fails any check.
    """
    if len(data) > start and not data.endswith(b"\n"):
        data += b"\n"  # the final LF may be missing
    width = len(str(n))
    # the header, longer than any width, gives every token `width` byte
    # columns to read
    padded = np.frombuffer(data, np.uint8)[start - width :]
    b = padded[width:]
    # token t ends at seps[t]: a space after an x, an LF after a y
    seps = np.flatnonzero((b == _SP) | (b == _LF))
    kinds = b[seps]
    lines = bad = np.count_nonzero(kinds == _LF)
    if seps.size + np.count_nonzero(b - _ZERO < 10) < b.size:
        stray = np.flatnonzero((b - _ZERO > 9) & (b != _SP) & (b != _LF))[0]
        bad = np.count_nonzero(b[:stray] == _LF)
    # lines above `bad` end in an LF, so their separators alternate SP, LF
    wrong = kinds[: 2 * bad] != _SP
    wrong[1::2] = kinds[1 : 2 * bad : 2] != _LF
    bad = _first_line(wrong, bad)
    seps = seps[: 2 * bad]
    lengths = seps.copy()  # seps[t] - seps[t - 1] - 1, with seps[-1] = -1
    lengths[1:] -= seps[:-1]
    lengths[1:] -= 1
    bad = _first_line((lengths == 0) | (b[seps - lengths] == _ZERO), bad)
    seps, lengths = seps[: 2 * bad], lengths[: 2 * bad]
    # Horner over the `width` byte columns before each separator, where a
    # column left of its token reads as "0"
    values = np.zeros(seps.size, np.int64)
    for column in range(width):
        digits = padded[column:].take(seps)
        np.copyto(digits, _ZERO, where=lengths < width - column)
        values *= 10
        values += digits
    values -= _ZERO * ((10**width - 1) // 9)
    # a canonical decimal longer than n's is larger than n
    out_of_range = _first_line((lengths > width) | (values > n), bad)
    if min(bad, out_of_range) < lines:
        i = min(bad, out_of_range)
        line_ends = np.flatnonzero(b == _LF)
        first = int(line_ends[i - 1]) + 1 if i else 0
        line = bytes(b[first : line_ends[i]]).decode("utf-8", "surrogatepass")
        if bad <= out_of_range:
            raise ParseError(f"expected 'x y' as canonical decimals, got {line!r}", 3 + i)
        x, y = map(int, line.split(" "))
        raise ParseError(f"point ({x}, {y}) outside [1,{n}]^2", 3 + i)
    del seps, lengths
    keys = values[0::2]  # (x - 1) * n + (y - 1), in place
    keys -= 1
    keys *= n
    keys += values[1::2]
    keys -= 1
    # PointSet sorts keys that are out of order and drops repeats, so a
    # repeat is looked for only when the set comes out short
    points = PointSet(n, keys)
    if len(points) < keys.size:
        # a stable sort puts each repeat after its first occurrence
        order = np.argsort(keys, kind="stable")
        again = order[1:][keys[order[1:]] == keys[order[:-1]]]
        i = int(again.min())
        x, y = divmod(int(keys[i]), n)
        raise ParseError(f"duplicate point ({x + 1}, {y + 1})", 3 + i)
    return points


def _first_line(token_mask: np.ndarray, bad: int) -> int:
    """The line of the first token flagged in `token_mask`, else `bad`."""
    return int(np.argmax(token_mask)) // 2 if token_mask.any() else bad
