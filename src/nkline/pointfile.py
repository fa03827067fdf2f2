"""The nkline v1 point-set file format.

Line 1:  nkline v1
Line 2:  n=<n> k=<k> reserve=<h|unknown> seed=<seed|none>
Body:    one "x y" pair per line, 1-indexed, sorted ascending by (x, y).

The exact grammar, over the bytes of the file (of a str, its UTF-8
encoding; ABNF,
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

`read_points` reads the file from a binary file object in chunks of
`_READ_CHUNK` bytes (1 MiB), each cut after its last LF, and carries the
partial line and the line count into the next.  Per chunk, one compare
finds every byte below "0", and the tokens' digits are gathered column
by column and summed by Horner in int16, int32 or int64, the narrowest
type that holds n's digit count.  So it holds the keys (8 bytes a
point), which the PointSet adopts, and a few chunks' arrays.  `parse`
is `read_points` over a str's encoding; a byte that is not UTF-8 is a
stray byte at its line.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass
from functools import cache, partial
from typing import Optional

import numpy as np

from .grid import MAX_SIDE, PointSet, _check_int, _narrowest_int

MAGIC = "nkline v1"

_MAGIC = MAGIC.encode()
_LF, _SP, _ZERO, _NINE = 0x0A, 0x20, 0x30, 0x39
_WORD = np.dtype("<u4")  # little-endian: byte i of a word holds bits 8i..8i+7
_CHUNK = 16384  # points per body write; 8k-128k measured alike, less holds less
_READ_CHUNK = 1 << 20  # bytes per read of `read_points`
_PAD = len(str(MAX_SIDE)) + 1  # bytes carried before a partial line: an LF, a widest token
_QUOTE = 80  # longest line, or token, that a ParseError quotes whole

_INTEGER = "0|-?[1-9][0-9]*"
_HEADER = re.compile(
    f"n=(0|[1-9][0-9]*) k=({_INTEGER}) reserve=({_INTEGER}|unknown) seed=({_INTEGER}|none)".encode()
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
    """The point set of the nkline v1 text `text`, in any order, checked
    against the grammar of the module docstring: the header's four
    fields as canonical decimals, n in [1, MAX_SIDE], then one "x y" of
    canonical decimals in [1, n] per line, no point twice.  A ParseError
    names the first line that breaks the grammar or a range, else the
    line where a point first repeats.  It is one call of `read_points`
    on the text's UTF-8 encoding, made once (a lone surrogate encodes as
    bytes >= 0x80, a stray byte)."""
    return read_points(io.BytesIO(text.encode("utf-8", "surrogatepass")))


def read_points(file) -> ParsedPointSet:
    """The point set of the nkline v1 file `file`, a binary file object,
    read `_READ_CHUNK` bytes at a time, with the checks and messages of
    `parse`.  Each read is cut after its last LF; the partial line after
    it, with the `_PAD` bytes before it, is carried into the next read,
    and the header is read from the first two lines.  The body's keys
    are built chunk by chunk into one array that grows in place
    (`_extend`), and the PointSet adopts it, so what the reader holds
    beyond the keys is a few chunks.  A BytesIO over bytes shares them,
    and reads them back whole when they fit in one chunk, so `parse`
    copies nothing more."""
    header, start, parts = None, 0, []
    keys = np.empty(0, np.int64)
    # parts[0] holds `start` bytes already read, then the partial line
    for chunk in iter(partial(file.read, _READ_CHUNK), b""):
        parts.append(chunk)
        if chunk.find(b"\n") < 0:
            continue
        data = b"".join(parts) if len(parts) > 1 else chunk
        if header is None:
            if data.find(b"\n", data.find(b"\n") + 1) < 0:
                parts = [data]  # line 2 has not ended
                continue
            header, start = _read_header(data)
        end = data.rfind(b"\n") + 1
        if end > start:
            keys = _extend(keys, _read_lines(data, start, end, header[0], 3 + keys.size))
        # the body starts 35 bytes in or more, so _PAD bytes precede `end`
        parts, start = [data[end - _PAD :]], _PAD
    data = b"".join(parts)
    if header is None:
        header, start = _read_header(data)
    if len(data) > start:  # the final LF may be missing
        last = _read_lines(data + b"\n", start, len(data) + 1, header[0], 3 + keys.size)
        keys = _extend(keys, last)
    n, k, reserve, seed = header
    # the keys are the reader's own, so the set adopts them when they are
    # in order; it sorts a copy of keys that are not and drops repeats,
    # so a repeat is looked for, in file order, only when the set comes
    # out short
    points = PointSet._adopt(n, keys)
    if len(points) < keys.size:
        # a stable sort puts each repeat after its first occurrence
        order = np.argsort(keys, kind="stable")
        again = order[1:][keys[order[1:]] == keys[order[:-1]]]
        i = int(again.min())
        x, y = divmod(int(keys[i]), n)
        raise ParseError(f"duplicate point ({x + 1}, {y + 1})", 3 + i)
    return ParsedPointSet(points=points, k=k, reserve=reserve, seed=seed)


def _extend(keys: np.ndarray, more: np.ndarray) -> np.ndarray:
    """`keys` followed by `more`, both int64 arrays that own their data
    and have no views: `keys` grows in place, by a realloc, which moves
    the pages of a large array rather than copying them, so the reader
    never holds its keys twice."""
    if not keys.size:
        return more
    size = keys.size
    keys.resize(size + more.size, refcheck=False)
    keys[size:] = more
    return keys


def _read_header(data: bytes) -> tuple[tuple, int]:
    """((n, k, reserve, seed), where the body starts) from the first two
    lines of `data`, which holds both whole or is all of the file."""
    magic_end = data.find(b"\n")
    if data[: magic_end if magic_end >= 0 else len(data)] != _MAGIC:
        raise ParseError(f"expected header {MAGIC!r}", 1)
    if magic_end < 0:
        raise ParseError("missing parameter line", 2)
    end = data.find(b"\n", magic_end + 1)
    if end < 0:
        end = len(data)
    line = data[magic_end + 1 : end]
    fields = _HEADER.fullmatch(line)
    if fields is None:
        raise ParseError(
            f"expected 'n=<n> k=<k> reserve=<h|unknown> seed=<seed|none>' "
            f"as canonical decimals, got {_excerpt(_text(line))!r}",
            2,
        )
    try:
        n, k, reserve, seed = (
            None if value in (b"unknown", b"none") else int(value) for value in fields.groups()
        )
    except ValueError as exc:  # more digits than int() converts
        raise ParseError(str(exc), 2) from None
    if not 1 <= n <= MAX_SIDE:
        raise ParseError(f"grid side n={n} outside [1, {MAX_SIDE}]", 2)
    return (n, k, reserve, seed), min(end + 1, len(data))


def _read_lines(data: bytes, start: int, end: int, n: int, line_no: int) -> np.ndarray:
    """The int64 keys (x - 1) * n + (y - 1) of the whole lines
    data[start:end], the first of them line `line_no` of the file,
    checked against the grammar on whole arrays.  data[start - 1] is the
    LF that ends the line before, and the `width` bytes before that may
    be any: a token's digit columns read them, and multiply them by 0.
    Each check looks only at the lines above the first bad line found so
    far, so the line reported is the first that fails any check."""
    width = len(str(n))
    padded = np.frombuffer(data, np.uint8, end - start + 1 + width, start - 1 - width)
    b = padded[width:]
    # token t runs from seps[t] + 1 to its separator seps[t + 1], a space
    # after an x and an LF after a y; every other byte below "0" breaks
    # the alternation, and every byte above "9" is stray
    seps = np.flatnonzero(b < _ZERO)
    kinds = b.take(seps[1:])
    # line i is well split iff kinds[2i], kinds[2i + 1] are SP, LF: one
    # little-endian uint16.  With an odd count and every pair right, the
    # last line holds one separator
    wrong = kinds[: kinds.size & ~1].view("<u2") != _SP | _LF << 8
    bad = int(np.argmax(wrong)) if wrong.any() else kinds.size // 2
    if b.max() > _NINE:
        stray = np.searchsorted(seps[1:], np.argmax(b > _NINE))
        bad = min(bad, np.count_nonzero(kinds[:stray] == _LF))
    seps = seps[: 2 * bad + 1]
    ends = seps[1:]
    # a token is its gap - 1 bytes; the gap is capped at width + 2 in intp
    # before it is narrowed, since a narrow gap would wrap
    gaps = np.empty(ends.size, np.uint8)
    np.minimum(ends - seps[:-1], width + 2, out=gaps, casting="unsafe")
    # Horner over the `width` byte columns that end at each separator, in
    # the narrowest type that holds 10**width - 1; a column left of its
    # token counts 0
    values = np.zeros(ends.size, _narrowest_int(10**width - 1))
    for column in range(width, 0, -1):
        digits = padded[width - column :].take(ends)
        digits -= _ZERO
        digits *= gaps > column
        values *= 10
        values += digits
    # a token's first byte, its separator if it is empty, must be 1-9
    bad = _first_line(b[1:].take(seps[:-1]) <= _ZERO, bad)
    # a canonical decimal longer than n's is larger than n
    out_of_range = _first_line(((gaps > width + 1) | (values > n))[: 2 * bad], bad)
    i = min(bad, out_of_range)
    if 2 * i < kinds.size:  # else every line held its two tokens and passed
        line_ends = np.flatnonzero(b == _LF)
        line = _text(bytes(b[line_ends[i] + 1 : line_ends[i + 1]]))
        if bad <= out_of_range:
            raise ParseError(
                f"expected 'x y' as canonical decimals, got {_excerpt(line)!r}", line_no + i
            )
        # canonical decimals: each token is its number's own digits
        x, y = map(_excerpt, line.split(" "))
        raise ParseError(f"point ({x}, {y}) outside [1,{n}]^2", line_no + i)
    keys = np.multiply(values[0::2], n, dtype=np.int64)
    keys += values[1::2]
    keys -= n + 1
    return keys


def _first_line(token_mask: np.ndarray, bad: int) -> int:
    """The line of the first token flagged in `token_mask`, else `bad`."""
    return int(np.argmax(token_mask)) // 2 if token_mask.any() else bad


def _excerpt(text: str) -> str:
    """`text` for a message: whole up to `_QUOTE` characters, else its
    first and last _QUOTE // 2 around the count of those left out, so a
    message stays short however long the line it quotes."""
    if len(text) <= _QUOTE:
        return text
    half = _QUOTE // 2
    return f"{text[:half]}[{len(text) - 2 * half} more]{text[-half:]}"


def _text(line: bytes) -> str:
    """`line` for a message: the str that `parse` encoded, else with each
    byte that is not UTF-8 escaped."""
    try:
        return line.decode("utf-8", "surrogatepass")
    except UnicodeDecodeError:
        return line.decode("utf-8", "backslashreplace")
