"""The nkline v1 point-set file format.

Line 1:  nkline v1
Line 2:  n=<n> k=<k> reserve=<h|unknown> seed=<seed|none>
Body:    one "x y" pair per line, 1-indexed, sorted ascending by (x, y).

Plain 7-bit text with \n newlines; serialize/parse round-trips exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grid import MAX_SIDE, PointSet

MAGIC = "nkline v1"


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


def serialize(
    points: PointSet,
    k: int,
    reserve: Optional[int] = None,
    seed: Optional[int] = None,
) -> str:
    reserve_s = "unknown" if reserve is None else str(reserve)
    seed_s = "none" if seed is None else str(seed)
    lines = [MAGIC, f"n={points.n} k={k} reserve={reserve_s} seed={seed_s}"]
    xs, ys = points.xy()
    # one str per coordinate value, and one join per run of equal x
    names = [str(v) for v in range(points.n + 1)]
    ys = ys.tolist()
    starts = np.flatnonzero(np.diff(xs, prepend=0)).tolist()
    for start, end in zip(starts, starts[1:] + [len(ys)]):
        x = names[xs[start]] + " "
        lines.append(x + ("\n" + x).join(map(names.__getitem__, ys[start:end])))
    lines.append("")  # the trailing newline, without a copy of the text
    return "\n".join(lines)


def parse(text: str) -> ParsedPointSet:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != MAGIC:
        raise ParseError(f"expected header {MAGIC!r}", 1)
    if len(lines) < 2:
        raise ParseError("missing parameter line", 2)
    fields = {}
    for token in lines[1].split():
        if "=" not in token:
            raise ParseError(f"malformed token {token!r}", 2)
        key, value = token.split("=", 1)
        fields[key] = value
    for required in ("n", "k", "reserve", "seed"):
        if required not in fields:
            raise ParseError(f"missing field {required!r}", 2)
    try:
        n = int(fields["n"])
        k = int(fields["k"])
    except ValueError as exc:
        raise ParseError(str(exc), 2) from None
    if not 1 <= n <= MAX_SIDE:
        raise ParseError(f"grid side n={n} outside [1, {MAX_SIDE}]", 2)
    reserve = None if fields["reserve"] == "unknown" else _int_field(fields["reserve"], "reserve")
    seed = None if fields["seed"] == "none" else _int_field(fields["seed"], "seed")
    xs, ys = [], []
    for line_no, line in enumerate(lines[2:], start=3):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected 'x y', got {line!r}", line_no)
        try:
            x, y = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer coordinates in {line!r}", line_no) from None
        if not (1 <= x <= n and 1 <= y <= n):
            raise ParseError(f"point ({x}, {y}) outside [1,{n}]^2", line_no)
        xs.append(x)
        ys.append(y)
    point_set = PointSet.from_xy(n, xs, ys)
    if len(point_set) != len(xs):
        raise ParseError("duplicate points in body", len(lines))
    return ParsedPointSet(points=point_set, k=k, reserve=reserve, seed=seed)


def _int_field(value: str, name: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ParseError(f"field {name!r} is not an integer: {value!r}", 2) from None
