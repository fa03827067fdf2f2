"""Build a maximum no-(k+1)-in-line set the direct way and certify it.

For k >= 2n/3 the complement construction is deterministic: two
(n-k)-square blocks shadow the main diagonals and a circulant factor
fills the untouched rows and columns.  The result has exactly k points
in every row, column, and at most k on every other line.
"""

from nkline import explicit_construct, parse, serialize, verify

n, k = 16, 11
s = explicit_construct(n, k)
print(f"built {len(s)} points on [1,{n}]^2 (k*n = {k * n})")

report = verify(s, k, reserve=0)
print(report.summary())

# the worst line is an actual witness: recount it by hand
d, c = report.worst_line
on_line = [(x, y) for (x, y) in s.sorted_xy() if d.vy * x - d.vx * y == c]
print(f"worst line has {len(on_line)} points; bound is k = {k}")

# file round-trip
text = serialize(s, k, reserve=0, seed=None)
back = parse(text)
assert back.points == s
print(f"serialized to {len(text.splitlines())} lines and parsed back identically")
