"""Fixed reference work, run in a fresh interpreter just before every timed op.

    python3 benchmarks/reference.py

The machine this benchmark runs on is shared: its speed moves by a factor
of about 1.7 in phases of seconds to minutes, for every process alike.  An
op's time divided by the time of this script, run just before it, keeps
the program's cost and cancels most of that drift.  The work resembles the
program's hot paths (exact Fraction arithmetic on small rationals, dicts
keyed by tuples) and never changes; it imports nothing from the program.
"""

from fractions import Fraction

table = {}
for i in range(5000):
    key = (i % 13, i % 7)
    a = Fraction(i % 7 + 1, i % 5 + 2) * Fraction(i % 3 + 1, i % 11 + 1)
    table[key] = table.get(key, 0) + a - Fraction(1, i % 13 + 1)
print(len(table), sum(table.values()))
