"""
Counting the coefficient states behind a (b0, b1) pair
======================================================

Many different spectra (m_0, m_1, ...) produce the same component and hole
totals.  Two counting conventions coexist: treating the components as
distinguishable boxes (ordered compositions, what the closed formulas count
off the diagonal) or as interchangeable (coefficient vectors, a partition
number).  The vector count never exceeds the composition count and falls
below it as soon as b0 >= 2 and b1 >= 3, so the formula splits from the
vectors off the diagonal too: (4, 3) has 3 vectors against 4 compositions.
"""

from fieldtopo import count_all, vector_states

print(f"{'(b0, b1)':>10} {'formula':>8} {'vector':>7} {'composition':>12} {'split?':>7}")
for n in range(1, 7):
    c = count_all(n, n)
    print(f"{f'({n}, {n})':>10} {c.formula_count:8d} {c.vector_count:7d} "
          f"{c.composition_count:12d} {'yes' if c.discrepancy else 'no':>7}")
for pair in ((3, 2), (4, 3), (2, 5), (6, 3), (3, 8)):
    c = count_all(*pair)
    print(f"{str(pair):>10} {c.formula_count:8d} {c.vector_count:7d} "
          f"{c.composition_count:12d} {'yes' if c.discrepancy else 'no':>7}")

print("\nthe five coefficient vectors behind b0 = b1 = 4:")
for vec in sorted(vector_states(count_all(4, 4)), reverse=True):
    terms = " + ".join(f"{m} x Q_{j}" for j, m in enumerate(vec) if m)
    print(f"  (m_0..m_4) = {vec}   i.e. {terms}")
print("""
note (2, 0, 2, 0, 0) - two plain components plus two double-holed ones -
which the n-states-on-the-diagonal rule misses: on the diagonal the vector
count equals the number of integer partitions of n, not n itself.
""")
