"""
Counting the coefficient states behind a (b0, b1) pair
======================================================

Many different spectra (m_0, m_1, ...) produce the same component and hole
totals.  Two counting conventions coexist: treating the components as
distinguishable boxes (ordered compositions, what the closed formulas count)
or as interchangeable (coefficient vectors).  They agree off the diagonal
and split on it.
"""

from fieldtopo import count_all, enumerate_vector_states

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
_, states = enumerate_vector_states(4, 4, return_states=True)
for vec in sorted(states, reverse=True):
    terms = " + ".join(f"{m} x Q_{j}" for j, m in enumerate(vec) if m)
    print(f"  (m_0..m_4) = {vec}   i.e. {terms}")
print("""
note (2, 0, 2, 0, 0) - two plain components plus two double-holed ones -
which the n-states-on-the-diagonal rule misses: on the diagonal the vector
count equals the number of integer partitions of n, not n itself.
""")
