"""Katsura systems: from a pair of integer matrices to an automaton and
its K-groups.

A is the adjacency matrix (edges e_{i,j,m}, 0 <= m < A_ij, from j to i);
B drives the restrictions through the division B_ij + m = l*A_ij + n.
K-theory comes from exact Smith normal forms of I-A and I-B.
"""

from selfsim import (
    IntMatrix,
    compute_nucleus,
    format_spec,
    katsura_automaton,
    katsura_ktheory,
    kernel,
    cokernel,
    smith_normal_form,
)
from selfsim.specfile import spec_of_automaton

A = IntMatrix.of([[2, 1], [2, 2]])
B = IntMatrix.of([[1, 0], [1, 1]])

aut = katsura_automaton(A, B)
assert aut.violations == []
print(format_spec(spec_of_automaton(aut)))

nuc = compute_nucleus(aut)
print("nucleus size:", len(nuc), "states:", sorted(nuc.state_names()))

ident = IntMatrix.identity(2)
for name, m in [("I-A", ident - A), ("I-B", ident - B)]:
    res = smith_normal_form(m)
    print(f"SNF({name}): diagonal {res.diagonal()}   "
          f"coker = {cokernel(m)}   ker = {kernel(m)}")

k0, k1 = katsura_ktheory(A, B)
print("K0 =", k0, "  K1 =", k1)

# Larger B entries give longer restriction words a_j^l:
big = katsura_automaton(IntMatrix.of([[2]]), IntMatrix.of([[5]]))
rule = big.generators["a1"].rules
print("A=[[2]], B=[[5]] rules:",
      {e: (img, r.name()) for e, (img, r) in sorted(rule.items())})
print("K-theory:", tuple(str(k) for k in katsura_ktheory(
    IntMatrix.of([[2]]), IntMatrix.of([[5]]))))
