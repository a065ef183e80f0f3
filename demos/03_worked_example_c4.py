"""The averaging-projector algorithm on S_11 under the 4-fold cyclic group.

Every step runs in exact rational arithmetic.

Run:  python3 demos/03_worked_example_c4.py
"""

from hgptsym import invariants as inv
from hgptsym import symgroups as sg

g = sg.build_group("C4")

# S_11 is spanned by x_i y_i on the diagonal and x_i y_j + x_j y_i off it,
# ordered by the index pairs (i, j), i <= j.
space = inv.symmetric_product_space(1, 1)
print("S_11 basis (index pairs %s):" % (space.index_map,))
for b in space.basis:
    print("   ", b.to_text())

# One action matrix per group element: row i holds the coefficients of
# basis[i] composed with R, expanded back in the basis.
print("\naction matrices:")
for E in g.exact_elements:
    P = inv.action_matrix(space, E)
    print("   ", [[str(v) for v in row] for row in P])

# Their average is the projector onto the fixed subspace; its trace is the
# dimension of that subspace.
M = inv.averaging_projector(space, g)
print("\nM_pi:")
for row in M:
    print("   ", [str(v) for v in row])
print("trace =", sum(M[i][i] for i in range(space.dim)))

# The first trace-many independent rows of M_pi applied to the basis give
# a canonical basis of the fixed subspace.
sub = inv.invariant_subspace(space, g)
print("\nfixed subspace (dimension %d):" % sub.dimension)
for b in sub.basis:
    print("   ", b.to_text())

# Translated to HGPT coefficients: which entries of N_11 survive C4
# symmetry, and which are tied together.
pat = inv.coefficient_pattern(sub)
print("\nindependent coefficients:", pat.independent)
print("tied:", pat.relations)
print("zero:", pat.zero)
