"""HGPT block algebra: conversions, transformation laws, forward model.

Run:  python3 demos/06_hgpt_algebra.py
"""

import math

import numpy as np

from hgptsym import hgpt
from hgptsym import invariants as inv
from hgptsym import symgroups as sg
from hgptsym.harmonics import monomials_of_degree

rng = np.random.default_rng(7)

# ---------------------------------------------------------------------------
# From raw polarizability coefficients (monomial basis) to a real HGPT
# block.  A diagonal rank-2 tensor stays diagonal in the harmonic basis.
# ---------------------------------------------------------------------------
monos = monomials_of_degree(1)
d = {(1, 0, 0): 2.0, (0, 1, 0): 3.0, (0, 0, 1): 5.0}
G = hgpt.GptCoefficients(1, 1, {(a, b): (d[a] if a == b else 0.0)
                                for a in monos for b in monos})
N, residue = hgpt.hgpt_from_gpt(G)
print("N_11 from diag(2,3,5) GPT (imaginary residue %.1e):" % residue)
print(np.round(N.entries * 12 * math.pi, 12))

# Round trip through the complex (CGPT) compaction is exact.
M = hgpt.cgpt_from_hgpt(N)
N2, _ = hgpt.hgpt_from_cgpt(M)
print("CGPT round-trip error: %.2e" % np.max(np.abs(N2.entries - N.entries)))

# ---------------------------------------------------------------------------
# Transformation laws.  Scaling by s multiplies N_pq by s^(p+q+1); rotating
# the object transforms the block by the real harmonic action matrices.
# ---------------------------------------------------------------------------
print("\nscale by 2 multiplies N_11 by", hgpt.scale(N, 2.0).entries[0, 0]
      / N.entries[0, 0])

R = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1]], dtype=float)  # 4-fold about x3
Nc4 = hgpt.HgptMatrix(1, 1, np.diag([2.0, 2.0, 7.0]))
print("C4-patterned block is a fixed point of the 4-fold rotation:",
      np.max(np.abs(hgpt.rotate(Nc4, R).entries - Nc4.entries)) < 1e-12)

# ---------------------------------------------------------------------------
# Forward measurement model: the voltage between a source and receiver is
# a double sum over blocks weighted by harmonic vectors at the positions.
# It is invariant under a simultaneous rotation of object and positions.
# ---------------------------------------------------------------------------
xr, xs = (0.0, 0.0, 2.0), (1.5, 0.5, 1.0)
v = hgpt.forward_voltage([N], xr, xs)
print("\nV_sr = %.9g" % v)
Q = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
v_rot = hgpt.forward_voltage([hgpt.rotate(N, Q)],
                             np.asarray(xr), np.asarray(xs))
v_mov = hgpt.forward_voltage([N], Q @ np.asarray(xr), Q @ np.asarray(xs))
print("rotation equivariance error: %.2e" % abs(v_rot - v_mov))

# ---------------------------------------------------------------------------
# Symmetry classification: project a measured block onto the pattern a
# group allows and use the removed component as a violation score.
# ---------------------------------------------------------------------------
def residual(block, group_name):
    g = sg.build_group(group_name)
    space = inv.symmetric_product_space(block.p, block.q, block.basis_style)
    pat = inv.coefficient_pattern(inv.invariant_subspace(space, g))
    return hgpt.apply_pattern(block, pat)[1]

noisy = hgpt.HgptMatrix(1, 1, Nc4.entries + 0.01 * rng.normal(size=(3, 3)))
print("\nviolation scores of a noisy C4-symmetric block:")
for name in ("C2", "C4", "O"):
    print("   %-3s %.4f" % (name, residual(noisy, name)))
