"""Coupling coefficients in the cyclic quantization scheme: 3-jm values,
the f-bar symbol and its symmetry laws.  Spins are passed as doubled
integers, so (1, 1, 2) below means j1 = j2 = 1/2, j3 = 1.
"""

import numpy as np

from mubkit import (basis_change_coeff, cg_alpha, fbar, fbar_conjugation_factor,
                    fbar_table, wigner_3jm)

print("3-jm (1 1 0; 1 -1 0) =", wigner_3jm(2, 2, 0, 2, -2, 0),
      " (= 1/sqrt(3))")

tj = (2, 2, 2)   # j1 = j2 = j3 = 1
alpha = (0, 1, 2)
value = fbar(*tj, *alpha)
print(f"\nfbar(j=1,1,1; alpha=0,1,2) = {value:.9f}")

odd = fbar(tj[1], tj[0], tj[2], alpha[1], alpha[0], alpha[2])
sign = (-1) ** (sum(tj) // 2)
print(f"odd column permutation      = {odd:.9f}")
print("parity law (-1)^(j1+j2+j3) satisfied:", abs(odd - sign * value) < 1e-12)

factor = fbar_conjugation_factor(*tj, *alpha)
print("conjugation law satisfied:",
      abs(np.conj(value) - factor * value) < 1e-12)

# the whole table of one triple: one 3-jm tensor, Fourier-weighted once
table = fbar_table(*tj)
print("\nfbar_table(j=1,1,1), indexed [alpha1, alpha2, alpha3]:")
for a1 in range(tj[0] + 1):
    print(f"  alpha1 = {a1}:")
    for row in table[a1].round(4) + 0.0:   # + 0.0 turns -0.0 into 0.0
        print("   ", "  ".join(f"{v.real:+.4f}{v.imag:+.4f}i" for v in row))
print("table entry (0, 1, 2) equals the scalar:", abs(table[alpha] - value) < 1e-12)
# the odd swap of columns 1 and 2, built on its own, over every alpha
swapped = fbar_table(tj[1], tj[0], tj[2])
parity = np.max(np.abs(swapped.transpose(1, 0, 2) - sign * table))
print(f"parity law over all {table.size} alphas, worst residual: {parity:.1e}")
if not parity < 1e-12:
    raise SystemExit("the parity law fails on the table")

print("\ncoupling coefficients in the cyclic scheme (two-qubit singlet):")
print("  alpha = (0, 0):", cg_alpha(1, 1, 0, 0, 0, 0),
      " (zero: the flat phase vector is symmetric)")
print("  alpha = (0, 1):", cg_alpha(1, 1, 0, 1, 0, 0))

d = 4  # j = 3/2
u = np.array([[basis_change_coeff(3, two_m, alpha) for alpha in range(d)]
              for two_m in range(-3, 4, 2)])
print("\nbasis-change unitarity at j = 3/2:",
      float(np.max(np.abs(u.conj().T @ u - np.eye(d)))))
