"""Shift and clock matrices, generalized Pauli operators, the Pauli
group composition law and the finite sine algebra, all in exact phase
arithmetic.
"""

from fractions import Fraction

from mubkit import (pauli_compose, pauli_element_matrix,
                    pauli_trace_orthogonality, sine_commutator_check,
                    sine_product_check, u_ab, vra_matrix, x_matrix, z_matrix)
from mubkit.cli import matrix_payload, render_document, document
from mubkit.phases import q_power


def show(name, m, d):
    print(f"\n{name}:")
    print(render_document(document("matrix", {"kind": name, "d": d, "r": "0",
                                              "a": 0}, matrix_payload(m)),
                          "pretty").split("\n", 1)[1])


d = 3
x, z = x_matrix(d), z_matrix(d)
show("X", x, d)
show("Z", z, d)
show("XZ", u_ab(d, (1, 1)), d)

print("\nq-commutation X Z == q Z X holds exactly:",
      x @ z == (z @ x).scaled_by(q_power(d, 1)))
print("cyclicity X^3 == Z^3 == identity:",
      x ** 3 == z ** 3 == u_ab(d, (0, 0)))

print("\ntrace orthogonality of all 81 Pauli pairs at d=3, max deviation:",
      pauli_trace_orthogonality(3))

g, h = (1, 2, 1), (0, 1, 2)
composed = pauli_compose(d, g, h)
print(f"\ngroup law: {g} * {h} = {tuple(composed)}")
print("matrix realization agrees exactly:",
      pauli_element_matrix(d, g) @ pauli_element_matrix(d, h)
      == pauli_element_matrix(d, composed))

print("\nV_ra deformation with r = 1/2, a = 1:")
show("vra", vra_matrix(d, Fraction(1, 2), 1), d)

m, n = (1, 0), (0, 1)
print("sine-algebra product rule T_m T_n = q^{-(m x n)/2} T_{m+n}:",
      sine_product_check(d, m, n))
print("commutator coefficient residual:", sine_commutator_check(d, m, n))
