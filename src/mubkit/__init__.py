"""Exact-arithmetic toolkit for quadratic Fourier matrices, Weyl/Pauli
operator families and mutually unbiased bases.

The package keeps the phases of a matrix as integer exponents over one
common modulus (a single root of unity as a reduced rational turn), so the
structural identities of the clock/shift family (q-commutation, trace
orthogonality, the Pauli group law, the Fourier factorization) are
verified with no tolerance at all; dense complex arrays are used only
where irrational amplitudes force them.

The top level holds the constructions and the checks; their result types
and helpers (``ExactPhase``, ``q_power``, ``Basis``, ``MubSet``, ...) are
imported from their modules.
"""

from .phases import PhaseMatrix
from .qdft import (fra_matrix, hra_matrix, dra_matrix, forward, inverse,
                   parseval_check, gauss_sum, trace_fra, det_fra,
                   is_generalized_hadamard)
from .weyl import (x_matrix, z_matrix, pr_matrix, vra_matrix, vra_band_matrix,
                   vra_power_phase, u_ab, weyl_relation_check,
                   pauli_trace_orthogonality, pauli_compose, pauli_element_matrix,
                   t_matrix, sine_product_check, sine_commutator_check)
from .quon import (quon_rep, build_vra_quonic, restrict_to_j, su2_generators,
                   eigenbasis, eigenvalue_vra, overlap_same_a,
                   rotation_conjugation_residual)
from .mub import (is_prime, mub_prime, mub_three, unbiasedness, orthonormality,
                  max_pairwise_deviation, gauss_inner_product, product_hadamard,
                  mub_dim4, entanglement_det, commuting_classes, sl_partition_check)
from .wigner import (wigner_3jm, clebsch_gordan, cg_alpha, cg_alpha_table, fbar,
                     fbar_table, basis_change_coeff, fbar_conjugation_factor)

__version__ = "0.1.0"
