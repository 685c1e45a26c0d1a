"""Competing spin chain: integrable structure, zero-root solves, thermodynamics.

The package builds the open chain with nearest-neighbour, next-nearest,
chiral three-spin and boundary antisymmetric couplings two independent ways
(explicit spin operators and transfer-matrix generation), reconstructs the
transfer eigenvalues and their zero roots per eigenstate, solves the
homogeneous zero-root equations with regime-aware seeds, and evaluates the
thermodynamic-limit surface energy and excitation curves in closed form
(digamma functions), with certified quadrature as the independent check.
"""

from .params import ModelParams, Couplings, couplings, c0_constant, c2_constant
from .algebra import (kron, permutation_operator, r_matrix, k_minus, k_plus,
                      yang_baxter_residual, reflection_residual, max_norm)
from .hamiltonian import hamiltonian_direct
from .transfer import (monodromy, transfer_matrix, transfer_and_derivative,
                       hamiltonian_from_transfer, crossing_residual,
                       transfer_identity_residual, transfer_commutator_residual,
                       apply_transfer, a_bare, d_bare)
from .spectrum import (EigenPair, ZeroRootSet, diagonalize, ground_state, lambda_samples,
                       circle_sample_points, fit_lambda_polynomial,
                       state_zero_roots, transfer_state_roots, lambda_from_roots,
                       inversion_identity_check, roots_to_json, roots_from_json,
                       roots_to_csv)
from .bae import (RootPattern, regime_of, seed_roots, bae_residual, solve_bae,
                  classify_pattern, energy_from_roots, ground_state_scan,
                  default_spread_profile)
from .thermo import (QuadratureSpec, ThermoResult, a_kernel, density_regime1,
                     density_regime2, surface_energy, ground_energy_density,
                     bulk_energy_per_site, bulk_excitation_energy,
                     string_excitation_energy, boundary_excitation_energy,
                     half_line_integral)

__version__ = "0.1.0"
