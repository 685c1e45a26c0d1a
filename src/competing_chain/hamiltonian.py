"""Explicit spin-operator construction of the competing-chain Hamiltonian.

H = H_bulk + H_L + H_R on 2N spin-1/2 sites.  The bulk carries
nearest-neighbour exchange (coefficient 1, except the first and last bond
which are corrected by c1 and c_{2N-1}), next-nearest exchange J2 = 2ā²,
and staggered chiral three-spin terms with coefficient J3 = -ā.  Terms
reaching past the last site are dropped (edge convention sigma_{2N+1} = 0).
Every term acts on at most three adjacent sites, so the dense matrix is
assembled from one table of local terms through 2N-2 three-site blocks.

The boundary pieces are written fully realified (a pure imaginary, p, q, xi
real), so every coefficient below is a plain float and hermiticity is
structural rather than numerical.
"""

from __future__ import annotations

import itertools

import numpy as np

from .algebra import ID2, SIGMA_X, SIGMA_Y, SIGMA_Z
from .errors import SizeError
from .params import ModelParams, couplings

MAX_SITES = 12

_EPS_LC = [
    (0, 1, 2, 1.0), (1, 2, 0, 1.0), (2, 0, 1, 1.0),
    (0, 2, 1, -1.0), (2, 1, 0, -1.0), (1, 0, 2, -1.0),
]
_FACTORS = {"I": ID2, "X": SIGMA_X, "Y": SIGMA_Y, "Z": SIGMA_Z}
# every three-site Pauli word "abc" as the 8x8 matrix a ⊗ b ⊗ c; the entries
# are 0, ±1 and ±i, so the table is exact
_WORDS = {a + b + c: np.kron(np.kron(_FACTORS[a], _FACTORS[b]), _FACTORS[c])
          for a, b, c in itertools.product(_FACTORS, repeat=3)}


def _local_terms(params: ModelParams):
    """Table of (first site, coefficient, factor letters on consecutive sites).

    Letters I, X, Y, Z name ID2 and the Pauli matrices; T is the tilted
    right-boundary field ξσ^x + σ^z.
    """
    two_n = params.two_n
    ab = params.a_bar
    cpl = couplings(params)
    terms = []
    for j in range(1, two_n):
        j1 = cpl.J1_bulk
        if j == 1:
            j1 += cpl.c1
        if j == two_n - 1:
            j1 += cpl.c2Nm1
        terms += [(j, j1, s + s) for s in "XYZ"]
    for j in range(1, two_n - 1):
        terms += [(j, cpl.J2, s + "I" + s) for s in "XYZ"]
        # sigma_{j+1} . (sigma_j x sigma_{j+2})
        j3 = cpl.J3 * ((-1.0) ** j)
        terms += [(j, j3 * sgn, "XYZ"[b] + "XYZ"[a] + "XYZ"[c]) for a, b, c, sgn in _EPS_LC]

    # left boundary: field along z plus anisotropic and antisymmetric bond terms
    pref_l = (1.0 + 4.0 * ab ** 2) / (params.p ** 2 + ab ** 2)
    anti_l = pref_l * ab * params.p
    terms += [(1, pref_l * params.p, "Z"), (1, pref_l * ab ** 2, "ZZ"),
              (1, anti_l, "XY"), (1, -anti_l, "YX")]

    # right boundary: tilted field in the x-z plane plus bond terms
    pref_r = (1.0 + 4.0 * ab ** 2) / (ab ** 2 * params.xi ** 2 + ab ** 2 + params.q ** 2)
    anti_r = pref_r * ab * params.q
    # (sigma_{2N} x sigma_{2N-1}) components: xi times the x one plus the z one
    terms += [(two_n, pref_r * params.q, "T"),
              (two_n - 1, pref_r * ab ** 2, "TT"),
              (two_n - 1, anti_r * params.xi, "ZY"),
              (two_n - 1, -anti_r * params.xi, "YZ"),
              (two_n - 1, anti_r, "YX"),
              (two_n - 1, -anti_r, "XY")]
    return terms


def hamiltonian_direct(params: ModelParams) -> np.ndarray:
    """Dense 2^{2N}-dimensional hermitian Hamiltonian from the spin couplings.

    Every local term is summed into the 8x8 block of the three-site window
    that holds it; each of the 2N-2 blocks is then added once as I ⊗ B ⊗ I.
    Defined at the homogeneous point; the inhomogeneities theta_bar are
    ignored here by construction.
    """
    two_n = params.two_n
    if two_n > MAX_SITES:
        raise SizeError(f"two_n={two_n} exceeds the dense-construction cap {MAX_SITES}")
    # the words holding the ξ-dependent field; every other word is in the table
    tilted = params.xi * SIGMA_X + SIGMA_Z
    words = dict(_WORDS, IIT=np.kron(np.kron(ID2, ID2), tilted),
                 ITT=np.kron(np.kron(ID2, tilted), tilted))
    blocks = np.zeros((two_n - 2, 8, 8), dtype=complex)
    for site, coeff, letters in _local_terms(params):
        first = min(site, two_n - 2)   # window of sites first..first+2
        blocks[first - 1] += coeff * words[("I" * (site - first) + letters).ljust(3, "I")]

    dim = 2 ** two_n
    h = np.zeros((dim, dim), dtype=complex)
    for w, block in enumerate(blocks):
        left, right = 2 ** w, 2 ** (two_n - w - 3)
        # view of the entries of I_left ⊗ (8x8) ⊗ I_right, indexed (l, r, a, b)
        window = np.einsum("iakibk->ikab", h.reshape(left, 8, right, left, 8, right))
        window += block
    return h
