import numpy as np
import pytest

from competing_chain import ModelParams, couplings, hamiltonian, hamiltonian_direct, max_norm
from competing_chain.algebra import PAULI, SIGMA_X, SIGMA_Y, SIGMA_Z, ID2


def _embed(two_n, site, op):
    mats = [ID2] * two_n
    mats[site - 1] = op
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def _heisenberg_open(two_n):
    from competing_chain.algebra import PAULI
    dim = 2 ** two_n
    h = np.zeros((dim, dim), dtype=complex)
    for j in range(1, two_n):
        for s in PAULI:
            h += _embed(two_n, j, s) @ _embed(two_n, j + 1, s)
    return h


def test_heisenberg_limit_exact():
    # a=0 removes all next-nearest, chiral and antisymmetric terms; the
    # boundaries reduce to sigma_1^z / p and (xi sigma^x + sigma^z)_2N / q
    pr = ModelParams(two_n=4, a_bar=0.0, p=1.7, q=0.9, xi=0.6)
    expected = (_heisenberg_open(4)
                + _embed(4, 1, SIGMA_Z) / pr.p
                + (pr.xi * _embed(4, 4, SIGMA_X) + _embed(4, 4, SIGMA_Z)) / pr.q)
    assert max_norm(hamiltonian_direct(pr) - expected) < 1e-13


def test_hermiticity(params_small):
    h = hamiltonian_direct(params_small)
    assert max_norm(h - h.conj().T) <= 1e-12


def test_hermiticity_2n6():
    pr = ModelParams(two_n=6, a_bar=0.8, p=1.0, q=0.5, xi=1.2)
    h = hamiltonian_direct(pr)
    assert max_norm(h - h.conj().T) <= 1e-12


def test_spin_flip_symmetry_broken_for_unparallel_fields():
    # product of sigma^z commutes only when the boundary fields are parallel
    pr = ModelParams(two_n=4, a_bar=0.6, p=1.0, q=0.5, xi=1.2)
    h = hamiltonian_direct(pr)
    flip = _embed(4, 1, SIGMA_Z)
    for j in range(2, 5):
        flip = flip @ _embed(4, j, SIGMA_Z)
    assert max_norm(h @ flip - flip @ h) > 0.1

    aligned = ModelParams(two_n=4, a_bar=0.0, p=1.0, q=0.5, xi=0.0)
    ha = hamiltonian_direct(aligned)
    assert max_norm(ha @ flip - flip @ ha) < 1e-12


def test_large_field_suppression():
    # huge p, q at a=0, xi=0: spectrum approaches the bare open chain
    pr = ModelParams(two_n=4, a_bar=0.0, p=1e6, q=1e6, xi=0.0)
    got = np.linalg.eigvalsh(hamiltonian_direct(pr))
    want = np.linalg.eigvalsh(_heisenberg_open(4))
    assert np.max(np.abs(got - want)) < 5e-6


def test_edge_convention_truncates_nnn():
    # at a=0 there must be no coupling between sites 2N-1, 2N+1 (absent)
    # and no next-nearest matrix elements at all
    pr = ModelParams(two_n=4, a_bar=0.0, p=1.0, q=1.0, xi=0.0)
    h = hamiltonian_direct(pr)
    from competing_chain.algebra import PAULI
    nnn = sum(_embed(4, 1, s) @ _embed(4, 3, s) for s in PAULI)
    # projecting the Hamiltonian on the NNN exchange finds nothing at a=0
    overlap = np.trace(h @ nnn) / np.trace(nnn @ nnn)
    assert abs(overlap) < 1e-14


_LEVI_CIVITA = {(0, 1, 2): 1.0, (1, 2, 0): 1.0, (2, 0, 1): 1.0,
                (0, 2, 1): -1.0, (2, 1, 0): -1.0, (1, 0, 2): -1.0}


def _reference_hamiltonian(pr):
    """Term-by-term Kronecker build of the spin Hamiltonian, one 2^{2N} matrix per factor."""
    n, ab, cpl = pr.two_n, pr.a_bar, couplings(pr)

    def op(*factors):   # product of (site, single-site operator) pairs
        out = _embed(n, *factors[0])
        for site, s in factors[1:]:
            out = out @ _embed(n, site, s)
        return out

    h = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for j in range(1, n):
        j1 = 1.0 + (cpl.c1 if j == 1 else 0.0) + (cpl.c2Nm1 if j == n - 1 else 0.0)
        h += j1 * sum(op((j, s), (j + 1, s)) for s in PAULI)
    for j in range(1, n - 1):
        h += cpl.J2 * sum(op((j, s), (j + 2, s)) for s in PAULI)
        # sigma_{j+1} . (sigma_j x sigma_{j+2})
        chiral = sum(eps * op((j + 1, PAULI[a]), (j, PAULI[b]), (j + 2, PAULI[c]))
                     for (a, b, c), eps in _LEVI_CIVITA.items())
        h += cpl.J3 * (-1.0) ** j * chiral
    pref_l = (1.0 + 4.0 * ab ** 2) / (pr.p ** 2 + ab ** 2)
    h += pref_l * (pr.p * op((1, SIGMA_Z)) + ab ** 2 * op((1, SIGMA_Z), (2, SIGMA_Z))
                   + ab * pr.p * (op((1, SIGMA_X), (2, SIGMA_Y)) - op((1, SIGMA_Y), (2, SIGMA_X))))
    pref_r = (1.0 + 4.0 * ab ** 2) / (ab ** 2 * pr.xi ** 2 + ab ** 2 + pr.q ** 2)
    tilt = pr.xi * SIGMA_X + SIGMA_Z
    cross_x = op((n, SIGMA_Y), (n - 1, SIGMA_Z)) - op((n, SIGMA_Z), (n - 1, SIGMA_Y))
    cross_z = op((n, SIGMA_X), (n - 1, SIGMA_Y)) - op((n, SIGMA_Y), (n - 1, SIGMA_X))
    h += pref_r * (pr.q * op((n, tilt)) + ab ** 2 * op((n - 1, tilt), (n, tilt))
                   + ab * pr.q * (pr.xi * cross_x + cross_z))
    return h


@pytest.mark.parametrize("two_n", [4, 6, 8])
def test_local_term_build_matches_kron_reference(two_n, regime_points):
    for p, q_bar in regime_points.values():
        pr = ModelParams.from_q_bar(two_n, 0.66, p, q_bar, 1.2)
        assert max_norm(hamiltonian_direct(pr) - _reference_hamiltonian(pr)) <= 1e-13


_FACTORS = {"I": ID2, "X": SIGMA_X, "Y": SIGMA_Y, "Z": SIGMA_Z}


def _kron_loop_hamiltonian(pr):
    """The local-term assembly with one nested np.kron per term, as built before the word table."""
    two_n = pr.two_n
    tilted = pr.xi * SIGMA_X + SIGMA_Z
    blocks = np.zeros((two_n - 2, 8, 8), dtype=complex)
    for site, coeff, letters in hamiltonian._local_terms(pr):
        first = min(site, two_n - 2)
        ops = [ID2] * (site - first) + [tilted if c == "T" else _FACTORS[c] for c in letters]
        ops += [ID2] * (3 - len(ops))
        blocks[first - 1] += coeff * np.kron(np.kron(ops[0], ops[1]), ops[2])
    h = np.zeros((2 ** two_n, 2 ** two_n), dtype=complex)
    for w, block in enumerate(blocks):
        left, right = 2 ** w, 2 ** (two_n - w - 3)
        window = np.einsum("iakibk->ikab", h.reshape(left, 8, right, left, 8, right))
        window += block
    return h


@pytest.mark.parametrize("point", ["I", "II", "III", "IV", "V", "VI", "defaults"])
@pytest.mark.parametrize("two_n", [4, 6, 8, 10])
def test_word_table_build_is_bit_identical_to_the_kron_loop(two_n, point, regime_points):
    if point == "defaults":
        pr = ModelParams(two_n=two_n)
    else:
        pr = ModelParams.from_q_bar(two_n, 0.66, *regime_points[point], 1.2)
    want = _kron_loop_hamiltonian(pr)
    assert np.array_equal(hamiltonian_direct(pr).view(float), want.view(float))
