"""The eigenframe kernel against the box-sum oracle.

SpectralDerivative.contract runs the path sum in A's eigenframe.  The oracle
expands the same derivative into projector box products and contracts them
term by term, averaged over every ordering of the directions.  Coaxial maps
are checked the same way: the frame einsum of dense() against the projector
box-sum export.  Spectra cover d = 1, 2, 3, including merged clusters whose
raw eigenvalues keep a genuine spread below the clustering gap.
"""
import itertools

import numpy as np
import pytest

from tenfun import (
    DEFAULT_CLUSTER_TOL,
    Exp,
    Log,
    decompose,
    derivative,
    grad_spectral,
    inverse_grad,
    j_pseudo,
    k_pseudo,
)

from helpers import rand_sym, rel_err, sym_from_eigs

REL = 1e-12

# eigenvalues and the cluster count they must decompose into
SPECTRA = {
    "d1": ([1.7, 1.7, 1.7], 1),
    "d1_spread": ([1.7, 1.7 + 4e-8, 1.7 + 8e-8], 1),
    "d2": ([0.8, 2.1, 2.1], 2),
    "d2_spread": ([0.8, 2.1, 2.1 + 6e-8], 2),
    "d3": ([0.6, 1.3, 2.4], 3),
}


def spectrum_case(name, seed):
    eigs, d = SPECTRA[name]
    rng = np.random.default_rng(seed)
    a = sym_from_eigs(rng, eigs)
    s = decompose(a)
    assert s.d == d
    raw = np.linalg.eigvalsh(a.matrix)
    if name.endswith("spread"):
        # a genuine spread inside the merged cluster, below the clustering gap
        assert 0.0 < raw[-1] - raw[-2] <= DEFAULT_CLUSTER_TOL * max(1.0, np.abs(raw).max())
    return a, rng


def oracle(dv, xs):
    """Box-sum contraction averaged over every ordering of the directions."""
    terms = dv.as_box_sum()
    perms = list(itertools.permutations(xs))
    return sum(terms.contract(list(p)) for p in perms) / len(perms)


@pytest.mark.parametrize("f", [Exp(), Log()])
@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("name", SPECTRA)
def test_equal_directions_match_box_sum(name, n, f):
    a, rng = spectrum_case(name, 10 * n)
    dv = derivative(f, a, n)
    x = rand_sym(rng)
    got = dv.contract([x] * n).matrix
    want = dv.as_box_sum().contract([x] * n)
    assert rel_err(got, want) <= REL


@pytest.mark.parametrize("f", [Exp(), Log()])
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("name", SPECTRA)
def test_distinct_directions_match_box_sum(name, n, f):
    a, rng = spectrum_case(name, 20 + n)
    dv = derivative(f, a, n)
    xs = [rand_sym(rng) for _ in range(n)]
    assert rel_err(dv.contract(xs).matrix, oracle(dv, xs)) <= REL
    # a multiset with a repeated direction: only its distinct orderings count
    mixed = [xs[0]] + xs[:n - 1]
    assert rel_err(dv.contract(mixed).matrix, oracle(dv, mixed)) <= REL


@pytest.mark.parametrize("name", SPECTRA)
def test_coaxial_dense_matches_box_export(name):
    a, _ = spectrum_case(name, 30)
    s = decompose(a)
    for m in (grad_spectral(Log(), s), inverse_grad(Log(), s), j_pseudo(a), k_pseudo(a)):
        assert rel_err(m.dense(), m.as_fourth_tensor().dense()) <= REL
