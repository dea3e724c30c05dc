"""Sections and spectral decompositions that the library builds are
read-only, like every other value it returns: a truncated section's matrix
and the unitary and eigenvalues of ``herm_eig`` and ``normal_eig``.  (A
``TruncOp`` built by the caller keeps the caller's matrix, as given.)"""

import numpy as np
import pytest

from fockwc import trunc_conjugation_matrix, trunc_symbol_matrix
from fockwc.linalg import herm_eig, normal_eig
from helpers import rand_symbol, rand_valid_conjugation


def _assert_read_only(arr):
    assert not arr.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        arr.flat[0] = 0.0


@pytest.mark.parametrize("d, N", [(1, 6), (2, 4), (3, 3)])
def test_library_sections_are_read_only(d, N):
    rng = np.random.default_rng(d)
    S = rand_symbol(rng, d, scale=0.3)
    _assert_read_only(trunc_symbol_matrix(S, N).matrix)
    _assert_read_only(trunc_conjugation_matrix(rand_valid_conjugation(rng, d), N).matrix)


@pytest.mark.parametrize("decompose", [herm_eig, normal_eig])
def test_spectral_decompositions_are_read_only(decompose):
    M = np.array([[1.0, 2j, 0.0], [-2j, 3.0, 0.5], [0.0, 0.5, -1.0]])
    dec = decompose(M)
    for arr in (dec.unitary, dec.eigenvalues):
        while isinstance(arr, np.ndarray):
            _assert_read_only(arr)
            arr = arr.base
