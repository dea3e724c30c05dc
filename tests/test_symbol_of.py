"""J = C_{S_J} J0 with S_J = (c, conj(b), A, b): ``symbol_of`` and the
actions of J routed through it, against J's written-out formulas.

J K_w = c e^{<b, conj(w)>} K_{A* conj(w) + conj(b)} on kernels, and the
section of J is that of f -> c e^{z.b} f(Az + b) applied to conjugated
coefficients.  Every comparison is bit for bit.
"""

import numpy as np
import pytest

from fockwc import (
    KernelCombo,
    apply_conjugation,
    identity_conjugation,
    j_symmetry_defect,
    trunc_conjugation_matrix,
)
from fockwc import oracle
from fockwc.conjugation import apply_to_kernel, symbol_of
from fockwc.symbols import act_on_kernels, identity_symbol
from helpers import (
    rand_kernel_combo,
    rand_points,
    rand_symbol,
    rand_valid_conjugation,
    ref_conjugation_kernels,
    ref_relative_defect,
)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _conjugations():
    rng = np.random.default_rng(71)
    for k in range(40):
        d = int(rng.integers(1, 5))
        yield rng, rand_valid_conjugation(rng, d, with_b=k % 4 != 0)


def test_symbol_of_is_c_conj_b_A_b():
    for _, J in _conjugations():
        S_J = symbol_of(J)
        assert S_J.theta == J.c
        assert _same_bits(S_J.ell, np.conj(J.b))
        assert _same_bits(S_J.Q, J.A) and _same_bits(S_J.q, J.b)
        assert symbol_of(J) is S_J  # built once per J


@pytest.mark.parametrize("d", (1, 2, 3, 5))
def test_symbol_of_the_standard_conjugation_is_the_identity(d):
    assert symbol_of(identity_conjugation(d)) == identity_symbol(d)


def test_kernel_images_follow_the_written_out_formula():
    for rng, J in _conjugations():
        for w in rand_points(rng, J.dim, 3):
            img = apply_to_kernel(J, w)
            expo, points = ref_conjugation_kernels(J, w[None, :])
            assert _same_bits(img.coeff, J.c * complex(np.exp(expo[0])))
            assert _same_bits(img.point, points[0])


def test_span_action_follows_the_written_out_formula():
    for rng, J in _conjugations():
        F = rand_kernel_combo(rng, J.dim, 5)
        G = apply_conjugation(J, F)
        expo, points = ref_conjugation_kernels(J, F.points)
        assert _same_bits(G.coeffs, np.conj(F.coeffs) * (J.c * np.exp(expo)))
        assert _same_bits(G.points, points)


def test_j_symmetry_defect_follows_the_written_out_formula():
    for rng, J in _conjugations():
        S = rand_symbol(rng, J.dim)
        Z = np.array(rand_points(rng, J.dim, 6))
        a_S, P_S = act_on_kernels(S, Z)
        a_J, P_J = ref_conjugation_kernels(J, Z)
        E = oracle._log_gram(a_S, P_S, a_J, P_J)
        coeff = S.theta * np.conj(J.c)
        assert j_symmetry_defect(S, J, Z) == ref_relative_defect(coeff, E, coeff, E.T)


def test_section_is_the_written_out_section():
    for _, J in _conjugations():
        N = 4 if J.dim <= 3 else 3
        T = trunc_conjugation_matrix(J, N)
        assert _same_bits(T.matrix, oracle._wc_section(J.c, J.b, J.A, J.b, N))
        v = np.arange(T.matrix.shape[1]) * (1 + 2j)
        assert _same_bits(T.apply(v), T.matrix @ np.conj(v))


def test_an_empty_combination_stays_empty():
    J = identity_conjugation(2)
    G = apply_conjugation(J, KernelCombo(2, [], np.zeros((0, 2))))
    assert G.coeffs.shape == (0,) and G.points.shape == (0, 2)
