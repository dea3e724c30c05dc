"""linalg's residual table: every structure residual that the
eigendecompositions, class checks and conjugation conditions use comes
from ``_residual_norms``, bit for bit what each check computed on its own,
and an overflowing residual raises a ``ValueError`` that names it."""

import numpy as np
import pytest

from fockwc import (
    ConjugationParams,
    WcSymbol,
    check_J_selfadjoint,
    check_normal_bounded,
    check_real_symmetric,
    validate,
)
from fockwc.linalg import _residual_norms, adj, normal_eig
from helpers import (
    ref_check_residuals,
    ref_op_norm,
    ref_predicate_defects,
    rand_valid_conjugation,
    structured_matrix,
)

KINDS = ("random", "hermitian", "normal", "unitary")


def _hex(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("d", range(1, 9))
def test_predicate_defects_match_the_old_formulas(d, kind):
    rng = np.random.default_rng(100 * d + KINDS.index(kind))
    for _ in range(5):
        M = structured_matrix(rng, d, kind)
        want = ref_predicate_defects(M)
        assert _hex(_residual_norms(M, "M", *want)) == _hex(want.values())


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("d", range(1, 9))
def test_check_residuals_match_the_old_formulas(d, kind):
    rng = np.random.default_rng(200 * d + KINDS.index(kind))
    for _ in range(5):
        Q = structured_matrix(rng, d, kind)
        S = WcSymbol(1.5, np.zeros(d), Q, np.zeros(d))
        J = rand_valid_conjugation(rng, d)
        want = ref_check_residuals(S, J)
        got = {
            "Q_hermitian": check_real_symmetric(S)[1]["Q_hermitian"],
            "Q_normal": check_normal_bounded(S)[1]["Q_normal"],
            "Q_norm_excess": check_normal_bounded(S)[1]["Q_norm_excess"],
            "AQ_symmetric": check_J_selfadjoint(S, J)[1]["AQ_symmetric"],
            "matrix": validate(J)[1]["matrix"],
        }
        assert _hex(got.values()) == _hex(want.values())


@pytest.mark.parametrize("kind", KINDS)
def test_every_form_matches_its_formula(kind):
    rng = np.random.default_rng(7)
    forms = {
        "X": lambda M: M,
        "X - X*": lambda M: M - adj(M),
        "X - X^t": lambda M: M - M.T,
        "X^t - X": lambda M: M.T - M,
        "X X* - X* X": lambda M: M @ adj(M) - adj(M) @ M,
        "X X* - I": lambda M: M @ adj(M) - np.eye(M.shape[0]),
        "X* X - I": lambda M: adj(M) @ M - np.eye(M.shape[0]),
    }
    for d in range(1, 9):
        M = structured_matrix(rng, d, kind)
        got = _residual_norms(M, "M", *forms)
        assert _hex(got) == _hex(ref_op_norm(f(M)) for f in forms.values())


@pytest.mark.filterwarnings("error")
def test_overflowing_residuals_are_named():
    with pytest.raises(ValueError, match=r"^Q - Q\* contains non-finite entries"):
        check_real_symmetric(WcSymbol(1.0, [0, 0], [[0, 1e308], [-1e308, 0]], [0, 0]))
    with pytest.raises(ValueError, match=r"^A A\* - I contains non-finite entries"):
        validate(ConjugationParams([[1e200]], [0.0], 1.0))
    with pytest.raises(ValueError, match=r"^M M\* - M\* M contains non-finite entries"):
        _residual_norms(np.array([[1e200, 0.0], [1.0, 1.0]], dtype=complex), "M", "X X* - X* X")
    # normal_eig forms no commutator: V* M V is diagonal to within
    # 1e-10 (1 + ||M||), and its values are finite
    dec = normal_eig(np.array([[1e200, 0.0], [1.0, 1.0]]))
    assert np.isfinite(dec.unitary).all() and np.isfinite(dec.eigenvalues).all()
