"""The bits of the truncated-section engine, pinned: ``_wc_section`` at the
row bounds N // 2 and N on the four ``crosscheck`` shapes, on the ``flow``
generator shapes (1, 3) and (2, 3), and at (3, 16), whose full section of
969 rows, like the full (3, 12) and (4, 10), is built in chunks narrower
than its widest run; ``cross_check`` on the four ``crosscheck``
shapes; and ``kernel_coeff_vector``.  Each case is the SHA-256 of the
``float.hex`` of the real and imaginary part of every entry, in row-major
order, so any change of a last bit anywhere in a section fails its case by
name.  The recorded digests come from the code before the section build
scattered through flat indices; a rewrite that keeps them keeps every
section."""

import hashlib

import numpy as np
import pytest

from fockwc import WcSymbol, cross_check, kernel_coeff_vector
from fockwc.linalg import op_norm
from fockwc.oracle import _wc_section

# the four (d, N) shapes of the benchmark's crosscheck rounds
_CROSSCHECK = ((2, 12), (3, 10), (3, 12), (4, 10))
# the flow workload's generator sections, and the column-loop side
_SECTIONS = _CROSSCHECK + ((1, 3), (2, 3), (3, 16))
# shapes also pinned with an upper triangular Q
_SPARSE = ((2, 3), (3, 10))


def _digest(values) -> str:
    flat = np.ascontiguousarray(values, dtype=np.complex128).view(np.float64).ravel()
    text = "\n".join(map(float.hex, flat.tolist()))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def _crandn(rng, *shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _symbol(d: int, sparse: bool = False) -> WcSymbol:
    """A seeded symbol with ||Q|| = 0.9 and ell, q of order one half; with
    ``sparse``, Q is upper triangular, so runs skip the zero B_kj."""
    rng = np.random.default_rng(3000 + 10 * d + sparse)
    Q = _crandn(rng, d, d)
    if sparse:
        Q = np.triu(Q)
    return WcSymbol(complex(_crandn(rng)[()]), _crandn(rng, d, scale=0.5),
                    Q * (0.9 / op_norm(Q)), _crandn(rng, d, scale=0.5))


def _check_case(d: int, N: int):
    """A symbol and point whose truncation bound at N is far below 1e-8."""
    rng = np.random.default_rng(3100 + 10 * d + N)
    Q = _crandn(rng, d, d)
    S = WcSymbol(0.8 + 0.2j, _crandn(rng, d, scale=0.05), Q * (0.3 / op_norm(Q)),
                 _crandn(rng, d, scale=0.05))
    w = _crandn(rng, d)
    return S, 0.3 * w / np.linalg.norm(w), N


def _cases():
    """(case id, thunk giving its digest) for every pinned computation."""
    cases = []
    for d, N in _SECTIONS:
        for sparse in (False, True) if (d, N) in _SPARSE else (False,):
            S = _symbol(d, sparse)
            for rows in (N // 2, N):
                key = f"section-d{d}-N{N}-rows{rows}" + ("-sparse" if sparse else "")
                cases.append((key, lambda S=S, N=N, rows=rows: _digest(
                    _wc_section(S.theta, np.conj(S.ell), S.Q, S.q, N, rows=rows))))
    for d, N in _CROSSCHECK:
        cases.append((f"cross_check-d{d}-N{N}",
                      lambda d=d, N=N: _digest(cross_check(*_check_case(d, N)))))
        w = _crandn(np.random.default_rng(3200 + d), d, scale=0.8)
        cases.append((f"kernel_coeff_vector-d{d}-N{N}",
                      lambda w=w, N=N: _digest(kernel_coeff_vector(w, N))))
    return cases


_CASES = dict(_cases())

_RECORDED = {
    'cross_check-d2-N12': '5268a1cf5825c64b4c81',
    'cross_check-d3-N10': '4e2301daefef70e62023',
    'cross_check-d3-N12': '2b568f09e1d7fb0a904b',
    'cross_check-d4-N10': 'c80028b504459f2eba7c',
    'kernel_coeff_vector-d2-N12': '80cc142f75d0d102a473',
    'kernel_coeff_vector-d3-N10': 'e0c629260601e4a36926',
    'kernel_coeff_vector-d3-N12': '2336e92ba32626e7377b',
    'kernel_coeff_vector-d4-N10': 'f893e4e56de058b75f38',
    'section-d1-N3-rows1': '8125bb116f58352eedf2',
    'section-d1-N3-rows3': '87b70323756f5d118900',
    'section-d2-N12-rows12': '859ce89c975d6c130eab',
    'section-d2-N12-rows6': '4a6bbb554c8ffc2e2eec',
    'section-d2-N3-rows1': 'aba2f7680b157f140bb5',
    'section-d2-N3-rows1-sparse': '2292ff3e7e639a1f6653',
    'section-d2-N3-rows3': 'aa2022e3472471b7f619',
    'section-d2-N3-rows3-sparse': 'f8e9efa5bc59ee1eeeb0',
    'section-d3-N10-rows10': 'dbcede46d120cb2b6217',
    'section-d3-N10-rows10-sparse': '83a5df25648dd751708c',
    'section-d3-N10-rows5': 'b29685db0e935418893e',
    'section-d3-N10-rows5-sparse': '7a048733ad344d3bb273',
    'section-d3-N12-rows12': '503c8c45bdf10e8437ee',
    'section-d3-N12-rows6': '9dc10624965bdd9453ab',
    'section-d3-N16-rows16': '7b0739e0f875a803beba',
    'section-d3-N16-rows8': 'f71b672b55754b8d82e9',
    'section-d4-N10-rows10': '6b132aa02c3f910caa43',
    'section-d4-N10-rows5': 'aa82b665bad7979dc1b8',
}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_the_section_engine_keeps_its_recorded_bits(case):
    assert _CASES[case]() == _RECORDED[case]


def test_every_case_is_recorded():
    assert sorted(_RECORDED) == sorted(_CASES)
