"""The bits of the semigroup time path, pinned: ``symbol_at``, the
(t, s, t + s) stacks of ``symbols_at`` and the ``check_laws`` verdicts and
defects on them, ``linalg.expm`` on seeded stacks (members with one scaling
power and with several) and ``generator_fd_residual`` give exactly the
values recorded below.  Each
case is the SHA-256 of the ``float.hex`` of the real and imaginary part of
every component, in order, so any change of a last bit anywhere on the path
fails its case by name.  The recorded digests come from the code before the
time path's overheads were cut; a rewrite that keeps them keeps every
result."""

import hashlib

import numpy as np
import pytest

import fockwc as fw
from fockwc.linalg import expm

_DIMS = (1, 2, 3, 4, 8)
# 0 is the exact identity; the rest span several scaling powers of t Omega
_TIMES = (0.0, 1e-3, 0.37, 1.0, 5.0, 40.0)
_PAIRS = ((0.25, 0.5), (0.05, 3.0), (0.0, 0.7), (1.5, 1.5))
# decayed t Omega (e^{t Omega} rounds to zero) with the CI's borders
_DECAYED = ((1.0, 1.0), (1e100, -2e-95j), (3 + 4j, 1e-30j), (-1e300, 1e-295))
_EXPM_DIMS = (1, 2, 3, 5, 8)
_EXPM_TOLS = (1e-14, 1e-13, 1e-8)


def _digest(*values) -> str:
    text = "\n".join(
        float(x).hex() for v in values for z in np.ravel(v) for x in (z.real, z.imag)
    )
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def _symbols_digest(symbols) -> str:
    return _digest(*(c for S in symbols for c in (S.theta, S.ell, S.Q, S.q)))


def _crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _params(d: int) -> fw.SemigroupParams:
    """A seeded pack whose Omega has spectrum in Re <= -1/2, so theta_t
    stays finite at every time, and borders of order one."""
    rng = np.random.default_rng(2600 + d)
    Omega = _crandn(rng, d, d)
    Omega *= 1.0 / np.abs(Omega).sum(axis=0).max()
    Omega -= 1.5 * np.eye(d)
    return fw.SemigroupParams(Omega, 0.7 * _crandn(rng, d), 0.7 * _crandn(rng, d),
                              complex(0.5 * _crandn(rng)[()]))


def _stack(rng, n, norms):
    members = [_crandn(rng, n, n) for _ in norms]
    return np.array([M * (x / np.abs(M).sum(axis=0).max()) for M, x in zip(members, norms)])


def _cases():
    """(case id, thunk giving its digest) for every pinned computation."""
    cases = []
    for d in _DIMS:
        for t in _TIMES:
            cases.append((f"symbol_at-d{d}-t{t!r}",
                          lambda d=d, t=t: _symbols_digest([fw.symbol_at(_params(d), t)])))
        for t, s in _PAIRS:
            cases.append((f"symbols_at-d{d}-{t!r},{s!r}", lambda d=d, t=t, s=s: _symbols_digest(
                fw.symbols_at(_params(d), (t, s, t + s)))))
            cases.append((f"check_laws-d{d}-{t!r},{s!r}", lambda d=d, t=t, s=s: _digest(
                *fw.check_laws(_params(d), t, s, 1e-13))))
    for i, (q_star, ell_star) in enumerate(_DECAYED):
        P = fw.SemigroupParams([[-1e307]], [q_star], [ell_star], 0.0)
        cases.append((f"decayed-{i}-symbol_at",
                      lambda P=P: _symbols_digest([fw.symbol_at(P, 0.5)])))
        cases.append((f"decayed-{i}-symbols_at",
                      lambda P=P: _symbols_digest(fw.symbols_at(P, (0.5, 0.25, 0.75)))))
    for n in _EXPM_DIMS:
        for tol in _EXPM_TOLS:
            rng = np.random.default_rng(2700 + n)
            for norms in ((0.0,), (0.3,), (7.0,), (40.0,), (0.02, 11.0, 0.7), (3.0, 3.0, 1e-4),
                          (2.5, 3.0, 3.5)):
                M = _stack(rng, n, norms)
                key = f"expm-n{n}-tol{tol!r}-{','.join(map(repr, norms))}"
                cases.append((key, lambda M=M, tol=tol: _digest(expm(M, tol))))
                if len(norms) == 1:
                    cases.append((key + "-2d", lambda M=M, tol=tol: _digest(expm(M[0], tol))))
    for d in (1, 2, 3):
        rng = np.random.default_rng(2800 + d)
        unit = (1,) + (0,) * (d - 1)
        polys = (fw.MPoly(d, {(0,) * d: 1.0}),
                 fw.MPoly(d, {unit: 0.5 - 1j, (0,) * d: 2.0}),
                 fw.MPoly(d, {tuple(rng.integers(0, 3, d)): complex(_crandn(rng)[()]),
                              (1,) * d: 0.25j, unit: -1.0}))
        for i, f in enumerate(polys):
            for h in (1e-3, 0.05):
                cases.append((f"generator_fd-d{d}-f{i}-h{h!r}", lambda d=d, f=f, h=h: _digest(
                    fw.generator_fd_residual(_params(d), f, h))))
    return cases


_CASES = dict(_cases())

_RECORDED = {
    'symbol_at-d1-t0.0': 'ce24668239c92b045cd6',
    'symbol_at-d1-t0.001': '964291820e064ada96cf',
    'symbol_at-d1-t0.37': 'e9d5ca946b553b12fed9',
    'symbol_at-d1-t1.0': '5e7da302074a99423fc4',
    'symbol_at-d1-t5.0': 'a7d2a99974d8a96701c0',
    'symbol_at-d1-t40.0': '2df87addc1a46a4f29ca',
    'symbols_at-d1-0.25,0.5': 'fd42440e99f5e84cc034',
    'symbols_at-d1-0.05,3.0': 'e81881c7433c1bedfc63',
    'symbols_at-d1-0.0,0.7': '29fdb22684e1088da2ea',
    'symbols_at-d1-1.5,1.5': '614b2d5a9d4e7a17f1de',
    'symbol_at-d2-t0.0': 'b553f133e815d59a99f1',
    'symbol_at-d2-t0.001': '821837ebe409dde29ce3',
    'symbol_at-d2-t0.37': 'f553b74f1e492ad964ba',
    'symbol_at-d2-t1.0': '11e988c099371e89221b',
    'symbol_at-d2-t5.0': 'ad9d55f4eaf1076f5e7e',
    'symbol_at-d2-t40.0': '20f1f083ef1a1ed7883d',
    'symbols_at-d2-0.25,0.5': '67427b8b3d9b57486b6d',
    'symbols_at-d2-0.05,3.0': '15f76bfd074a0d33517c',
    'symbols_at-d2-0.0,0.7': 'c0c363a15411a826f152',
    'symbols_at-d2-1.5,1.5': 'ea3565263033d03c402a',
    'symbol_at-d3-t0.0': '594ceb5e5af1040d814f',
    'symbol_at-d3-t0.001': 'ca3bdeb877664354f32b',
    'symbol_at-d3-t0.37': 'd5b51833b4c620ef5301',
    'symbol_at-d3-t1.0': 'b6e254b3658ee5c976ed',
    'symbol_at-d3-t5.0': '3f61b3b43bae56edb348',
    'symbol_at-d3-t40.0': '084681519e4d281934fd',
    'symbols_at-d3-0.25,0.5': '7f09b557b76ece48eaa4',
    'symbols_at-d3-0.05,3.0': '9664e755800051b96474',
    'symbols_at-d3-0.0,0.7': 'd50849ff3d0d8daa3afd',
    'symbols_at-d3-1.5,1.5': '60692903dcbf0be39344',
    'symbol_at-d4-t0.0': 'b5f53c31a6f5cac10dbb',
    'symbol_at-d4-t0.001': 'a93af43e05cf1110aa6f',
    'symbol_at-d4-t0.37': '95ba808ec62fcde5ed51',
    'symbol_at-d4-t1.0': 'a9b563c4a3f31735aa25',
    'symbol_at-d4-t5.0': '32e457c9ba6c73a99d00',
    'symbol_at-d4-t40.0': 'f9bbbb45d78d8657ad35',
    'symbols_at-d4-0.25,0.5': 'c6de1892eb05fec3b07f',
    'symbols_at-d4-0.05,3.0': 'aa7ba34893ea163bb3b0',
    'symbols_at-d4-0.0,0.7': '9f269de9b5b881d4ae6a',
    'symbols_at-d4-1.5,1.5': '563588c6e2a0aa72ddb1',
    'symbol_at-d8-t0.0': 'b1619bc5b93d4f47f6dc',
    'symbol_at-d8-t0.001': '96576f4423f5aa571794',
    'symbol_at-d8-t0.37': '09efa348887c9f7aa56d',
    'symbol_at-d8-t1.0': 'a7eb0e7b514412b02d81',
    'symbol_at-d8-t5.0': '25b496c9f2121d6bfd08',
    'symbol_at-d8-t40.0': '961d19b165246a1371a0',
    'symbols_at-d8-0.25,0.5': 'af6427f48e9713b67e3e',
    'symbols_at-d8-0.05,3.0': 'd1c8b4ed87dd3b7a9ac1',
    'symbols_at-d8-0.0,0.7': '8017ccd83fb0914cda2b',
    'symbols_at-d8-1.5,1.5': '5336d87eca56f51fa027',
    'decayed-0-symbol_at': '553fc82ae2ce63a982e5',
    'decayed-0-symbols_at': '526a27920a1c25c2032b',
    'decayed-1-symbol_at': 'b31a32c1040cd34a2381',
    'decayed-1-symbols_at': 'fc26480ca368f2e373c5',
    'decayed-2-symbol_at': '60545babb60f5d2650c1',
    'decayed-2-symbols_at': '71b8d7d5a867fb6baa80',
    'decayed-3-symbol_at': '034d14798fbeee9692d8',
    'decayed-3-symbols_at': '2014757537daecace425',
    'expm-n1-tol1e-14-0.0': '96968b489580fcabffc7',
    'expm-n1-tol1e-14-0.0-2d': '96968b489580fcabffc7',
    'expm-n1-tol1e-14-0.3': '3a93105da574b45b3704',
    'expm-n1-tol1e-14-0.3-2d': '3a93105da574b45b3704',
    'expm-n1-tol1e-14-7.0': '8b54c6269a7cb596ec30',
    'expm-n1-tol1e-14-7.0-2d': '8b54c6269a7cb596ec30',
    'expm-n1-tol1e-14-40.0': '937dcf349a8f54f25358',
    'expm-n1-tol1e-14-40.0-2d': '937dcf349a8f54f25358',
    'expm-n1-tol1e-14-0.02,11.0,0.7': '4cbcf0cc6c5633dd8a0d',
    'expm-n1-tol1e-14-3.0,3.0,0.0001': '8d84b91a312c19d22823',
    'expm-n1-tol1e-13-0.0': '96968b489580fcabffc7',
    'expm-n1-tol1e-13-0.0-2d': '96968b489580fcabffc7',
    'expm-n1-tol1e-13-0.3': '939aa4be5fff36238907',
    'expm-n1-tol1e-13-0.3-2d': '939aa4be5fff36238907',
    'expm-n1-tol1e-13-7.0': '8b54c6269a7cb596ec30',
    'expm-n1-tol1e-13-7.0-2d': '8b54c6269a7cb596ec30',
    'expm-n1-tol1e-13-40.0': '937dcf349a8f54f25358',
    'expm-n1-tol1e-13-40.0-2d': '937dcf349a8f54f25358',
    'expm-n1-tol1e-13-0.02,11.0,0.7': '2eba722bb4a8f8e405e7',
    'expm-n1-tol1e-13-3.0,3.0,0.0001': '74845c15089149a5f0ce',
    'expm-n1-tol1e-08-0.0': '96968b489580fcabffc7',
    'expm-n1-tol1e-08-0.0-2d': '96968b489580fcabffc7',
    'expm-n1-tol1e-08-0.3': '271160a60f59ab65b6f6',
    'expm-n1-tol1e-08-0.3-2d': '271160a60f59ab65b6f6',
    'expm-n1-tol1e-08-7.0': 'd85be6c7c8867cc23400',
    'expm-n1-tol1e-08-7.0-2d': 'd85be6c7c8867cc23400',
    'expm-n1-tol1e-08-40.0': '6a30e99dbe4807035553',
    'expm-n1-tol1e-08-40.0-2d': '6a30e99dbe4807035553',
    'expm-n1-tol1e-08-0.02,11.0,0.7': 'de528ccf1347f036bce2',
    'expm-n1-tol1e-08-3.0,3.0,0.0001': '839fb0267ad215c03668',
    'expm-n2-tol1e-14-0.0': '66ad5dfc30758c3cceae',
    'expm-n2-tol1e-14-0.0-2d': '66ad5dfc30758c3cceae',
    'expm-n2-tol1e-14-0.3': 'dd0ad45a39d21586156a',
    'expm-n2-tol1e-14-0.3-2d': 'dd0ad45a39d21586156a',
    'expm-n2-tol1e-14-7.0': '2e849747c2562019aa0d',
    'expm-n2-tol1e-14-7.0-2d': '2e849747c2562019aa0d',
    'expm-n2-tol1e-14-40.0': '64f5e9cd02e1755ab668',
    'expm-n2-tol1e-14-40.0-2d': '64f5e9cd02e1755ab668',
    'expm-n2-tol1e-14-0.02,11.0,0.7': '98a308152e703c26b77e',
    'expm-n2-tol1e-14-3.0,3.0,0.0001': '095dc0d06cc0c91fc574',
    'expm-n2-tol1e-13-0.0': '66ad5dfc30758c3cceae',
    'expm-n2-tol1e-13-0.0-2d': '66ad5dfc30758c3cceae',
    'expm-n2-tol1e-13-0.3': '2505932df0b1e90c41b4',
    'expm-n2-tol1e-13-0.3-2d': '2505932df0b1e90c41b4',
    'expm-n2-tol1e-13-7.0': '2e849747c2562019aa0d',
    'expm-n2-tol1e-13-7.0-2d': '2e849747c2562019aa0d',
    'expm-n2-tol1e-13-40.0': '64f5e9cd02e1755ab668',
    'expm-n2-tol1e-13-40.0-2d': '64f5e9cd02e1755ab668',
    'expm-n2-tol1e-13-0.02,11.0,0.7': 'acde29254c0663455e8b',
    'expm-n2-tol1e-13-3.0,3.0,0.0001': '7f9739b15f04cb2ceee9',
    'expm-n2-tol1e-08-0.0': '66ad5dfc30758c3cceae',
    'expm-n2-tol1e-08-0.0-2d': '66ad5dfc30758c3cceae',
    'expm-n2-tol1e-08-0.3': 'e0e09625913892b51554',
    'expm-n2-tol1e-08-0.3-2d': 'e0e09625913892b51554',
    'expm-n2-tol1e-08-7.0': '316dfe149eafa9dab70a',
    'expm-n2-tol1e-08-7.0-2d': '316dfe149eafa9dab70a',
    'expm-n2-tol1e-08-40.0': '5bb85f8a942091e8f0ac',
    'expm-n2-tol1e-08-40.0-2d': '5bb85f8a942091e8f0ac',
    'expm-n2-tol1e-08-0.02,11.0,0.7': 'bcf834c431dd0090dedd',
    'expm-n2-tol1e-08-3.0,3.0,0.0001': '641e4f2833d0af73dea3',
    'expm-n3-tol1e-14-0.0': 'ff8c062022b2f738ba9c',
    'expm-n3-tol1e-14-0.0-2d': 'ff8c062022b2f738ba9c',
    'expm-n3-tol1e-14-0.3': '4ba8d35d4672fa38c689',
    'expm-n3-tol1e-14-0.3-2d': '4ba8d35d4672fa38c689',
    'expm-n3-tol1e-14-7.0': '8922bbe7e77344c905b5',
    'expm-n3-tol1e-14-7.0-2d': '8922bbe7e77344c905b5',
    'expm-n3-tol1e-14-40.0': 'ad654efb392923bcf7bf',
    'expm-n3-tol1e-14-40.0-2d': 'ad654efb392923bcf7bf',
    'expm-n3-tol1e-14-0.02,11.0,0.7': '2d99a8fb4fc110818294',
    'expm-n3-tol1e-14-3.0,3.0,0.0001': 'dac244c5226da7ef1e1a',
    'expm-n3-tol1e-13-0.0': 'ff8c062022b2f738ba9c',
    'expm-n3-tol1e-13-0.0-2d': 'ff8c062022b2f738ba9c',
    'expm-n3-tol1e-13-0.3': 'd4dac4e37641675bdcc1',
    'expm-n3-tol1e-13-0.3-2d': 'd4dac4e37641675bdcc1',
    'expm-n3-tol1e-13-7.0': '8922bbe7e77344c905b5',
    'expm-n3-tol1e-13-7.0-2d': '8922bbe7e77344c905b5',
    'expm-n3-tol1e-13-40.0': 'ad654efb392923bcf7bf',
    'expm-n3-tol1e-13-40.0-2d': 'ad654efb392923bcf7bf',
    'expm-n3-tol1e-13-0.02,11.0,0.7': '124e20fb7f9b4358eb5a',
    'expm-n3-tol1e-13-3.0,3.0,0.0001': 'e8ca28a9a15b1855702e',
    'expm-n3-tol1e-08-0.0': 'ff8c062022b2f738ba9c',
    'expm-n3-tol1e-08-0.0-2d': 'ff8c062022b2f738ba9c',
    'expm-n3-tol1e-08-0.3': 'd145ffeec0f97976af63',
    'expm-n3-tol1e-08-0.3-2d': 'd145ffeec0f97976af63',
    'expm-n3-tol1e-08-7.0': '849ae2b20e623d4667ea',
    'expm-n3-tol1e-08-7.0-2d': '849ae2b20e623d4667ea',
    'expm-n3-tol1e-08-40.0': 'efb3c617b20fcd45774a',
    'expm-n3-tol1e-08-40.0-2d': 'efb3c617b20fcd45774a',
    'expm-n3-tol1e-08-0.02,11.0,0.7': 'bf641164fdb9596ebc25',
    'expm-n3-tol1e-08-3.0,3.0,0.0001': 'ddfeb138d7dab3851c6e',
    'expm-n5-tol1e-14-0.0': 'ce4353b0c8018b7819ed',
    'expm-n5-tol1e-14-0.0-2d': 'ce4353b0c8018b7819ed',
    'expm-n5-tol1e-14-0.3': '88cce6dcebffd00869d0',
    'expm-n5-tol1e-14-0.3-2d': '88cce6dcebffd00869d0',
    'expm-n5-tol1e-14-7.0': '5a2d99880a8a5f73b719',
    'expm-n5-tol1e-14-7.0-2d': '5a2d99880a8a5f73b719',
    'expm-n5-tol1e-14-40.0': '0be17cef38cea7621922',
    'expm-n5-tol1e-14-40.0-2d': '0be17cef38cea7621922',
    'expm-n5-tol1e-14-0.02,11.0,0.7': 'd7c11235248c4d3d6d5e',
    'expm-n5-tol1e-14-3.0,3.0,0.0001': 'a274d7cb42cc69e59907',
    'expm-n5-tol1e-13-0.0': 'ce4353b0c8018b7819ed',
    'expm-n5-tol1e-13-0.0-2d': 'ce4353b0c8018b7819ed',
    'expm-n5-tol1e-13-0.3': 'b520aa0d88ac1174597f',
    'expm-n5-tol1e-13-0.3-2d': 'b520aa0d88ac1174597f',
    'expm-n5-tol1e-13-7.0': '5a2d99880a8a5f73b719',
    'expm-n5-tol1e-13-7.0-2d': '5a2d99880a8a5f73b719',
    'expm-n5-tol1e-13-40.0': '0be17cef38cea7621922',
    'expm-n5-tol1e-13-40.0-2d': '0be17cef38cea7621922',
    'expm-n5-tol1e-13-0.02,11.0,0.7': '74d786ae633a46212219',
    'expm-n5-tol1e-13-3.0,3.0,0.0001': 'a6601690f83ce7907305',
    'expm-n5-tol1e-08-0.0': 'ce4353b0c8018b7819ed',
    'expm-n5-tol1e-08-0.0-2d': 'ce4353b0c8018b7819ed',
    'expm-n5-tol1e-08-0.3': '8b4332f575ba12878d29',
    'expm-n5-tol1e-08-0.3-2d': '8b4332f575ba12878d29',
    'expm-n5-tol1e-08-7.0': 'e8010d0ad1c626fd8451',
    'expm-n5-tol1e-08-7.0-2d': 'e8010d0ad1c626fd8451',
    'expm-n5-tol1e-08-40.0': '7e47f7582e5f74b3f80c',
    'expm-n5-tol1e-08-40.0-2d': '7e47f7582e5f74b3f80c',
    'expm-n5-tol1e-08-0.02,11.0,0.7': 'f3430df3bd2cc3ca040c',
    'expm-n5-tol1e-08-3.0,3.0,0.0001': '5679dcb986b720a015c7',
    'expm-n8-tol1e-14-0.0': 'a66c97c6b2f25d293b09',
    'expm-n8-tol1e-14-0.0-2d': 'a66c97c6b2f25d293b09',
    'expm-n8-tol1e-14-0.3': '31a217f7c139707ed683',
    'expm-n8-tol1e-14-0.3-2d': '31a217f7c139707ed683',
    'expm-n8-tol1e-14-7.0': '717fe8bf0a067185a027',
    'expm-n8-tol1e-14-7.0-2d': '717fe8bf0a067185a027',
    'expm-n8-tol1e-14-40.0': '7d0526e7ef9ebcf2aa39',
    'expm-n8-tol1e-14-40.0-2d': '7d0526e7ef9ebcf2aa39',
    'expm-n8-tol1e-14-0.02,11.0,0.7': 'caf06c8e2616a9220183',
    'expm-n8-tol1e-14-3.0,3.0,0.0001': '772519c8e21ba02a8ce5',
    'expm-n8-tol1e-13-0.0': 'a66c97c6b2f25d293b09',
    'expm-n8-tol1e-13-0.0-2d': 'a66c97c6b2f25d293b09',
    'expm-n8-tol1e-13-0.3': '28fdb198db2a4bb08ce3',
    'expm-n8-tol1e-13-0.3-2d': '28fdb198db2a4bb08ce3',
    'expm-n8-tol1e-13-7.0': '717fe8bf0a067185a027',
    'expm-n8-tol1e-13-7.0-2d': '717fe8bf0a067185a027',
    'expm-n8-tol1e-13-40.0': '7d0526e7ef9ebcf2aa39',
    'expm-n8-tol1e-13-40.0-2d': '7d0526e7ef9ebcf2aa39',
    'expm-n8-tol1e-13-0.02,11.0,0.7': 'caf06c8e2616a9220183',
    'expm-n8-tol1e-13-3.0,3.0,0.0001': '8ed7eb26f9d1fc8468d4',
    'expm-n8-tol1e-08-0.0': 'a66c97c6b2f25d293b09',
    'expm-n8-tol1e-08-0.0-2d': 'a66c97c6b2f25d293b09',
    'expm-n8-tol1e-08-0.3': '5d93148764790b39cc4f',
    'expm-n8-tol1e-08-0.3-2d': '5d93148764790b39cc4f',
    'expm-n8-tol1e-08-7.0': '3a4052510880b69b7747',
    'expm-n8-tol1e-08-7.0-2d': '3a4052510880b69b7747',
    'expm-n8-tol1e-08-40.0': 'a669381cc57f5fb206e9',
    'expm-n8-tol1e-08-40.0-2d': 'a669381cc57f5fb206e9',
    'expm-n8-tol1e-08-0.02,11.0,0.7': '78c675068f175804d79d',
    'expm-n8-tol1e-08-3.0,3.0,0.0001': 'ae1194294992749adb05',
    'generator_fd-d1-f0-h0.001': 'dc5bd650ee05afade251',
    'generator_fd-d1-f0-h0.05': '06e28bb8ae48aef94557',
    'generator_fd-d1-f1-h0.001': '986fc63c413c28a9e7fb',
    'generator_fd-d1-f1-h0.05': '105e682f9eb4a084509c',
    'generator_fd-d1-f2-h0.001': '5aeb9f397a318ec11c3a',
    'generator_fd-d1-f2-h0.05': '02d1c6376785c1bf2d1b',
    'generator_fd-d2-f0-h0.001': '22fb9741c4fd803820cc',
    'generator_fd-d2-f0-h0.05': '2d3894eac3b84ef29fdb',
    'generator_fd-d2-f1-h0.001': '5b7c760d847a3a099bab',
    'generator_fd-d2-f1-h0.05': '57fc0c6010d6ef6c5303',
    'generator_fd-d2-f2-h0.001': 'd49cc76e6d0e1c2c43f5',
    'generator_fd-d2-f2-h0.05': '422fc11c95f4f1798610',
    'generator_fd-d3-f0-h0.001': '63edce6192d8eaea5dae',
    'generator_fd-d3-f0-h0.05': '7b424172c73ff73810d5',
    'generator_fd-d3-f1-h0.001': '3bbc12535dd279b0b71a',
    'generator_fd-d3-f1-h0.05': '0c8e6a999f362be4227c',
    'generator_fd-d3-f2-h0.001': '4846c3c711334c342eed',
    'generator_fd-d3-f2-h0.05': 'e84a4c31adc148412e29',
    'expm-n1-tol1e-14-2.5,3.0,3.5': '5e651c6ddef184a3d1f8',
    'expm-n1-tol1e-13-2.5,3.0,3.5': '5e651c6ddef184a3d1f8',
    'expm-n1-tol1e-08-2.5,3.0,3.5': '0508422e81f42eae9cf8',
    'expm-n2-tol1e-14-2.5,3.0,3.5': '49e94fc464e41aedfa43',
    'expm-n2-tol1e-13-2.5,3.0,3.5': '49e94fc464e41aedfa43',
    'expm-n2-tol1e-08-2.5,3.0,3.5': '04c6d739048578c3752a',
    'expm-n3-tol1e-14-2.5,3.0,3.5': 'deed8c5dfa23bfdfe52f',
    'expm-n3-tol1e-13-2.5,3.0,3.5': 'deed8c5dfa23bfdfe52f',
    'expm-n3-tol1e-08-2.5,3.0,3.5': 'ca487b1430626f6dc7cb',
    'expm-n5-tol1e-14-2.5,3.0,3.5': '14e13bb9aa1ded6a6642',
    'expm-n5-tol1e-13-2.5,3.0,3.5': '14e13bb9aa1ded6a6642',
    'expm-n5-tol1e-08-2.5,3.0,3.5': '4756dbdb7394a53208a2',
    'expm-n8-tol1e-14-2.5,3.0,3.5': '0e0779bd09992859e15b',
    'expm-n8-tol1e-13-2.5,3.0,3.5': '0e0779bd09992859e15b',
    'expm-n8-tol1e-08-2.5,3.0,3.5': 'ad92fba83f6645029be4',
    'check_laws-d1-0.25,0.5': 'd5cf14be63e3afaab610',
    'check_laws-d1-0.05,3.0': '0a7b0948320a1053b0bd',
    'check_laws-d1-0.0,0.7': 'cfe7a45f2d3e934229e3',
    'check_laws-d1-1.5,1.5': '64037ef569efec96fb58',
    'check_laws-d2-0.25,0.5': 'a1fb4be97b225e9aae6d',
    'check_laws-d2-0.05,3.0': 'fc5208251f3774eae566',
    'check_laws-d2-0.0,0.7': 'cfe7a45f2d3e934229e3',
    'check_laws-d2-1.5,1.5': '6be33bb66137e3332e26',
    'check_laws-d3-0.25,0.5': '2088434d6abdf6579f93',
    'check_laws-d3-0.05,3.0': '9111d0bd877079a2ba1c',
    'check_laws-d3-0.0,0.7': 'cfe7a45f2d3e934229e3',
    'check_laws-d3-1.5,1.5': '3bb688642dd373cd06bb',
    'check_laws-d4-0.25,0.5': '0e91569c9d35fc6cc4f6',
    'check_laws-d4-0.05,3.0': '77d9c887f9e80787c6b1',
    'check_laws-d4-0.0,0.7': 'cfe7a45f2d3e934229e3',
    'check_laws-d4-1.5,1.5': '9e6e5738f30ec0462a58',
    'check_laws-d8-0.25,0.5': '8c4cb1929e6fe0a09099',
    'check_laws-d8-0.05,3.0': '648c0b5bb75c7fb77a9f',
    'check_laws-d8-0.0,0.7': 'cfe7a45f2d3e934229e3',
    'check_laws-d8-1.5,1.5': '621e4c3441fa995aaa04',
}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_the_time_path_keeps_its_recorded_bits(case):
    assert _CASES[case]() == _RECORDED[case]


def test_every_case_is_recorded():
    assert sorted(_RECORDED) == sorted(_CASES)


def _componentwise(S1, S2=None):
    """``symbol_distance`` (or, with one symbol, ``_magnitude``) as the
    largest of its per-component maxima, one reduction per component."""
    def diff(name):
        return getattr(S1, name) - (getattr(S2, name) if S2 else 0)

    with np.errstate(over="ignore"):
        return max(abs(diff("theta")), *(float(np.abs(diff(n)).max()) for n in ("ell", "Q", "q")))


@pytest.mark.filterwarnings("error")
def test_distance_and_magnitude_are_the_componentwise_maxima():
    from fockwc.symbols import _magnitude, adjoint_symbol, compose, symbol_distance

    rng = np.random.default_rng(2900)
    for d in (1, 2, 3, 8):
        for _ in range(20):
            S = fw.WcSymbol(*(complex(_crandn(rng)[()]), _crandn(rng, d),
                              _crandn(rng, d, d), _crandn(rng, d)))
            T = adjoint_symbol(compose(S, S))  # a column-major Q
            for A, B in ((S, T), (T, S), (S, S)):
                assert symbol_distance(A, B).hex() == _componentwise(A, B).hex()
                assert _magnitude(A).hex() == _componentwise(A).hex()
    big = fw.WcSymbol(1.0, [1e308], [[-1e308]], [0.0])
    small = fw.WcSymbol(1.0, [-1e308], [[1e308]], [0.0])
    assert symbol_distance(big, small) == _componentwise(big, small) == np.inf
