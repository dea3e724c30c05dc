"""cross_check builds its section block in a per-thread workspace; every
other section is a fresh array."""

import sys
import threading
import tracemalloc

import numpy as np

from fockwc import WcSymbol, cross_check
from fockwc import oracle
from fockwc.linalg import op_norm
from helpers import crandn

# the four (d, N) shapes of the benchmark's crosscheck rounds
SHAPES = ((2, 12), (3, 10), (3, 12), (4, 10))


def _case(rng, d, N):
    """A symbol and point whose truncation bound at N is far below 1e-8."""
    Q = crandn(rng, d, d)
    S = WcSymbol(0.8 + 0.2j, crandn(rng, d, scale=0.05), Q * (0.3 / op_norm(Q)),
                 crandn(rng, d, scale=0.05))
    w = crandn(rng, d)
    return S, 0.3 * w / np.linalg.norm(w), N


def test_warm_cross_check_allocates_no_block():
    S, w, N = _case(np.random.default_rng(3), 4, 10)
    tab = oracle._tables(4, N)
    block_bytes = 16 * tab.graded_end[N // 2 + 1] * len(tab.indices)  # 1,971 KiB
    cross_check(S, w, N)
    tracemalloc.start()
    try:
        cross_check(S, w, N)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < block_bytes / 3


def test_threads_build_in_their_own_workspace():
    rng = np.random.default_rng(5)
    cases = [_case(rng, d, N) for d, N in SHAPES]
    want = [cross_check(*c).hex() for c in cases]
    barrier = threading.Barrier(len(cases), timeout=30)
    got = [[] for _ in cases]

    def worker(i):
        barrier.wait()
        # each thread starts at another shape, so blocks of different
        # sizes are built at the same time
        for r in range(12):
            j = (i + r) % len(cases)
            got[i].append((j, cross_check(*cases[j]).hex()))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(cases))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for results in got:
        assert len(results) == 12
        assert all(h == want[j] for j, h in results)


def test_sections_are_fresh_arrays():
    rng = np.random.default_rng(7)
    S, T = (_case(rng, 3, 6)[0] for _ in range(2))
    for rows in (None, 3):
        a = oracle._wc_section(S.theta, np.conj(S.ell), S.Q, S.q, 6, rows=rows)
        kept = a.copy()
        b = oracle._wc_section(T.theta, np.conj(T.ell), T.Q, T.q, 6, rows=rows)
        assert not np.shares_memory(a, b)
        assert np.array_equal(a, kept) and not np.array_equal(a, b)


def test_threads_racing_on_fresh_tables_get_the_single_threaded_bits():
    # (2, 11) is built nowhere else, so its tables, the run tables of its row
    # bound 5 among them, are made while the threads race on them
    rng = np.random.default_rng(11)
    cases = [_case(rng, 2, 11) for _ in range(4)]
    oracle._TABLES.pop((2, 11), None)
    barrier = threading.Barrier(len(cases), timeout=30)
    got = [None] * len(cases)

    def worker(i):
        barrier.wait()
        got[i] = [cross_check(*cases[(i + r) % len(cases)]).hex() for r in range(len(cases))]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(cases))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    oracle._TABLES.pop((2, 11))
    want = [cross_check(*c).hex() for c in cases]
    for i, results in enumerate(got):
        assert results == [want[(i + r) % len(cases)] for r in range(len(cases))]
