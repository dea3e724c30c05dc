"""Set-up time of one fresh interpreter: ``import fockwc``, then one warm-up
op per distinct input shape (input generation excluded).

    python benchmarks/setup_child.py <workload> <seed> <trace 0|1>

Prints one JSON object.  With trace 1 it instead times, per section shape
of the workload, the first ``trunc_symbol_matrix`` call (which builds the
(d, N) index tables) and a second, warm one.
"""

import time

_t0 = time.perf_counter()
import fockwc  # noqa: E402

_t1 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402


def main():
    name, seed, traced = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    out = {"setup_s": _t1 - _t0, "section_setup_s": 0.0}
    if name in workloads.WORKLOADS:
        wl = workloads.WORKLOADS[name]
        cases = wl.prepare(fockwc, np.random.default_rng(seed))
        if traced:
            for S, N in wl.section_shapes(fockwc, cases):
                t0 = time.perf_counter()
                fockwc.oracle.trunc_symbol_matrix(S, N)
                t1 = time.perf_counter()
                fockwc.oracle.trunc_symbol_matrix(S, N)
                t2 = time.perf_counter()
                out["section_setup_s"] += (t1 - t0) - (t2 - t1)
        else:
            t2 = time.perf_counter()
            wl.warmup(fockwc, cases)
            out["setup_s"] += time.perf_counter() - t2
    print(json.dumps(out))


if __name__ == "__main__":
    main()
