"""Benchmark for fockwc: four workloads, end-to-end and per-layer metrics.

    python3 benchmarks/run.py --workload {certify,crosscheck,flow,cli}
                              --seed N --seconds S --trace {0,1}

Run from a checkout: the package is imported from ``src/`` next to this
directory, never from an installed copy, and the run stops with exit code 2
if ``src/fockwc`` is missing.  Each run is a closed loop with one client:
the next op starts when the previous one has returned.  The inputs come
from ``--seed`` alone and are cycled in a fixed order; every run completes
at least one full pass over them, so the accuracy figure covers the same
inputs however fast the program is.  Every op is checked against its
acceptance bound outside the timed region.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` measures half
the time untraced and half with wrappers around the package's layer entry
points, and reports the per-layer metrics and the tracing overhead.  The
last line of standard output is one JSON object; the lines before it
restate every metric with its unit and record the environment.

BLAS keeps its default threading (OpenBLAS uses every core): pinning it to
one thread made ``crosscheck`` about 35% slower, which would change what
is measured.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import warnings
from pathlib import Path

import numpy as np

import calibrate
import cliload
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
SETUP_REPEATS = 5
TRACED_SETUP_REPEATS = 3


def load_spec() -> dict:
    """BENCHMARK.json: the workloads and the metric names and units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def parse_args(spec, argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def fresh_setups(workload: str, seed: int, traced: bool, repeats: int) -> list[dict]:
    """Set-up measurements from ``repeats`` fresh interpreters, each with the
    factor to reference speed from the reference children around it."""
    refs = [calibrate.child_time()]
    out = []
    for _ in range(repeats):
        proc = cliload.run_child(
            ROOT, [str(HERE / "setup_child.py"), workload, str(seed),
                   "1" if traced else "0"], check=True)
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        refs.append(calibrate.child_time())
        rec["factor"] = calibrate.CHILD_REF_S / statistics.fmean(refs[-2:])
        out.append(rec)
    return out


def environment(seed: int) -> dict:
    import ctypes
    from importlib import metadata

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = "default"
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("lib*openblas*.so*"):
        fn = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            threads = int(fn())
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_threading": "library default, not pinned",
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(wl, fw, cases, seconds: float, tracer=None) -> dict:
    """Closed loop over the cases for ``seconds``, at least one full pass.

    Latencies are returned at reference speed (see calibrate.py), raw
    latencies alongside.
    """
    cal = wl.calibration()
    cal.sample()
    starts, raw, cls, margins = [], [], [], []
    failed = 0
    deadline = time.perf_counter() + seconds
    i = 0
    while i < len(cases) or time.perf_counter() < deadline:
        case = cases[i % len(cases)]
        if tracer is not None:
            tracer.begin_op(i)
        t0 = time.perf_counter()
        try:
            result, error = wl.op(fw, case), None
        except Exception as exc:  # a raising op is a failed op; keep measuring
            result, error = None, exc
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.end_op()
        cal.after_op(t1 - t0)
        ok, m = (False, []) if error is not None else wl.check(case, result)
        failed += not ok
        if m:
            margins.append(min(m))
        starts.append(t0)
        raw.append(t1 - t0)
        cls.append(case["cls"])
        i += 1
    cal.sample()
    factors = cal.factors(starts)
    lat = [x * f for x, f in zip(raw, factors)]
    return {"lat": lat, "raw": raw, "factors": factors, "cls": cls,
            "margins": margins, "attempted": len(lat), "failed": failed,
            "reference_ratio": cal.median() / cal.ref_s,
            "reference_samples": len(cal.times), "throughput": len(lat) / sum(lat)}


def run_probes(wl, fw, probes) -> list[str]:
    """Known-defect inputs, run once each outside the measured loop."""
    outcomes = []
    for case in probes:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                result = wl.op(fw, case)
                ok, _ = wl.check(case, result)
                outcomes.append("pass" if ok else "wrong result: " + wl.describe(case, result))
            except Exception as exc:  # the defect under observation
                outcomes.append(f"raised {type(exc).__name__}: {exc}")
    return outcomes


def quantile_note(lat, cls, q: int) -> str:
    """Which op classes lie within 5% of a latency percentile."""
    v = percentile(lat, q)
    near = [c for x, c in zip(lat, cls) if abs(x - v) <= 0.05 * v]
    top = sorted({c: near.count(c) for c in near}.items(), key=lambda kv: -kv[1])[:3]
    share = ", ".join(f"{c} {n / len(near):.0%}" for c, n in top) if near else "none"
    return f"p{q} = {v * 1e3:.3f} ms; ops within 5%: {len(near)} ({share})"


def main(argv=None) -> int:
    spec = load_spec()
    args = parse_args(spec, argv)
    if not (SRC / "fockwc" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'fockwc'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    traced = args.trace == 1

    setups = fresh_setups(args.workload, args.seed,
                          traced, TRACED_SETUP_REPEATS if traced else SETUP_REPEATS)

    sys.path.insert(0, str(SRC))
    import fockwc as fw

    if Path(fw.__file__).resolve().parent != SRC / "fockwc":
        print(f"error: imported fockwc from {fw.__file__}, not {SRC}", file=sys.stderr)
        return 2

    why = {w["name"]: w["why"] for w in spec["workloads"]}[args.workload]
    WORKDIR.mkdir(exist_ok=True)
    rng = np.random.default_rng(args.seed)
    if args.workload == "cli":
        wl = cliload.Cli(ROOT, WORKDIR / f"cli-{os.getpid()}", fw)
    else:
        wl = workloads.WORKLOADS[args.workload]
    try:
        cases = wl.prepare(fw, rng)
        probes = wl.probes(fw, rng)
        wl.warmup(fw, cases)
        print("env " + json.dumps(environment(args.seed), sort_keys=True))
        print(f"workload {args.workload}: {len(cases)} inputs cycled; {why}")
        if traced:
            result, values = traced_run(args, wl, fw, cases, probes, setups)
        else:
            result, values = untraced_run(args, wl, fw, cases, probes, setups)
    finally:
        if args.workload == "cli":
            wl.cleanup()

    declared = {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}
    missing = [n for n in declared if n not in values]
    if missing:
        print("not exercised by this workload (reported as 0): " + ", ".join(missing))
    metrics = {n: (float(values.get(n, 0.0)), u) for n, u in declared.items()}
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:.6g} {unit}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def untraced_run(args, wl, fw, cases, probes, setups):
    result = measure(wl, fw, cases, args.seconds)
    outcomes = run_probes(wl, fw, probes)
    lat = result["lat"]
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": statistics.median(s["setup_s"] * s["factor"] for s in setups),
        "throughput_ops_s": result["throughput"],
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "latency_p90_ms": 1e3 * percentile(lat, 90),
        "tol_margin_decades": statistics.median(result["margins"]),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    print(f"accuracy margin: median over ops of each op's smallest margin "
          f"{metrics['tol_margin_decades']:.3f} dec; smallest in the run "
          f"{min(result['margins']):.3f} dec")
    p90 = percentile(lat, 90)
    beyond = sum(x > p90 for x in lat)
    print(f"ops {len(lat)}, failed {result['failed']}, samples beyond p90 {beyond}"
          + ("" if beyond >= 10 else " (fewer than 10: read p90 as a rough tail)"))
    print(quantile_note(lat, result["cls"], 50))
    print(quantile_note(lat, result["cls"], 90))
    raw = result["raw"]
    print(f"raw (not normalised): p50 {1e3 * statistics.median(raw):.3f} ms, "
          f"p90 {1e3 * percentile(raw, 90):.3f} ms, "
          f"throughput {len(raw) / sum(raw):.4g} ops/s; the reference task ran "
          f"{result['reference_ratio']:.3f}x its reference time "
          f"(median of {result['reference_samples']} samples)")
    print(f"setup_s raw from {len(setups)} fresh interpreters: "
          + ", ".join(f"{s['setup_s']:.4f} (x{s['factor']:.3f})" for s in setups))
    report_probes(outcomes)
    return result, metrics


def kernel_factor() -> float:
    """Factor to reference speed for an in-process time just measured."""
    return calibrate.KERNEL_REF_S / calibrate.kernel_time(repeats=5)


def child_factor() -> float:
    """Factor to reference speed for a child-process time just measured."""
    return calibrate.CHILD_REF_S / calibrate.child_time(repeats=3)


def report_probes(outcomes):
    for i, outcome in enumerate(outcomes):
        print(f"known-defect probe {i}: {outcome}")
    failed = sum(o != "pass" for o in outcomes)
    if outcomes:
        print(f"known-defect probes: {failed} of {len(outcomes)} fail "
              "(outside the measured loop; see benchmarks/README.md)")
    return failed


def traced_run(args, wl, fw, cases, probes, setups):
    """Half the time untraced, half traced; per-layer values by name."""
    half = args.seconds / 2.0
    layer = {}
    if args.workload == "cli":
        result = measure(wl, fw, cases, half)
        untraced = traced_thr = result["throughput"]
        layer["cli.spawn_s"] = wl.spawn_floor() * child_factor()
        layer["cli.run_s"] = wl.warm_run(cases) * kernel_factor()
        parse, emit = wl.codec_times(cases)
        layer["jsonio.parse_s"] = parse * kernel_factor()
        layer["jsonio.emit_s"] = emit * kernel_factor()
        print("in-process layer spans: not applicable, each op is a child "
              "process; tracing overhead is 0 by construction")
    else:
        first = measure(wl, fw, cases, half)
        untraced = first["throughput"]
        tracer = tracing.Tracer()
        tracer.install()
        try:
            result = measure(wl, fw, cases, half, tracer)
        finally:
            tracer.uninstall()
        traced_thr = result["throughput"]
        result["attempted"] += first["attempted"]
        result["failed"] += first["failed"]
        layer.update(tracer.reduce(result["factors"]))
        tracer.write(WORKDIR / f"spans-{args.workload}.tsv")
        print(f"spans: {len(tracer.spans)} written to .bench_work/spans-{args.workload}.tsv")
    outcomes = run_probes(wl, fw, probes)
    failed = report_probes(outcomes)
    split = cliload.import_split(ROOT)
    scale = child_factor()
    layer["cli.import_s"] = split["fockwc"] * scale
    layer["cli.import_numpy_s"] = split["numpy"] * scale
    layer["cli.import_scipy_s"] = split["scipy"] * scale
    layer["oracle.section.setup_s"] = statistics.median(
        s["section_setup_s"] * s["factor"] for s in setups)
    layer["machine.reference_ratio"] = result["reference_ratio"]
    layer["trace.untraced_ops_s"] = untraced
    layer["trace.traced_ops_s"] = traced_thr
    layer["trace.overhead_ratio"] = 1.0 - traced_thr / untraced
    layer["known_defect.attempted"] = len(outcomes)
    layer["known_defect.fail_ratio"] = failed / len(outcomes) if outcomes else 0.0
    if args.workload == "cli":
        layer["cli.exit_mismatch"] = wl.exit_mismatch
        layer["cli.nonstrict_json"] = wl.nonstrict
    return result, layer


if __name__ == "__main__":
    sys.exit(main())
