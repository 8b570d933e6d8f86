#!/usr/bin/env python3
"""Seeded end-to-end and per-layer benchmark of moment2d.

    python3 perfbench/run.py --workload table-recover --seed 1 --seconds 30 --trace 0

Runs one workload in this single process with BLAS pinned to one
thread.  Set-up (seeded input generation, the CLI's JSON inputs, one
warm-up operation) is repeated and timed; then operations run back to
back in a closed loop (one caller, next operation after the previous one
returns) for ``--seconds``, each judged by the workload's oracle outside
the timed interval.

Times are corrected for the speed of the host: see ``HostClock``.

After the measurement, ``table-recover`` also judges its untimed
known-defect probe (``TableRecover.probe``) and prints how many of its
tables were misrecovered; the probe is not in ``attempted`` or ``failed``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs every input twice, untraced and traced in alternating
order, checks that both give the same output, and reports the per-layer
metrics from the spans plus the tracing overhead; spans are written to
``.perfbench_results/`` when the run ends.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; ``--out FILE`` also appends a fuller record to FILE.

The program is imported from ``src/`` next to this directory and from
nowhere else; without it the run exits with status 2 and no result.
"""

import os
import sys
import time

T_START = time.perf_counter()

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402

from common import ROOT, deciles  # noqa: E402

SRC = os.path.join(ROOT, "src")
SETUP_MIN_REPS = 9
SETUP_MAX_REPS = 41
SETUP_MIN_S = 6.0
SETUP_CHUNK_S = 0.01
CLOCK_SAMPLES_AROUND_SETUP = 10
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
RESULTS_DIR = os.path.join(ROOT, ".perfbench_results")


def import_program():
    """Import moment2d from this checkout's ``src/`` or exit with 2."""
    sys.path.insert(0, SRC)
    try:
        import moment2d
    except ImportError as exc:
        sys.stderr.write(f"perfbench: cannot import moment2d from {SRC}: {exc}\n")
        sys.exit(2)
    origin = os.path.realpath(moment2d.__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        sys.stderr.write(f"perfbench: moment2d came from {origin}, "
                         f"not from {SRC}\n")
        sys.exit(2)


class HostClock:
    """Speed of the host, measured next to the operations.

    On a shared host the same instructions run up to ~40% slower for tens
    of seconds at a time while other tenants load the core; CPU time
    slows as much as wall time.  Uncorrected, runs of the same code
    spread by ~20% between quartiles.  So a fixed reference kernel (small
    LAPACK calls plus an interpreter loop, the program's own mix) runs
    once before every timed operation, and each operation's time is
    scaled by ``NOMINAL_S`` over the median kernel time of the
    ``WINDOW`` operations on either side of it: times read as on a host
    where the kernel takes ``NOMINAL_S``, close to its fastest time on an
    idle core of the 2-vCPU x86-64 host the bounds were set on.  The
    kernel never calls moment2d, so a change to the program moves only
    the operation times.
    """

    NOMINAL_S = 3.0e-4
    WINDOW = 10

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self._np = np
        self._a = rng.normal(size=(24, 24)) + 1j * rng.normal(size=(24, 24))
        self._h = self._a + self._a.conj().T
        self.samples: list[float] = []

    def sample(self):
        np, a, h = self._np, self._a, self._h
        t0 = time.perf_counter()
        np.linalg.eigh(h)
        np.linalg.solve(a, h)
        np.linalg.svd(a, compute_uv=False)
        np.linalg.qr(a)
        acc = 0.0
        for i in range(400):
            acc += abs(complex(i, 1.0))
        self.samples.append(time.perf_counter() - t0)

    def factors(self, start: int = 0) -> list[float]:
        """Correction for each sample since index ``start``, from the
        window of samples around it."""
        s, w = self.samples, self.WINDOW
        return [self.NOMINAL_S / statistics.median(s[max(0, j - w):j + w + 1])
                for j in range(start, len(s))]


def environment() -> dict:
    import numpy
    import scipy

    def blas(cfg):
        try:
            dep = cfg(mode="dicts")["Build Dependencies"]["blas"]
            return f"{dep.get('name')} {dep.get('version')}"
        except (KeyError, TypeError, AttributeError):
            return "unknown"

    return {"python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "numpy_blas": blas(numpy.show_config),
            "scipy_blas": blas(scipy.show_config),
            "nproc": os.cpu_count(),
            "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
            "machine": platform.machine()}


def attempt(workload, case):
    try:
        return workload.run(case), None
    except Exception as exc:   # counted as a failed operation
        return None, exc


def judge(workload, case, result, error):
    from workloads import Outcome, error_key
    if error is not None:
        return Outcome(error_key(error))
    return workload.check(case, result)


def set_up(workload, seed: int, clock: HostClock):
    """Set up repeatedly: generate the inputs (and the files they need)
    and run one warm-up operation, at least ``SETUP_MIN_REPS`` times and
    until ``SETUP_MIN_S`` have passed, at most ``SETUP_MAX_REPS`` times.
    The clock is sampled about every ``SETUP_CHUNK_S`` in between, and
    each chunk is host-corrected by the window of samples around it.
    Returns the last pool and every repetition's time."""
    times = []
    cases = None
    began = time.perf_counter()
    while len(times) < SETUP_MAX_REPS and (
            len(times) < SETUP_MIN_REPS
            or time.perf_counter() - began < SETUP_MIN_S):
        cases = None
        gc.collect()
        for _ in range(CLOCK_SAMPLES_AROUND_SETUP):
            clock.sample()
        start = len(clock.samples) - 1
        chunks = []
        cases = []
        t0 = time.perf_counter()
        for case in workload.setup(seed):
            cases.append(case)
            if time.perf_counter() - t0 >= SETUP_CHUNK_S:
                chunks.append(time.perf_counter() - t0)
                clock.sample()
                t0 = time.perf_counter()
        attempt(workload, cases[0])
        chunks.append(time.perf_counter() - t0)
        for _ in range(CLOCK_SAMPLES_AROUND_SETUP):
            clock.sample()
        factors = clock.factors(start)
        times.append(sum(t * f for t, f in zip(chunks, factors)))
    return cases, times


def timed_loop(seconds: float, step):
    """Call ``step(i)`` for i = 0, 1, ... until ``seconds`` have passed."""
    gc.collect()
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        step(i)
        i += 1
        if time.perf_counter() >= deadline:
            return i


def measure_plain(workload, cases, seconds: float, clock: HostClock) -> dict:
    latencies, outcomes = [], []
    start = len(clock.samples)

    def step(i):
        case = cases[i % len(cases)]
        clock.sample()
        t0 = time.perf_counter()
        result, error = attempt(workload, case)
        latencies.append(time.perf_counter() - t0)
        outcomes.append(judge(workload, case, result, error))

    timed_loop(seconds, step)
    return {"latencies": latencies, "outcomes": outcomes,
            "factors": clock.factors(start)}


def run_probe(workload, seed: int) -> list:
    """Outcomes of the workload's known-defect probe, untimed; empty when
    it has none."""
    probe = getattr(workload, "probe", None)
    if probe is None:
        return []
    return [judge(workload, case, *attempt(workload, case))
            for case in probe(seed)]


def trace_targets():
    """``(owner, attribute, span name, observer)`` for every call from one
    layer into the next on the three workload paths."""
    from moment2d import cli, gns, io, resolvents, solutions
    from moment2d.cayley import IsometricPair
    return [
        (gns, "moment_matrix", "moments.moment_matrix", None),
        (solutions, "build_gns", "gns.build_gns", _gram_seen),
        (solutions, "build_operators", "gns.build_operators", None),
        (solutions, "build_isometric_pair", "cayley.build_isometric_pair", None),
        (cli, "build_isometric_pair", "cayley.build_isometric_pair", None),
        (solutions, "moments_from_pair", "solutions.moments_from_pair", None),
        (solutions, "enumerate_commutant_unitaries",
         "solutions.enumerate_commutant_unitaries", None),
        (solutions, "canonical_extension", "solutions.canonical_extension", None),
        (solutions, "joint_spectral_measure",
         "solutions.joint_spectral_measure", None),
        (solutions, "verify_solution", "solutions.verify_solution", _report_seen),
        (io, "read_json", "io.read_json", None),
        (io, "pair_from_json", "io.pair_from_json", None),
        (io, "complex_matrix_from_json", "io.complex_matrix_from_json", None),
        (cli, "pair_resolvent_symmetric",
         "resolvents.pair_resolvent_symmetric", None),
        (resolvents, "constant_admissibility",
         "cayley.constant_admissibility", None),
        (IsometricPair, "operator_domain", "cayley.operator_domain", None),
        (resolvents, "commutation_check", "cayley.commutation_check", None),
        (resolvents, "unitary_moebius", "resolvents.unitary_moebius", None),
    ]


def _gram_seen(counts, space):
    counts["gns.calls"] += 1
    counts["gns.gram_size"] += space.gram.shape[0]
    counts["gns.rank"] += space.rank


def _report_seen(counts, report):
    counts["reports"] += 1
    counts["reports_passed"] += bool(report.passed)


def measure_traced(workload, cases, seconds: float, tracer) -> dict:
    """Untraced and traced run of each input, in alternating order."""
    targets = trace_targets()
    plain, traced, outcomes, bytes_out = [], [], [], []
    mismatches = 0

    def run_plain(case):
        t0 = time.perf_counter()
        result, error = attempt(workload, case)
        plain.append(time.perf_counter() - t0)
        return result, error

    def run_traced(case, i):
        tracer.op = i
        with tracer.patched(targets):
            t0 = time.perf_counter()
            with tracer.span(workload.top_span):
                result, error = attempt(workload, case)
            traced.append(time.perf_counter() - t0)
        return result, error

    def step(i):
        nonlocal mismatches
        case = cases[i % len(cases)]
        if i % 2:
            res_t, err_t = run_traced(case, i)
            res_p, err_p = run_plain(case)
        else:
            res_p, err_p = run_plain(case)
            res_t, err_t = run_traced(case, i)
        if err_p is not None or err_t is not None:
            same = type(err_p) is type(err_t) and str(err_p) == str(err_t)
        else:
            same = workload.same(res_p, res_t)
        mismatches += not same
        outcomes.append(judge(workload, case, res_t, err_t))
        bytes_out.append(workload.bytes_out(res_t) if err_t is None else 0)

    ops = timed_loop(seconds, step)
    return {"ops": ops, "plain": plain, "traced": traced,
            "outcomes": outcomes, "mismatches": mismatches,
            "bytes_out": bytes_out}


def layer_metrics(tracer, run: dict, probe_fail_ratio: float) -> dict:
    """``name: (value, unit, samples)`` for every per-layer metric, from
    the spans (wall time, not host-corrected: they have no bound and are
    read as shares); the samples are the traced operations."""
    ops = run["ops"]
    totals = tracer.totals()
    counts = tracer.counts

    def entry(name):
        return totals.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                 "errors": {}})

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for name in ("moments.moment_matrix", "gns.build_gns",
                 "gns.build_operators", "cayley.build_isometric_pair",
                 "solutions.moments_from_pair",
                 "solutions.enumerate_commutant_unitaries",
                 "solutions.canonical_extension",
                 "solutions.joint_spectral_measure",
                 "solutions.verify_solution", "io.read_json",
                 "io.pair_from_json"):
        out[f"{name}.ms"] = (entry(name)["total_s"] * 1e3 / ops, "ms")
    for name in ("solutions.solve_canonical", "cli.main"):
        out[f"{name}.self_ms"] = (entry(name)["self_s"] * 1e3 / ops, "ms")
    out["gns.gram_size"] = (ratio(counts["gns.gram_size"], counts["gns.calls"]), "count")
    out["gns.rank"] = (ratio(counts["gns.rank"], counts["gns.calls"]), "count")
    ext = entry("solutions.canonical_extension")
    out["solutions.params_tried"] = (ext["calls"] / ops, "count")
    out["solutions.params_rejected"] = (
        ext["errors"].get("FixedPointError", 0) / ops, "count")
    out["solutions.accept_ratio"] = (ratio(counts["reports"], ext["calls"]), "ratio")
    out["solutions.verify_passed_ratio"] = (
        ratio(counts["reports_passed"], counts["reports"]), "ratio")
    prs = entry("resolvents.pair_resolvent_symmetric")
    excluded = prs["errors"].get("ExcludedPointError", 0)
    points = prs["calls"] - excluded
    for name in ("cayley.constant_admissibility", "cayley.operator_domain",
                 "cayley.commutation_check", "resolvents.unitary_moebius",
                 "resolvents.pair_resolvent_symmetric"):
        out[f"{name}.us_per_point"] = (ratio(entry(name)["total_s"] * 1e6, points), "us")
    out["resolvents.pair_resolvent_symmetric.self_us_per_point"] = (
        ratio(prs["self_s"] * 1e6, points), "us")
    out["resolvents.points"] = (points / ops, "count")
    out["resolvents.excluded"] = (excluded / ops, "count")
    out["io.bytes_out"] = (sum(run["bytes_out"]) / ops, "bytes")
    for key, n in fail_counts(run["outcomes"]).items():
        out[f"fail.{key}"] = (n, "count")
    out["gns.probe_fail_ratio"] = (probe_fail_ratio, "ratio")
    out["trace.ops"] = (ops, "count")
    plain, traced = sum(run["plain"]), sum(run["traced"])
    out["trace.overhead_pct"] = (100.0 * (traced - plain) / plain, "%")
    out["trace.output_mismatches"] = (run["mismatches"], "count")
    return {k: (v, unit, ops) for k, (v, unit) in out.items()}


def end_to_end_metrics(run: dict, setup_times: list, peak_rss_mb: float) -> dict:
    """``name: (value, unit, samples)`` for every end-to-end metric."""
    lat = [t * f for t, f in zip(run["latencies"], run["factors"])]
    outcomes = run["outcomes"]
    d = deciles(lat)
    n = len(lat)
    return {
        "ops_per_s": (n / sum(lat), "1/s", n),
        "op_ms_p50": (d[4] * 1e3, "ms", n),
        "op_ms_p90": (d[8] * 1e3, "ms", n),
        "ok_ratio": (sum(o.ok for o in outcomes) / len(outcomes), "ratio", n),
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
    }


def raw_metrics(run: dict) -> dict:
    """The same latency figures without the host correction."""
    lat = run["latencies"]
    d = deciles(lat)
    return {"ops_per_s": len(lat) / sum(lat),
            "op_ms_p50": d[4] * 1e3,
            "op_ms_p90": d[8] * 1e3,
            "host_factor": statistics.median(run["factors"])}


def ratio_failed(outcomes) -> float:
    return sum(not o.ok for o in outcomes) / len(outcomes) if outcomes else 0.0


def fail_counts(outcomes) -> dict:
    from workloads import FAIL_KEYS
    counts = {key: 0 for key in FAIL_KEYS}
    for o in outcomes:
        if o.fail is not None:
            counts[o.fail] += 1
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="append a full JSON record of the run here")
    args = parser.parse_args(argv)

    import_program()
    from workloads import WORKLOADS
    import spans
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    import_s = time.perf_counter() - T_START

    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = os.path.join(WORK_DIR, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    clock = HostClock()
    extra = {}
    try:
        workload = WORKLOADS[args.workload](workdir)
        cases, setup_times = set_up(workload, args.seed, clock)
        if args.trace:
            tracer = spans.Tracer()
            run = measure_traced(workload, cases, args.seconds, tracer)
            probe = run_probe(workload, args.seed)
            metrics = layer_metrics(tracer, run, ratio_failed(probe))
            os.makedirs(RESULTS_DIR, exist_ok=True)
            tracer.write(os.path.join(
                RESULTS_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"))
        else:
            run = measure_plain(workload, cases, args.seconds, clock)
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = end_to_end_metrics(run, setup_times, peak)
            extra["raw"] = raw_metrics(run)
            probe = run_probe(workload, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    outcomes = run["outcomes"]
    attempted = len(outcomes)
    failed = sum(not o.ok for o in outcomes)
    silent = sum(o.silent for o in outcomes)
    # Failures are deterministic per input, so the share of distinct
    # inputs that failed is the same in every run of one seed and code.
    inputs = min(attempted, len(cases))
    input_fail_ratio = len({i % len(cases) for i, o in enumerate(outcomes)
                            if not o.ok}) / inputs
    correct = silent == 0 and run.get("mismatches", 0) == 0
    fails = fail_counts(outcomes)
    env = environment()
    print(f"# workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}, closed loop, 1 caller")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# ops {attempted}, failed {failed} (fail_ratio "
          f"{failed / attempted:.4f}; of {inputs} distinct inputs "
          f"{input_fail_ratio:.4f}), silent wrong {silent}, "
          f"failures {json.dumps(fails)}")
    if probe:
        print(f"# known-defect probe (untimed, not in attempted or failed): "
              f"{sum(not o.ok for o in probe)} of {len(probe)} tables "
              f"misrecovered, silent wrong {sum(o.silent for o in probe)}, "
              f"failures {json.dumps(fail_counts(probe))}")
    print(f"# imports from process start {import_s:.4f} s (not in setup_s)")
    if "raw" in extra:
        print(f"# uncorrected: {json.dumps(extra['raw'])}")
    for name, (value, unit, n) in metrics.items():
        print(f"{name:58s} {value:14.6g} {unit:6s} n={n}")
    record = {"correct": bool(correct), "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u, _) in metrics.items()}}
    if args.out:
        full = dict(record, workload=args.workload, seed=args.seed,
                    seconds=args.seconds, trace=args.trace, env=env,
                    fail_ratio=failed / attempted,
                    input_fail_ratio=input_fail_ratio, fails=fails,
                    silent_wrong=silent, import_s=import_s,
                    probe_fail_ratio=ratio_failed(probe),
                    setup_runs_s=setup_times,
                    **extra)
        with open(args.out, "a") as fh:
            fh.write(json.dumps(full) + "\n")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
