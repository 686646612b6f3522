"""sgfem1d benchmark: one workload, measured for a fixed time.

    python3 benchmarks/run.py --workload source_ladder --seed 0 --seconds 30 --trace 0

Workloads are ``source_ladder``, ``eigen_ladder`` and ``large_cell`` (see
README.md in this directory).  ``--trace 0`` reports the end-to-end metrics
(pass_cost, setup_s, peak_rss_mb); ``--trace 1`` alternates plain and
traced passes and reports the per-layer metrics and the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment, the pass wall times (wall_s), the failed and
unresolved operations and any unmeasured layers.  A summary with wall_s and
failed_frac goes to standard error.

``--quick`` runs tiny ladders (for the benchmark's own tests);
``--record`` stores one seed-0 pass as the correctness fingerprint.
"""

import os

# One BLAS/OpenMP thread, set before numpy is loaded: with OpenBLAS's default
# two threads on a two-core machine the first dense solve at ndof 243 took
# 0.26 s instead of 2.3 ms.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("source_ladder", "eigen_ladder", "large_cell")
END_TO_END = (("pass_cost", "ref"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
SETUP_SAMPLES = 15
MIN_PASSES = 3
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="tiny ladders, for the benchmark's own tests")
    ap.add_argument("--record", action="store_true",
                    help="store one seed-0 pass as the fingerprint and exit")
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def environment():
    import numpy
    import scipy

    def blas(cfg):
        dep = cfg["Build Dependencies"]["blas"]
        return f"{dep['name']} {dep['version']}"

    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "numpy_blas": blas(numpy.show_config(mode="dicts")),
            "scipy_blas": blas(scipy.show_config(mode="dicts")),
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"])}


def setup_probe(args):
    """Start-to-ready time of one fresh process that imports the program,
    makes this workload's inputs and runs the warm-up cell."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.quick:
        cmd.append("--quick")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.communicate(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return ready


class Tally:
    """Operation outcomes over all passes."""

    def __init__(self, recorded):
        self.recorded = recorded
        self.attempted = 0
        self.failed_ops = {}  # op -> number of passes it failed in
        self.unresolved_ops = {}  # op -> number of passes it was unresolved
        self.wrong = []

    def add(self, ops, rates):
        for op, result in ops.items():
            failed, wrong = checks.check_op(result, self.recorded.get(op))
            self.attempted += 1
            if failed:
                self.failed_ops[op] = self.failed_ops.get(op, 0) + 1
            elif "unresolved" in result:
                self.unresolved_ops[op] = self.unresolved_ops.get(op, 0) + 1
            if wrong:
                self.wrong.append(f"{op}: {wrong}")
        self.wrong += checks.check_rates(rates)

    @property
    def failed(self):
        return sum(self.failed_ops.values())


def measure(run, inputs, seconds, tally, probe, tracer=None):
    """Run passes for `seconds` (and at least MIN_PASSES of each kind),
    alternating plain and traced passes when a tracer is given, with
    SETUP_SAMPLES set-up probes spread evenly over the same time.  Returns
    the clocks of the plain and the traced passes and the set-up times."""
    from workloads import PassClock
    plain, traced, setup = [], [], []
    start = time.perf_counter()
    while True:
        use_tracer = tracer is not None and len(traced) < len(plain)
        if use_tracer:
            tracer.install()
        clock = PassClock()
        try:
            ops, rates = run(inputs, clock)
            clock.stop()
        finally:
            if use_tracer:
                tracer.uninstall()
        (traced if use_tracer else plain).append(clock)
        tally.add(ops, rates)
        while (len(setup) < SETUP_SAMPLES and time.perf_counter() - start
               >= len(setup) * seconds / SETUP_SAMPLES):
            setup.append(probe())
        if (time.perf_counter() - start >= seconds and len(plain) >= MIN_PASSES
                and (tracer is None or len(traced) >= MIN_PASSES)):
            return plain, traced, setup


def pass_cost(clocks):
    """Cost of one pass in reference units: over the pass's steps, the sum
    of each step's median (over passes) of step time / reference time."""
    ratios = {}
    for clock in clocks:
        for name, elapsed, ref in clock.steps:
            ratios.setdefault(name, []).append(elapsed / ref)
    return sum(statistics.median(r) for r in ratios.values())


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "sgfem1d" / "__init__.py").is_file():
        print(f"error: no sgfem1d sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sgfem1d
    if not Path(sgfem1d.__file__).resolve().is_relative_to(SRC):
        print(f"error: sgfem1d imported from {sgfem1d.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import spans
    import workloads

    inputs = workloads.make_inputs(args.seed, args.quick)
    workloads.warm_up()
    if args.probe:
        print("ready", flush=True)
        return 0
    run = workloads.WORKLOADS[args.workload]

    if args.record:
        if args.seed != 0 or args.quick:
            print("error: --record takes the full seed-0 inputs", file=sys.stderr)
            return 2
        ops, _ = run(inputs, workloads.PassClock())
        checks.save_fingerprint(args.workload, ops)
        print(f"recorded {len(ops)} operations of {args.workload}", file=sys.stderr)
        return 0

    tally = Tally(checks.load_fingerprint(args.workload))
    tracer = spans.Tracer(args.workload) if args.trace else None
    plain, traced, setup = measure(run, inputs, args.seconds, tally,
                                   lambda: setup_probe(args), tracer)
    # pass_cost divides each step by the reference kernel of its kind run
    # beside it, so a slow stretch of the shared machine, which slowed
    # passes by up to 1.9x for tens of seconds, cancels (reference.py).
    # setup_s is the fastest of SETUP_SAMPLES fresh processes spread over
    # the run, so one quiet moment is enough (README.md, "Timing").
    walls = [c.wall for c in plain]
    cost, setup_s = pass_cost(plain), min(setup)
    unmeasured = []
    if tracer is None:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {"pass_cost": cost, "setup_s": setup_s, "peak_rss_mb": peak_mb}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    else:
        # the traced passes' extra cost, in seconds of a median plain pass
        overhead = (pass_cost(traced) / cost - 1.0) * statistics.median(walls)
        metrics, unmeasured = tracer.metrics(overhead)
        unmeasured += [f"{layer} (counted in its callers)"
                       for layer in spans.UNMEASURED_LAYERS]

    failed_frac = tally.failed / tally.attempted
    info = {"env": environment(), "workload": args.workload, "seed": args.seed,
            "quick": args.quick, "plain_passes": len(plain),
            "traced_passes": len(traced), "wall_s": statistics.median(walls),
            "wall_s_min": min(walls), "wall_s_max": max(walls),
            "setup_s_median": statistics.median(setup),
            "failed_frac": failed_frac, "failed_ops": tally.failed_ops,
            "unresolved_ops": tally.unresolved_ops,
            "wrong": tally.wrong[:20], "unmeasured": unmeasured}
    print(json.dumps(info))
    unresolved = sum(tally.unresolved_ops.values())
    print(f"{args.workload} seed {args.seed}: wall_s {info['wall_s']:.4f} s "
          f"(median of {len(plain)} passes), setup_s {setup_s:.4f} s "
          f"(fastest of {len(setup)}), "
          f"failed_frac {failed_frac:.5f} ({tally.failed}/{tally.attempted}), "
          f"unresolved {unresolved}/{tally.attempted}", file=sys.stderr)
    for name, m in metrics.items():
        value = "unmeasured" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name} {value} {m['unit']}", file=sys.stderr)
    print(json.dumps({"correct": not tally.wrong, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
