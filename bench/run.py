"""Run one flowclass benchmark workload and print its result.

    python3 bench/run.py --workload exact_decide --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: flowclass is imported from src/,
as the test command does, because the package need not be installed.
One client runs the workload's operations in a closed loop, in whole
rounds over the same list of inputs, until --seconds have passed.  Each
operation's time is its CPU time scaled to a nominal machine by the
reference passes run next to it (see calibrate.py), so that the load of
other tenants of a shared host does not show as a change in flowclass.
Every answer is checked.  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics.  --trace 1 is a separate run
that alternates untraced and traced rounds for --seconds and reports the
per-layer metrics of tracing.LAYER_METRICS, plus the tracing overhead.
Results and the spans of the first traced round go to .bench_out/.
"""

import os

# one BLAS thread, set before numpy loads: the numbers should measure the
# program, not how a small machine schedules threads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 7  # fresh processes whose set-up time is measured per run
WORKLOADS = ("exact_decide", "float_classify", "orbit_sim")


def set_up(name: str, workdir: str):
    """Import flowclass and run one untimed warm-up operation.

    Returns (seconds, flowclass, workload).  The seconds are the CPU time
    of the import and of the warm-up call (the lazy sympy import of exact
    mode lands there), not of the benchmark's own generation of the
    warm-up input.  end_to_end scales them to the nominal machine.
    """
    t0 = time.process_time()
    sys.path.insert(0, str(ROOT / "src"))
    import flowclass
    import flowclass.cli  # noqa: F401

    t1 = time.process_time()
    import workloads

    wl = workloads.workload(name, workdir)
    warm = wl.warmup()
    t2 = time.process_time()
    out = wl.run(flowclass, warm)
    t3 = time.process_time()
    if not wl.check(warm, out):
        raise workloads.WrongAnswer("the warm-up operation failed")
    return (t1 - t0) + (t3 - t2), flowclass, wl


class Tally:
    """Attempted, failed and wrong operations, with per-operation times
    in CPU seconds on the nominal machine of calibrate.py."""

    def __init__(self):
        from calibrate import reference_s

        self.times = []
        self.per_op = {}  # position in the round -> its times, one per round
        self.failed = 0
        self.wrong = []
        self._ref = reference_s()
        self.refs = [self._ref]  # every reference pass of the run

    def _time(self, cpu: float, slot: int) -> None:
        from calibrate import NOMINAL_S, reference_s

        ref = reference_s()
        self.refs.append(ref)
        self.times.append(cpu * NOMINAL_S / (0.5 * (self._ref + ref)))
        self.per_op.setdefault(slot, []).append(self.times[-1])
        self._ref = ref

    def one(self, fc, wl, op, slot: int) -> None:
        from workloads import WrongAnswer

        t0 = time.process_time()
        try:
            out = wl.run(fc, op)
        except Exception as exc:  # a program error is a wrong answer, reported below
            self._time(time.process_time() - t0, slot)
            self.failed += 1
            self.wrong.append(f"{op.kind} n={op.n}: {type(exc).__name__}: {exc}")
            return
        self._time(time.process_time() - t0, slot)
        try:
            ok = wl.check(op, out)
        except WrongAnswer as exc:
            self.wrong.append(str(exc))
            ok = False
        self.failed += not ok

    def round(self, fc, wl, ops) -> float:
        """One pass over ops; returns its timed seconds."""
        fresh_round()
        before = sum(self.times)
        for i, op in enumerate(ops):
            self.one(fc, wl, op, i)
        return sum(self.times) - before

    def typical(self) -> list:
        """Each operation's median time over the rounds of the run."""
        return [statistics.median(v) for v in self.per_op.values()]


def fresh_round() -> None:
    """Start every round alike, so that it costs the same: empty sympy's
    cache and reseed sympy's random numbers (its factoring mod p draws
    them, and its cost varies with the draws), if exact mode has loaded
    sympy, and collect garbage."""
    if "sympy" in sys.modules:
        sys.modules["sympy.core.cache"].clear_cache()
        sys.modules["sympy.core.random"].seed(0)
    gc.collect()


def setup_median(name: str, first: float) -> float:
    """Median unscaled set-up seconds of this process and of fresh ones."""
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name, "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=150, check=True,
        )
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_cpu_s"])
    return statistics.median(samples)


def end_to_end(name, fc, wl, ops, seconds, setup_first):
    from calibrate import NOMINAL_S

    tally = Tally()
    start = time.perf_counter()
    while not tally.times or time.perf_counter() - start < seconds:
        tally.round(fc, wl, ops)
    typical = tally.typical()
    # Set-up is too short for the reference passes next to it to tell the
    # machine's speed, and it follows that speed less than the operations
    # do: unscaled, its median moved with a slower host by a third between
    # two sets of runs; scaled in full by the run's median pass, it moved
    # as far the other way between fast and slow runs of one set.  The
    # square root of the run's scale halves either error.
    setup_scale = (NOMINAL_S / statistics.median(tally.refs)) ** 0.5
    metrics = {
        "setup_s": (setup_median(name, setup_first) * setup_scale, "s"),
        "ops_per_s": (len(typical) / sum(typical), "ops/s"),
        "op_p50_ms": (statistics.median(typical) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return tally, metrics, None


def traced(fc, wl, ops, seconds):
    from tracing import Tracer, layer_metrics

    tally = Tally()
    plain, timed, passes = [], [], []
    first_spans = None
    start = time.perf_counter()
    tally.round(fc, wl, ops)  # fills the factorial inverses witness_sequence caches
    while not passes or time.perf_counter() - start < seconds:
        plain.append(tally.round(fc, wl, ops))
        tracer = Tracer()
        fresh_round()
        tracer.install()
        try:
            before = sum(tally.times)
            for i, op in enumerate(ops):
                tracer.op = i
                tally.one(fc, wl, op, i)
            timed.append(sum(tally.times) - before)
        finally:
            tracer.uninstall()
        passes.append(layer_metrics(tracer.spans))
        if first_spans is None:
            first_spans = tracer.spans
    metrics = {}
    for key in passes[0]:
        if key.endswith(".calls"):
            if any(p[key] != passes[0][key] for p in passes):
                tally.wrong.append(f"{key} differs between traced rounds")
            metrics[key] = (passes[0][key], "count")
        else:
            metrics[key] = (statistics.median(p[key] for p in passes), "s")
    overhead = statistics.median(timed) / statistics.median(plain) - 1.0
    metrics["trace.overhead_pct"] = (overhead * 100.0, "%")
    return tally, metrics, first_spans


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only set up, and print the set-up time (used by the run itself)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "flowclass" / "__init__.py").is_file():
        print(f"bench: no flowclass sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=args.workload + "-") as workdir:
        setup_s, fc, wl = set_up(args.workload, workdir)
        if args.setup_probe:
            print(json.dumps({"setup_cpu_s": setup_s}))
            return 0
        ops = wl.inputs(args.seed)
        if args.trace:
            tally, metrics, spans = traced(fc, wl, ops, args.seconds)
        else:
            tally, metrics, spans = end_to_end(
                args.workload, fc, wl, ops, args.seconds, setup_s)

    for msg in tally.wrong[:20]:
        print(f"bench: wrong: {msg}", file=sys.stderr)
    result = {
        "correct": not tally.wrong,
        "attempted": len(tally.times),
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    if spans is not None:
        (OUT / f"trace-{tag}.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "op"], "spans": spans}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
