"""Self-test of the benchmark's checkers and generators.

    python3 bench/selftest.py

Each checker is fed a deliberately wrong answer (a flipped verdict, a
block count off by one, a period off by 1e-3 relative, a perturbed y_n,
and a few more) and must reject it, after accepting the true answer.
The generators' known answers are spot-checked against independent
oracles on small cases: sympy's Jordan form for exact inputs with
n <= 6, numpy.linalg.eigvals for float inputs, and a plain power series
for the closed-form Jordan flow.  Exits 1 on the first failure.
"""

import copy
import json
import random
import sys
import tempfile
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import sympy  # noqa: E402

import flowclass  # noqa: E402
import flowclass.cli  # noqa: E402,F401
import tracing  # noqa: E402
import workloads as W  # noqa: E402


class SelfTestFailure(Exception):
    pass


def require(cond: bool, what: str) -> None:
    if not cond:
        raise SelfTestFailure(what)


def rejects(check, op, out, what: str) -> None:
    try:
        check(op, out)
    except W.WrongAnswer:
        return
    raise SelfTestFailure(f"checker accepted {what}")


class FakeDescriptor:
    def __init__(self, blocks):
        self.blocks = blocks


def test_exact_checker():
    wl = W.ExactDecide()
    rng = random.Random(5)
    for kind in W.PAIR_KINDS:
        op = W.exact_pair(rng, 6, *kind)
        out = wl.run(flowclass, op)
        require(wl.check(op, out), f"true exact answer rejected ({kind[0]})")
        dl, dr, verdict = out
        rejects(wl.check, op, (dl, dr, replace(verdict, conjugate=not verdict.conjugate)),
                f"a flipped verdict ({kind[0]})")
        lam, m, c = dl.blocks[0]
        bumped = FakeDescriptor(((lam, m, c + 1),) + tuple(dl.blocks[1:]))
        rejects(wl.check, op, (bumped, dr, verdict), f"a block count off by one ({kind[0]})")


def test_float_checker(workdir):
    wl = W.FloatClassify(workdir)
    op = wl.warmup()
    code, stdout, stderr = wl.run(flowclass, op)
    require(code == 0 and wl.check(op, (code, stdout, stderr)), "true float report rejected")
    report = json.loads(stdout)
    for mutate, what in (
        (lambda r: r["payload"]["signature"]["center"][0].update(
            count=r["payload"]["signature"]["center"][0]["count"] + 1), "a center count off by one"),
        (lambda r: r["payload"]["signature"].update(
            expanding=r["payload"]["signature"]["expanding"] + 1), "an expanding dimension off by one"),
        (lambda r: r["payload"]["signature"]["center"][-1].update(
            im=r["payload"]["signature"]["center"][-1]["im"] * (1 + 1e-5)), "a center frequency off by 1e-5"),
        (lambda r: r["payload"]["bounded"].update(
            dim_bounded=r["payload"]["bounded"]["dim_bounded"] - 1), "dim_bounded off by one"),
    ):
        bad = copy.deepcopy(report)
        mutate(bad)
        rejects(wl.check, op, (0, json.dumps(bad), ""), what)
    rejects(wl.check, op, (2, "", "flowclass: diagnostic: x"), "a refusal other than the named fault")
    require(not wl.check(op, (1, "", "flowclass: error: 1.0 " + W.FLOAT_FAULT)),
            "the named fault is not counted as failed")


def test_orbit_checkers():
    wl = W.OrbitSim()
    rng = random.Random(7)
    period = W.class_op(rng)
    p, results = wl.run(flowclass, period)
    require(wl.check(period, (p, results)), "true periods rejected")
    off = [replace(results[0], period=results[0].period * (1 + 1e-3))] + results[1:]
    rejects(wl.check, period, (p, off), "a period off by 1e-3 relative")
    rejects(wl.check, period, (tuple(p) + (1,), results), "wrong recovered multipliers")

    probe = next(op for op in (W.probe_op(rng) for _ in range(100)) if op.data["bounded"])
    require(wl.check(probe, flowclass.ProbeResult("bounded", "")), "a consistent probe rejected")
    rejects(wl.check, probe, flowclass.ProbeResult("unbounded", ""), "a contradicting probe")

    for r in W.ORBIT_WITNESS_ORDERS:
        op = W.witness_op(rng, r)
        w = wl.run(flowclass, op)
        require(wl.check(op, w), f"true witness rejected (r={r})")
        ys = list(w.y_seq)
        y = list(ys[5])
        y[0] += 1e-6 * (1 + abs(y[0]))
        ys[5] = tuple(y)
        rejects(wl.check, op, replace(w, y_seq=tuple(ys)), f"a perturbed y_n (r={r})")
        y_lim = list(w.y_lim)
        y_lim[r] = -y_lim[r]
        rejects(wl.check, op, replace(w, y_lim=tuple(y_lim)), f"a corner limit without (-1)^r (r={r})")


def sympy_blocks(rows) -> Counter:
    """{(re, im, m): count} from sympy's Jordan form."""
    _, jf = sympy.Matrix(rows).jordan_form()
    n = jf.shape[0]
    out = Counter()
    start = 0
    for i in range(n):
        if i == n - 1 or jf[i, i + 1] == 0:
            lam = jf[start, start]
            re, im = (Fraction(str(sympy.nsimplify(v))) for v in (sympy.re(lam), sympy.im(lam)))
            out[(re, im, i + 1 - start)] += 1
            start = i + 1
    return out


def test_exact_generator_oracle():
    rng = random.Random(11)
    for n in (5, 6):
        for kind in W.PAIR_KINDS:
            op = W.exact_pair(rng, n, *kind)
            for side in ("left", "right"):
                want = W.exact_blocks(op.data[side + "_parts"])
                require(sympy_blocks(op.data[side]) == want,
                        f"generator blocks disagree with sympy ({kind[0]}, n={n}, {side})")


def test_float_generator_oracle():
    for seed in range(3):
        rng = np.random.default_rng(seed)
        for n in W.FLOAT_SIZES:
            op = W.float_doc(rng, n)
            want = []
            for lam in op.data["eigs"]:
                want += [lam, lam.conjugate()] if lam.imag else [lam]
            got = np.linalg.eigvals(op.data["matrix"])
            for lam in want:
                near = np.abs(got - lam)
                require(near.min() <= 1e-8, f"eigenvalue {lam} not found by numpy (n={n})")
            require(len(want) == n, f"spectrum has {len(want)} values for n={n}")


def test_flow_closed_form():
    rng = random.Random(3)
    for m in (1, 3, 5, 7):
        beta, t = rng.uniform(0.5, 2.0), rng.uniform(0.2, 1.5)
        x = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(m)]
        jt = t * (1j * beta * np.eye(m) + np.eye(m, k=1))
        series, term = np.eye(m, dtype=complex), np.eye(m, dtype=complex)
        for k in range(1, 80):
            term = term @ jt / k
            series = series + term
        want = series @ np.asarray(x)
        got = [v for v, _ in W.jordan_flow_apply(beta, t, x)]
        require(np.allclose(got, want, rtol=1e-12, atol=1e-12), f"closed-form flow (m={m})")


def test_inputs_repeat(workdir):
    for name in W.NAMES:
        a = [op.data for op in W.workload(name, workdir).inputs(3)]
        b = [op.data for op in W.workload(name, workdir).inputs(3)]
        require(repr(a) == repr(b), f"{name}: the same seed gave other inputs")
        c = [op.data for op in W.workload(name, workdir).inputs(4)]
        require(repr(a) != repr(c), f"{name}: another seed gave the same inputs")


def test_layer_metrics_match_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = tuple(m["name"] for m in spec["per_layer"])
    require(names == tracing.LAYER_METRICS + ("trace.overhead_pct",),
            "per_layer names in BENCHMARK.json differ from tracing.LAYER_METRICS")


def main() -> int:
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out, prefix="selftest-") as workdir:
        tests = [
            ("exact checker rejects wrong answers", test_exact_checker),
            ("float checker rejects wrong answers", lambda: test_float_checker(workdir)),
            ("orbit checkers reject wrong answers", test_orbit_checkers),
            ("exact generator agrees with sympy jordan_form", test_exact_generator_oracle),
            ("float generator agrees with numpy eigvals", test_float_generator_oracle),
            ("closed-form Jordan flow agrees with a power series", test_flow_closed_form),
            ("inputs depend on the seed and only on it", lambda: test_inputs_repeat(workdir)),
            ("per-layer metric names agree with BENCHMARK.json", test_layer_metrics_match_benchmark),
        ]
        for what, fn in tests:
            try:
                fn()
            except SelfTestFailure as exc:
                print(f"FAIL {what}: {exc}")
                return 1
            print(f"ok   {what}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
