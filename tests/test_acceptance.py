"""Acceptance gate: ten end-to-end checks with pinned tolerances and
wall budgets.  Each check prints one ACCEPTANCE line to the real stdout
(bypassing capture) so the run log always carries the verdicts."""

import json
import math
import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from math import gcd
from pathlib import Path

import numpy as np
import pytest

from conftest import random_parts, random_unimodular, realize_real
from flowclass.cli import main as cli_main
from flowclass.cli import parse_report
from flowclass.flowsim import (
    FactorialSystem,
    bounded_exact,
    bounded_probe,
    extrapolate_to_zero,
    min_period,
    realize_blocks,
    realize_class,
    witness_sequence,
)
from flowclass.invariants import (
    RationalClass,
    block_counts_from_reduction,
    conjugacy_signature,
    decide_conjugate,
    frequency_profile,
    orbit_frequency,
    recover_multipliers,
    reduction_dimensions,
    x_reduce,
    y_reduce,
    z_reduce,
)
from flowclass.numkit import RationalComplex, mat_exp_array
from flowclass.spectral import spectrum_descriptor

GOLDEN = Path(__file__).parent / "golden"


def _emit(cap, line: str) -> None:
    # capture is file-descriptor level by default, so suspend it to put
    # the verdict line on the real stdout even when the test passes
    if cap is None:
        print(line, flush=True)
        return
    with cap.disabled():
        print(line, flush=True)


@contextmanager
def criterion(cap, number: int, budget: float, title: str):
    info = {"detail": ""}
    start = time.perf_counter()
    try:
        yield info
        elapsed = time.perf_counter() - start
        assert elapsed < budget, f"took {elapsed:.2f}s, budget {budget:g}s"
    except BaseException as exc:
        _emit(cap, f"ACCEPTANCE {number} FAIL: {title}: {exc}")
        raise
    detail = f" [{info['detail']}]" if info["detail"] else ""
    _emit(
        cap,
        f"ACCEPTANCE {number} PASS ({elapsed:.2f}s < {budget:g}s): {title}{detail}",
    )


# ---- 1: similarity invariance of the signature --------------------------------


def test_acceptance_01_similarity_invariance(capsys):
    with criterion(capsys, 1, 30.0, "signature invariant under exact similarity") as info:
        rng = random.Random(101)
        for _ in range(200):
            parts = random_parts(rng, max_n=8)
            a = realize_real(parts)
            s, s_inv = random_unimodular(rng, a.n)
            b = s @ a @ s_inv
            sig_a = conjugacy_signature(spectrum_descriptor(a))
            sig_b = conjugacy_signature(spectrum_descriptor(b))
            assert sig_a == sig_b, (parts, sig_a, sig_b)
        info["detail"] = "200 matrices, n <= 8, exact equality"


# ---- 2: decision soundness on constructed pairs ---------------------------------


def _hyperbolic_parts(rng, dim, sign):
    parts = []
    while dim:
        m = rng.randint(1, min(3, dim))
        rate = Fraction(sign * rng.randint(1, 3), rng.choice((1, 2)))
        parts.append((rate, Fraction(0), m, 1))
        dim -= m
    return parts


def _center_data(rng):
    """Center multiset as a list of (b, m, count); b == 0 is nilpotent."""
    data = []
    total = 0
    for b in rng.sample((Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3)),
                        rng.randint(1, 2)):
        m = rng.randint(1, 2)
        data.append((b, m, 1))
        total += 2 * m
    if rng.random() < 0.4:
        data.append((Fraction(0), rng.randint(1, 2), 1))
        total += data[-1][1]
    return data, total


def _realize_invariants(rng, dp, dm, center):
    parts = [(Fraction(0), b, m, c) for b, m, c in center]
    parts += _hyperbolic_parts(rng, dp, +1)
    parts += _hyperbolic_parts(rng, dm, -1)
    return realize_real(parts)


def test_acceptance_02_decision_soundness(capsys):
    with criterion(capsys, 2, 10.0, "constructed pairs decided correctly") as info:
        rng = random.Random(202)
        for k in range(99):
            center, cdim = _center_data(rng)
            dp = rng.randint(0, 2)
            dm = rng.randint(0, 2)
            left = (dp, dm, list(center))
            if k % 2 == 0:
                right = (dp, dm, list(center))  # same data, new realization
                expect = True
            else:
                expect = False
                kinds = ["im", "grow"]
                if dp + dm:
                    kinds.append("dims")
                if any(m >= 2 for _, m, _ in center):
                    kinds.append("jordan")
                kind = rng.choice(kinds)
                mut = list(center)
                if kind == "dims":
                    swapped = (dp - 1, dm + 1) if dp else (dp + 1, dm - 1)
                    right = (*swapped, mut)
                elif kind == "im":
                    used = {b for b, _, _ in mut}
                    fresh = next(
                        b for b in (Fraction(7, 2), Fraction(9, 2), Fraction(4))
                        if b not in used
                    )
                    b_old, m_old, c_old = mut[0]
                    mut[0] = (fresh, m_old, c_old)
                    right = (dp, dm, mut)
                elif kind == "jordan":
                    at = next(i for i, (_, m, _) in enumerate(mut) if m >= 2)
                    b_old, m_old, c_old = mut[at]
                    mut[at] = (b_old, m_old - 1, c_old)
                    mut.append((b_old, 1, c_old))
                    right = (dp, dm, mut)
                else:  # grow: one extra fixed direction changes n
                    mut.append((Fraction(0), 1, 1))
                    right = (dp, dm, mut)

            a = _realize_invariants(rng, *left)
            b = _realize_invariants(rng, *right)
            sig_a = conjugacy_signature(spectrum_descriptor(a))
            sig_b = conjugacy_signature(spectrum_descriptor(b))
            verdict = decide_conjugate(sig_a, sig_b)
            assert verdict.conjugate == expect, (left, right, verdict)
            if not expect:
                assert verdict.certificate
            back = decide_conjugate(sig_b, sig_a)
            assert back.conjugate == expect

        named_a = realize_real([(Fraction(0), Fraction(1), 1, 1)])
        named_b = realize_real([(Fraction(0), Fraction(2), 1, 1)])
        v = decide_conjugate(
            conjugacy_signature(spectrum_descriptor(named_a)),
            conjugacy_signature(spectrum_descriptor(named_b)),
        )
        assert not v.conjugate
        info["detail"] = "100 pairs, half equal and half perturbed"


# ---- 3: orbit frequency sets the minimal period ----------------------------------


def _simulated_period(cls, support):
    arr = realize_class(cls)
    x0 = [1.0 if i in support else 0.0 for i in range(len(cls.p))]
    chi = float(orbit_frequency(cls, sorted(support)))
    expected = 2.0 * math.pi / chi
    step = min(0.01, expected / 16.0)
    res = min_period(arr, x0, horizon=1.25 * expected + 4.0 * step, step=step)
    return res, expected


def test_acceptance_03_frequency_period_law(capsys):
    with criterion(capsys, 3, 60.0, "minimal period equals two pi over orbit frequency") as info:
        rng = random.Random(303)
        for (beta, p, support) in (
            (Fraction(1), (2, 3), {0, 1}),    # closes only after a full turn
            (Fraction(2), (1, 2), {0, 1}),    # half turn
        ):
            res, expected = _simulated_period(RationalClass(beta, p), support)
            assert res.kind == "period"
            assert abs(res.period - expected) <= 1e-6 * expected

        done = 0
        while done < 50:
            size = rng.randint(1, 4)
            p = sorted(rng.randint(1, 20) for _ in range(size))
            g = 0
            for v in p:
                g = gcd(g, v)
            if g != 1:
                continue
            beta = Fraction(rng.randint(1, 6), rng.choice((1, 2)))
            if not (Fraction(1, 2) <= beta <= 3):
                continue
            support = set(rng.sample(range(size), rng.randint(1, size)))
            res, expected = _simulated_period(RationalClass(beta, tuple(p)), support)
            assert res.kind == "period", (beta, p, support, res)
            assert abs(res.period - expected) <= 1e-6 * expected, (beta, p, support)
            done += 1
        info["detail"] = "52 classes, relative error <= 1e-6"


# ---- 4: multipliers recovered from the dimension profile --------------------------


def test_acceptance_04_profile_recovery_round_trip(capsys):
    with criterion(capsys, 4, 5.0, "multipliers recovered from preimage dimensions") as info:
        rng = random.Random(404)
        done = 0
        while done < 500:
            size = rng.randint(1, 6)
            p = tuple(sorted(rng.randint(1, 50) for _ in range(size)))
            g = 0
            for v in p:
                g = gcd(g, v)
            if g != 1:
                continue
            beta = Fraction(rng.randint(1, 12), rng.randint(1, 12))
            cls = RationalClass(beta, p)
            fixed = rng.randint(0, 4)
            prof = frequency_profile(cls, fixed)
            dims = dict(prof.preimage_dims)
            got = recover_multipliers(prof.values, dims.__getitem__, fixed)
            assert got == p, (beta, p, fixed)
            done += 1
        info["detail"] = "500 classes, p up to 50, exact"


# ---- 5: the half-size reduction calculus -------------------------------------------


def _apply_word(word: str, m: int) -> int:
    for ch in reversed(word):
        m = x_reduce(m) if ch == "X" else y_reduce(m)
    return m


def test_acceptance_05_reduction_calculus(capsys):
    with criterion(capsys, 5, 1.0, "reduction index kills exactly the small blocks") as info:
        for k in range(1, 65):
            word = bin(k)[2:].replace("0", "X").replace("1", "Y")
            for m in range(0, 65):
                z = z_reduce(k, m)
                assert z == _apply_word(word, m)
                assert (z == 0) == (k >= m), (k, m, z)

        words = [""]
        frontier = [""]
        for _ in range(6):
            frontier = [w + ch for w in frontier for ch in "XY"]
            words += frontier
        for w in words:
            for beta in range(0, 33):
                assert _apply_word(w + "X", 2 * beta) == _apply_word(w, beta)
                assert _apply_word(w + "X", 2 * beta + 1) == _apply_word(w, beta + 1)
                assert _apply_word(w + "Y", 2 * beta) == _apply_word(w, beta)
                assert _apply_word(w + "Y", 2 * beta + 1) == _apply_word(w, beta)
        info["detail"] = f"k,m <= 64 exhaustive; {len(words)} digit strings"


# ---- 6: block counts recovered from the reduction tower ----------------------------


def test_acceptance_06_tower_round_trip(capsys):
    with criterion(capsys, 6, 1.0, "block counts recovered from tower dimensions") as info:
        rng = random.Random(606)
        pool = [Fraction(0)] + [
            RationalComplex(Fraction(0), Fraction(q)) for q in (1, -1, 2, -2, 3)
        ]
        for _ in range(200):
            lams = rng.sample(pool, rng.randint(1, 3))
            blocks = []
            expected = {}
            for lam in lams:
                sizes = {}
                for _ in range(rng.randint(1, 3)):
                    m = rng.randint(1, 6)
                    sizes[m] = sizes.get(m, 0) + rng.randint(1, 2)
                for m, c in sizes.items():
                    blocks.append((lam, m, c))
                expected[lam] = tuple(sorted(sizes.items()))
            kmax = max(m for _, m, _ in blocks)
            levels = reduction_dimensions(blocks, kmax)
            for lam in lams:
                seq = [dict(lv.mults).get(lam, 0) for lv in levels]
                assert block_counts_from_reduction(seq) == expected[lam]
            assert levels[0].dim == sum(c for _, _, c in blocks)
        info["detail"] = "200 center descriptors"


# ---- 7: witness sequences converge at the advertised rate ---------------------------


def test_acceptance_07_witness_convergence(capsys):
    with criterion(capsys, 7, 60.0, "witness sequences converge like 1/n") as info:
        rng = random.Random(707)
        slopes = []
        for r, beta in ((1, 1.0), (1, 2.0), (2, 1.0)):
            for _ in range(5):
                head = [rng.uniform(0.2, 1.2) for _ in range(r + 1)]
                w = witness_sequence(head, beta, count=1000)

                # independent flow check where the generic exponential is
                # still sharp; past t ~ 100 its own error dominates (the
                # propagator norm grows like t^(m-1))
                arr, _ = realize_blocks([(1j * beta, w.m, 1)])
                for idx in (i for i, t in enumerate(w.times) if t <= 100.0):
                    t = w.times[idx]
                    got = mat_exp_array(arr, t) @ np.asarray(w.x_seq[idx])
                    resid = np.abs(got - np.asarray(w.y_seq[idx])).max()
                    assert resid <= 1e-8 * (1.0 + float(np.abs(got).max()))

                # solve precision at every stage: the flowed points hit the
                # prescribed head coordinates.  Evaluating the flow sums
                # cancels terms of size t^r, so rounding noise scales with
                # eps * t^r and the tolerance must too.
                y_head = np.asarray(w.y_lim[: w.r])
                head_err = max(
                    float(np.abs(np.asarray(y[: w.r]) - y_head).max())
                    for y in w.y_seq
                )
                head_tol = 50 * np.finfo(float).eps * (1.0 + max(w.times) ** r)
                assert head_err <= head_tol, (r, beta, head, head_err)

                errs = np.array([
                    np.linalg.norm(np.asarray(x) - np.asarray(w.x_lim))
                    for x in w.x_seq
                ])
                ns = np.arange(1, errs.size + 1, dtype=float)
                slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
                assert -slope >= 0.9, (r, beta, head, slope)
                slopes.append(-slope)

                pts = r + 1
                corner = extrapolate_to_zero(
                    w.times[-pts:], w.corner_values[-pts:]
                )
                target = ((-1.0) ** r) * w.y_lim[w.corner_index]
                assert abs(corner - target) <= 1e-6, (r, beta, head)
        info["detail"] = (
            f"15 heads, n <= 1000, decay exponents {min(slopes):.3f}..{max(slopes):.3f}"
        )


# ---- 8: the factorial-reciprocal system has the advertised structure -----------------


def test_acceptance_08_factorial_system_structure(capsys):
    with criterion(capsys, 8, 1.0, "factorial systems solve exactly with signed corner") as info:
        rng = random.Random(808)
        for r in range(9):
            sys_r = FactorialSystem(r)
            for i in range(r + 1):
                for j in range(r + 1):
                    assert sys_r.matrix.rows[i][j] == Fraction(
                        1, math.factorial((r - i) + j)
                    )
            assert sys_r.corner_coefficients[-1] == Fraction((-1) ** r)
            for _ in range(3):
                rhs = [
                    Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                    for _ in range(r + 1)
                ]
                x = sys_r.solve(rhs)
                back = [sum(u * v for u, v in zip(row, x)) for row in sys_r.matrix.rows]
                residual = max(abs(float(u - v)) for u, v in zip(back, rhs))
                assert list(back) == rhs  # exact: residual is identically zero
                assert residual <= 1e-12
        info["detail"] = "r <= 8, exact residual 0, corner sign (-1)^r"


# ---- 9: sampling never contradicts the structural verdict ----------------------------


def test_acceptance_09_boundedness_oracle_agreement(capsys):
    with criterion(capsys, 9, 30.0, "probe verdicts agree with structural verdicts") as info:
        rng = random.Random(909)
        determined = 0
        for _ in range(200):
            q = rng.randint(1, 8)
            blocks = []
            for _ in range(rng.randint(1, 3)):
                kind = rng.choice(("rot", "fix", "hyp", "drift"))
                if kind == "rot":
                    k = rng.randint(1, 4)
                    blocks.append((complex(0.0, 2.0 * math.pi * k / q), 1, 1))
                elif kind == "fix":
                    blocks.append((0.0, 1, 1))
                elif kind == "hyp":
                    blocks.append((rng.choice((-1.0, -0.5, 0.5, 1.0)), 1, 1))
                else:
                    blocks.append((complex(0.0, 2.0 * math.pi / q), 2, 1))
            arr, layout = realize_blocks(blocks)
            x0 = [
                0.0 if rng.random() < 0.45
                else rng.uniform(0.5, 2.0) * rng.choice((-1.0, 1.0))
                for _ in range(arr.shape[0])
            ]
            exact = bounded_exact(layout, x0)
            probe = bounded_probe(arr, x0, horizon=64.0, growth_cap=100.0)
            if probe.verdict != "undetermined":
                determined += 1
                assert probe.verdict == exact.verdict, (blocks, x0, probe)
        assert determined >= 50, determined
        info["detail"] = f"200 systems, {determined} determined, 0 contradictions"


# ---- 10: the command line reproduces its golden reports -------------------------------


def test_acceptance_10_cli_golden_files(capsys, tmp_path):
    with criterion(capsys, 10, 30.0, "golden reports, round trips, exit codes") as info:
        for command, name in (
            ("equiv", "rotation_pair"),
            ("equiv", "conjugate_pair"),
            ("classify", "classify_saddle_rotor"),
            ("invariants", "invariants_freqs"),
        ):
            code = cli_main(
                [command, str(GOLDEN / f"{name}.yaml"), "--format", "json"]
            )
            out, err = capsys.readouterr()
            assert code == 0 and err == ""
            assert out == (GOLDEN / f"{name}.expected.json").read_text()
            report = parse_report(out)
            assert report.command == command
            parsed = json.loads(out)
            assert parsed["payload"] == report.payload

        verdicts = {}
        for name in ("rotation_pair", "conjugate_pair"):
            payloads = {}
            for command in ("equiv", "classify"):
                cli_main(
                    [command, str(GOLDEN / f"{name}.yaml"), "--format", "json"]
                )
                out, _ = capsys.readouterr()
                payloads[command] = json.loads(out)["payload"]
            # the two command names decide a pair document identically
            assert payloads["classify"] == payloads["equiv"]
            verdicts[name] = payloads["equiv"]["verdict"]
        assert verdicts == {
            "rotation_pair": "NOT CONJUGATE",
            "conjugate_pair": "CONJUGATE",
        }

        bad = tmp_path / "bad.yaml"
        bad.write_text("matrix: [[0]]\nbogus: 1\n")
        assert cli_main(["classify", str(bad)]) == 1
        capsys.readouterr()

        irr = tmp_path / "irr.yaml"
        irr.write_text("matrix: [[0, 2], [1, 0]]\n")
        assert cli_main(["classify", str(irr), "--exact"]) == 2
        capsys.readouterr()
        assert cli_main(["classify", str(irr)]) == 0
        capsys.readouterr()
        info["detail"] = "4 golden reports byte-exact; exit codes 0/1/2"
