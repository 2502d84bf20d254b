"""Orbit sampling, boundedness probes, minimal periods, factorial-
reciprocal systems, and witness sequences.  Numeric oracles: closed-form
rotations, the generic matrix exponential, and exact rational solves."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from flowclass.errors import DiagnosticError, InputError
from flowclass.flowsim import (
    FactorialSystem,
    bounded_exact,
    bounded_probe,
    extrapolate_to_zero,
    jordan_flow,
    min_period,
    orbit_point,
    orbit_sample,
    realize_blocks,
    realize_class,
    witness_sequence,
)
from flowclass.invariants import RationalClass, orbit_frequency
from flowclass.numkit import Matrix, RationalComplex, mat_exp_array

ROT = [[0.0, -1.0], [1.0, 0.0]]


# ---- orbits ---------------------------------------------------------------


def test_orbit_point_matches_rotation_closed_form():
    for t in (0.0, 0.3, 2.0, -1.7, 12.5):
        got = orbit_point(ROT, [1.0, 0.0], t)
        assert np.allclose(got, [math.cos(t), math.sin(t)], atol=1e-12)


def test_orbit_sample_grid_and_values():
    s = orbit_sample(ROT, [1.0, 0.0], horizon=2.0, step=0.5)
    assert np.allclose(s.times, [0.0, 0.5, 1.0, 1.5, 2.0])
    assert np.allclose(s.points[:, 0], np.cos(s.times), atol=1e-12)
    assert np.allclose(s.norms, 1.0, atol=1e-12)


def test_orbit_sample_accepts_matrix_and_generator_points():
    m = Matrix.floating(ROT)
    s = orbit_sample(m, (float(k) for k in (1, 0)), horizon=1.0, step=0.25)
    assert s.points.shape == (5, 2)


def test_orbit_sample_rejects_bad_grid():
    with pytest.raises(InputError):
        orbit_sample(ROT, [1.0, 0.0], horizon=0.0, step=0.1)
    with pytest.raises(InputError):
        orbit_sample(ROT, [1.0, 0.0], horizon=1.0, step=-0.1)


def test_jordan_flow_matches_matrix_exponential(rng):
    for _ in range(15):
        lam = complex(rng.uniform(-1, 1), rng.uniform(-2, 2))
        m = rng.randint(1, 5)
        t = rng.uniform(-3, 3)
        arr, _ = realize_blocks([(lam, m, 1)])
        want = mat_exp_array(arr, t)
        got = jordan_flow(lam, m, t)
        assert np.allclose(got, want, rtol=1e-9, atol=1e-12)


def test_realize_blocks_layout_and_shape():
    arr, layout = realize_blocks(
        [(RationalComplex(Fraction(0), Fraction(2)), 2, 1), (Fraction(-1), 1, 2)]
    )
    assert layout == ((RationalComplex(Fraction(0), Fraction(2)), 2),
                      (Fraction(-1), 1), (Fraction(-1), 1))
    assert arr.shape == (4, 4)
    assert arr[0, 0] == 2j and arr[0, 1] == 1.0 and arr[1, 0] == 0.0
    assert arr[2, 2] == -1.0 and arr[2, 3] == 0.0


def test_realize_class_is_diagonal_rotation():
    arr = realize_class(RationalClass(Fraction(1, 2), (2, 3)))
    assert np.allclose(arr, np.diag([1j, 1.5j]))


# ---- boundedness ----------------------------------------------------------


def test_bounded_exact_verdicts():
    layout = ((1.0, 1), (3j, 2), (0.0, 2))
    assert bounded_exact(layout, [0.0, 1.0, 0.0, 1.0, 0.0]).verdict == "bounded"
    assert bounded_exact(layout, [0.5, 0.0, 0.0, 0.0, 0.0]).verdict == "unbounded"
    # weight past the leading coordinate of a center block drifts linearly
    assert bounded_exact(layout, [0.0, 1.0, 0.5, 0.0, 0.0]).verdict == "unbounded"
    assert bounded_exact(layout, [0.0, 0.0, 0.0, 0.0, 1.0]).verdict == "unbounded"


def test_bounded_exact_accepts_exact_coordinates():
    layout = ((RationalComplex(Fraction(0), Fraction(1)), 1), (Fraction(2), 1))
    r = bounded_exact(layout, [Fraction(1, 3), Fraction(0)])
    assert r.verdict == "bounded"
    r = bounded_exact(layout, [Fraction(0), Fraction(1, 7)])
    assert r.verdict == "unbounded"


def test_bounded_exact_length_check():
    with pytest.raises(InputError):
        bounded_exact(((0.0, 2),), [1.0])


def test_bounded_probe_detects_growth_and_recurrence():
    up = bounded_probe(np.diag([1.0]), [1.0], horizon=32.0)
    assert up.verdict == "unbounded" and up.ratio > 1000.0

    # quarter-turn rotation: period 4 lands on the sampling grid
    quarter = [[0.0, -math.pi / 2], [math.pi / 2, 0.0]]
    ok = bounded_probe(quarter, [1.0, 0.0], horizon=16.0)
    assert ok.verdict == "bounded" and "returned" in ok.reason

    # unit rotation has period 2*pi, never on the quarter-step grid
    shy = bounded_probe(ROT, [1.0, 0.0], horizon=16.0)
    assert shy.verdict == "undetermined"


def test_bounded_probe_origin_and_cap_validation():
    assert bounded_probe(ROT, [0.0, 0.0]).verdict == "bounded"
    with pytest.raises(InputError):
        bounded_probe(ROT, [1.0, 0.0], growth_cap=1.0)


def test_bounded_probe_overflow_is_silent():
    # the expanding direction overflows to inf within the default horizon
    a, _ = realize_blocks([(0.5, 1, 1), (1j, 1, 1), (-1j, 1, 1)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = bounded_probe(a, [1.0, 1.0, 0.0])
    assert res.verdict == "unbounded"


def test_probe_never_contradicts_exact(rng):
    """Random structured systems: sampled verdicts must refine, never
    oppose, the structural ones."""
    determined = 0
    for _ in range(30):
        blocks = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.choice(["rot", "fix", "hyp", "drift"])
            if kind == "rot":
                q = rng.choice([1, 2, 4, 8])
                k = rng.randint(1, 3)
                blocks.append((complex(0.0, 2.0 * math.pi * k / q), 1, 1))
            elif kind == "fix":
                blocks.append((0.0, 1, 1))
            elif kind == "hyp":
                blocks.append((float(rng.choice([-1, 1])), 1, 1))
            else:
                blocks.append((complex(0.0, 1.0), 2, 1))
        arr, layout = realize_blocks(blocks)
        n = arr.shape[0]
        x0 = [
            0.0 if rng.random() < 0.4 else rng.uniform(0.5, 2.0) * rng.choice([-1, 1])
            for _ in range(n)
        ]
        exact = bounded_exact(layout, x0)
        probe = bounded_probe(arr, x0, horizon=64.0, growth_cap=100.0)
        if probe.verdict != "undetermined":
            determined += 1
            assert probe.verdict == exact.verdict, (blocks, x0, probe.reason)
    assert determined >= 5


# ---- minimal period --------------------------------------------------------


def test_min_period_single_rotation():
    fifth = [[0.0, -2.0 * math.pi / 5.0], [2.0 * math.pi / 5.0, 0.0]]
    r = min_period(fifth, [1.0, 0.0])
    assert r.kind == "period"
    assert abs(r.period - 5.0) < 1e-9
    assert r.residual < 1e-9


def test_min_period_two_frequencies():
    # frequencies 2 and 3 close up only after a full turn
    r = min_period(realize_class(RationalClass(Fraction(1), (2, 3))), [1.0, 1.0])
    assert r.kind == "period" and abs(r.period - 2.0 * math.pi) < 1e-6
    # frequencies 2 and 4 share the half-turn
    r = min_period(realize_class(RationalClass(Fraction(2), (1, 2))), [1.0, 1.0])
    assert r.kind == "period" and abs(r.period - math.pi) < 1e-6


def test_min_period_respects_orbit_support():
    cls = RationalClass(Fraction(1, 6), (2, 4, 5))
    arr = realize_class(cls)
    chi = orbit_frequency(cls, [0, 1])  # gcd(2,4)/6 = 1/3
    r = min_period(arr, [1.0, 1.0, 0.0])
    assert r.kind == "period"
    assert abs(r.period - 2.0 * math.pi / float(chi)) < 1e-6


def test_min_period_fixed_point_and_none_found():
    assert min_period(ROT, [0.0, 0.0]).kind == "fixed_point"
    slow = [[0.0, -2.0 * math.pi / 200.0], [2.0 * math.pi / 200.0, 0.0]]
    assert min_period(slow, [1.0, 0.0]).kind == "none_found"


def test_min_period_skips_drifting_near_miss():
    # center Jordan block: distance has minima near full turns but the
    # linear drift keeps them above tolerance, so nothing is accepted
    arr, _ = realize_blocks([(1j, 2, 1)])
    r = min_period(arr, [1.0, 0.1], horizon=30.0)
    assert r.kind == "none_found"


# ---- factorial-reciprocal systems -------------------------------------------


def test_factorial_system_small_cases():
    s1 = FactorialSystem(1)
    assert s1.matrix.rows == ((Fraction(1), Fraction(1, 2)), (Fraction(1), Fraction(1)))
    assert s1.inverse.rows == ((Fraction(2), Fraction(-1)), (Fraction(-2), Fraction(2)))

    s2 = FactorialSystem(2)
    # solving against the last unit vector exposes the corner column
    x = s2.solve([Fraction(0), Fraction(0), Fraction(1)])
    assert x[0] == Fraction(1)


def test_corner_coefficient_alternates_sign():
    for r in range(9):
        coeffs = FactorialSystem(r).corner_coefficients
        assert coeffs[-1] == Fraction((-1) ** r)


def test_factorial_solve_exact_round_trip(rng):
    # the exact path has zero residual at every order; the system is far
    # too ill conditioned past r ~ 3 for any float solve to manage that
    for r in range(9):
        sys = FactorialSystem(r)
        rhs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(r + 1)]
        x = sys.solve(rhs)
        assert list(sys.matrix.apply(list(x))) == rhs


def test_factorial_solve_float_residual_small_orders():
    # inverse entries grow factorially (about 7.2e3 at r=3, 1.4e17 at
    # r=8), so the float path only holds tiny residuals at small order
    for r in range(4):
        sys = FactorialSystem(r)
        rhs = np.arange(1.0, r + 2.0) / (r + 1.0) + 0.5j
        x = sys.solve_float(rhs)
        resid = sys.matrix.to_numpy().astype(complex) @ x - rhs
        assert np.abs(resid).max() < 1e-11
    with pytest.raises(InputError):
        FactorialSystem(2).solve_float([1.0, 2.0])


def test_factorial_system_rejects_negative_order():
    with pytest.raises(InputError):
        FactorialSystem(-1)


# ---- witness sequences ------------------------------------------------------


def flows_onto(w):
    """Independent check that each x flows onto its y at the paired time."""
    arr, _ = realize_blocks([(1j * w.beta, w.m, 1)])
    worst = 0.0
    for t, x, y in zip(w.times, w.x_seq, w.y_seq):
        got = mat_exp_array(arr, t) @ np.asarray(x, dtype=complex)
        worst = max(worst, float(np.abs(got - np.asarray(y)).max()))
    return worst


def test_witness_odd_structure_and_limits():
    w = witness_sequence([0.25, -0.5], beta=1.0)
    assert w.m == 3 and w.r == 1 and w.corner_index == 1
    assert w.x_lim == (0.25 + 0j, -0.5 + 0j, 0j)
    assert w.y_lim == (1.25 + 0j, 0.5 + 0j, 0j)
    assert flows_onto(w) < 1e-9

    # prescribed y head is hit exactly at every stage
    for y in w.y_seq:
        assert abs(y[0] - 1.25) < 1e-11

    errs = [
        np.linalg.norm(np.asarray(x) - np.asarray(w.x_lim)) for x in w.x_seq
    ]
    assert errs[-1] < errs[0]
    # rate C/n: the scaled error stays of one size
    scaled = [e * (k + 1) for k, e in enumerate(errs)]
    assert max(scaled) < 4 * min(scaled)


def test_witness_corner_extrapolates_to_limit():
    for head, beta in ([0.25, -0.5], 1.0), ([0.1, 0.3, 0.7], 2.0):
        w = witness_sequence(head, beta=beta)
        pts = w.r + 1
        got = extrapolate_to_zero(w.times[-pts:], w.corner_values[-pts:])
        assert abs(got - w.x_lim[w.corner_index]) < 1e-9


def test_witness_y_sequence_converges():
    w = witness_sequence([0.3, 0.8], beta=2.0, count=40)
    last = np.abs(np.asarray(w.y_seq[-1]) - np.asarray(w.y_lim)).max()
    assert last < 0.05
    first = np.abs(np.asarray(w.y_seq[0]) - np.asarray(w.y_lim)).max()
    assert last < first / 10


def test_witness_even_block():
    w = witness_sequence([0.0], beta=1.0, even=True)
    assert w.m == 2 and w.r == 1
    assert w.x_lim == (0j, 0j)
    assert w.y_lim == (1 + 0j, 0j)
    assert flows_onto(w) < 1e-9
    # the sliding coordinate is exactly 1/t here
    for t, x in zip(w.times, w.x_seq):
        assert abs(x[1] - 1.0 / t) < 1e-12


def test_witness_target_zero_skips_orbit_check():
    # both limits on one orbit would be rejected for an offset target,
    # but a zero target asks for exactly that collapse
    w = witness_sequence([0.5, 0.0], beta=1.0, target_zero=True)
    assert w.y_lim[0] == 0j and w.y_lim[1] == 0j
    assert flows_onto(w) < 1e-9


def test_witness_zero_frequency_uses_integer_times():
    w = witness_sequence([0.25, -0.5], beta=0.0, count=5)
    assert w.times == (1.0, 2.0, 3.0, 4.0, 5.0)
    assert flows_onto(w) < 1e-9


def test_witness_rejects_orbit_equal_limits():
    # head (-1/2, 0): the offset head (1/2, 0) sits on the same orbit,
    # reached at a half turn
    with pytest.raises(DiagnosticError, match="orbit-equal"):
        witness_sequence([-0.5, 0.0], beta=1.0)


def test_witness_input_validation():
    with pytest.raises(InputError):
        witness_sequence([0.1, 0.2], beta=1.0, count=0)
    with pytest.raises(InputError):
        witness_sequence([0.1, 0.2], beta=-1.0)
    with pytest.raises(InputError):
        witness_sequence([0.1], beta=1.0)  # odd needs head plus corner
    with pytest.raises(InputError):
        witness_sequence([], beta=1.0, even=True)


# ---- extrapolation -----------------------------------------------------------


def test_extrapolate_to_zero_polynomial():
    ts = [float(t) for t in range(10, 21)]
    vals = [3.0 - 2.0 / t + 5.0 / t**2 for t in ts]
    assert abs(extrapolate_to_zero(ts, vals, degree=2) - 3.0) < 1e-10
    # full-degree default also recovers the constant term
    assert abs(extrapolate_to_zero(ts[-3:], vals[-3:]) - 3.0) < 1e-9


def test_extrapolate_to_zero_validation():
    with pytest.raises(InputError):
        extrapolate_to_zero([], [])
    with pytest.raises(InputError):
        extrapolate_to_zero([1.0], [1.0, 2.0])
    with pytest.raises(InputError):
        extrapolate_to_zero([1.0, 2.0], [1.0, 2.0], degree=2)
