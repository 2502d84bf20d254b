"""Matrix substrate: exact/float modes, rank, characteristic polynomial,
exponentials, rank sequences, and exact solves, checked against
independent oracles (sympy for algebra, numpy eigendecomposition and
closed forms for exponentials)."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import expected_blocks, random_unimodular, realize_real
from flowclass.errors import DiagnosticError, InputError
from flowclass.numkit import (
    Matrix,
    Poly,
    RationalComplex,
    char_poly,
    inverse_exact,
    mat_exp,
    mat_exp_array,
    power_rank_sequence,
    rank,
    solve_exact,
)

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)
rationals_c = st.builds(RationalComplex, fractions, fractions)


# ---- RationalComplex ----------------------------------------------------------


@given(rationals_c, rationals_c, rationals_c)
@settings(max_examples=60)
def test_rational_complex_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(rationals_c)
def test_rational_complex_conjugate_and_abs2(a):
    assert (a * a.conjugate()).im == 0
    assert (a * a.conjugate()).re == a.abs2()
    assert a.conjugate().conjugate() == a


@given(rationals_c)
def test_rational_complex_division_inverts(a):
    if a == RationalComplex(Fraction(0), Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            RationalComplex(Fraction(1), Fraction(0)) / a
    else:
        assert a / a == RationalComplex(Fraction(1), Fraction(0))
        assert (a * 2) / 2 == a


def test_rational_complex_mixed_arithmetic():
    z = RationalComplex(Fraction(1, 2), Fraction(3))
    assert z + 1 == RationalComplex(Fraction(3, 2), Fraction(3))
    assert 2 * z == RationalComplex(Fraction(1), Fraction(6))
    assert z - Fraction(1, 2) == RationalComplex(Fraction(0), Fraction(3))
    assert complex(z) == 0.5 + 3j
    assert str(z) == "1/2+3i"


# ---- construction and modes -----------------------------------------------------


def test_exact_matrix_normalizes_ints_to_fractions():
    m = Matrix.exact([[1, 2], [3, 4]])
    assert m.mode == "exact" and m.field == "real"
    assert all(isinstance(x, Fraction) for row in m.rows for x in row)


def test_exact_matrix_rejects_floats():
    with pytest.raises(InputError):
        Matrix.exact([[0.5, 0], [0, 1]])


def test_float_matrix_rejects_fractions():
    with pytest.raises(InputError):
        Matrix.floating([[Fraction(1, 2), 0], [0, 1]])


def test_complex_field_is_inferred():
    # exact matrices are real-only: only a float matrix has a complex field
    with pytest.raises(InputError):
        Matrix.exact([[RationalComplex(Fraction(0), Fraction(1)), 0], [0, 1]])
    with pytest.raises(InputError):
        Matrix([[1, 0], [0, 1]], "exact", "complex")
    f = Matrix.floating([[1j, 0], [0, 1.0]])
    assert f.field == "complex"


def test_non_square_rejected():
    with pytest.raises(InputError):
        Matrix.exact([[1, 2, 3], [4, 5, 6]])


def test_shift_promotes_field():
    m = Matrix.exact([[0, 1], [-1, 0]])
    with pytest.raises(InputError):
        m.shifted(RationalComplex(Fraction(0), Fraction(1)))  # exact stays real
    with pytest.raises(InputError):
        m.shifted(0.5)  # float shift of an exact matrix
    shifted = m.to_float().shifted(RationalComplex(Fraction(0), Fraction(1)))
    assert shifted.field == "complex"
    assert shifted.rows[0] == (-1j, 1 + 0j)


def test_matmul_and_pow_match_numpy():
    rng = random.Random(3)
    a = Matrix.exact([[Fraction(rng.randint(-4, 4)) for _ in range(3)] for _ in range(3)])
    b = Matrix.exact([[Fraction(rng.randint(-4, 4)) for _ in range(3)] for _ in range(3)])
    np_prod = a.to_numpy() @ b.to_numpy()
    assert np.allclose((a @ b).to_numpy(), np_prod)
    assert np.allclose((a**3).to_numpy(), np.linalg.matrix_power(a.to_numpy(), 3))


def test_block_diag_and_jordan_block():
    j = Matrix.jordan_block(Fraction(2), 3, "exact")
    assert j.rows[0][1] == 1 and j.rows[1][2] == 1 and j.rows[0][0] == 2
    d = Matrix.block_diag([j, Matrix.identity(2, "exact", "real")])
    assert d.n == 5
    assert d.rows[3][3] == 1 and d.rows[0][3] == 0


def test_companion_matches_poly():
    p = Poly.make((Fraction(2), Fraction(-3), Fraction(1), Fraction(1)))
    c = Matrix.companion(p, "exact")
    assert char_poly(c) == p


# ---- rank ------------------------------------------------------------------------


def test_rank_exact_matches_sympy():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 5)
        rows = [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(n)
        ]
        m = Matrix.exact(rows)
        expected = sympy.Matrix(
            [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows]
        ).rank()
        assert rank(m) == expected


def test_rank_float_threshold_is_relative():
    m = Matrix.floating([[1e6, 0.0], [0.0, 1e-6]])
    # pivot 1e-6 is below 1e-10 * 1e6: treated as zero
    assert rank(m) == 1
    assert rank(m, tol=1e-14) == 2


def test_rank_exact_rejects_tolerance():
    m = Matrix.exact([[1, 0], [0, 1]])
    assert rank(m, tol=0) == 2
    with pytest.raises(InputError):
        rank(m, tol=1e-12)


def test_rank_negative_tol_rejected():
    with pytest.raises(InputError):
        rank(Matrix.floating([[1.0]]), tol=-1.0)


# ---- characteristic polynomial ------------------------------------------------------


def _random_rational_rows(rng, n):
    return [
        [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
        for _ in range(n)
    ]


def _assert_char_poly_matches_sympy(rows):
    got = char_poly(Matrix.exact(rows))
    sm = sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows]
    )
    t = sympy.Symbol("t")
    expected = sympy.Poly(sm.charpoly(t).as_expr(), t).all_coeffs()
    expected = [Fraction(int(c.p), int(c.q)) for c in expected][::-1]  # ascending
    assert list(got.coeffs) == expected, rows
    assert all(type(c) is Fraction for c in got.coeffs)
    assert got.is_monic()


def test_char_poly_matches_sympy_exact():
    rng = random.Random(5)
    for _ in range(20):
        _assert_char_poly_matches_sympy(_random_rational_rows(rng, rng.randint(1, 5)))


def _structured_rows(rng, n):
    """Block-diagonal, reducible (block upper triangular) or sparse rows,
    then a random simultaneous permutation of rows and columns."""
    kind = rng.choice(("block_diag", "reducible", "sparse"))
    rows = _random_rational_rows(rng, n)
    if kind == "sparse":
        rows = [[x if rng.random() < 0.3 else Fraction(0) for x in row] for row in rows]
    else:
        cuts = sorted(rng.sample(range(1, n), rng.randint(1, n - 1)))
        bounds = list(zip([0] + cuts, cuts + [n]))
        for lo, hi in bounds:
            for i in range(lo, hi):
                for j in range(n):
                    below = j < lo
                    above = j >= hi and kind == "block_diag"
                    if below or above:
                        rows[i][j] = Fraction(0)
    if rng.random() < 0.6:
        perm = list(range(n))
        rng.shuffle(perm)
        rows = [[rows[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    return rows


def test_char_poly_matches_sympy_on_structured_inputs():
    # zeros below the diagonal put a zero on the subdiagonal during the
    # Hessenberg reduction: a block-diagonal input leaves whole columns
    # with nothing to bring up, and a permuted one needs the row/column
    # swap; the two fixed cases reach each branch for certain
    rng = random.Random(29)
    cases = [
        [[0, 1, 0], [0, 0, 1], [1, 0, 0]],  # swap at the first column
        [[2, 0, 0, 0], [0, 1, 1, 0], [0, 3, 0, 1], [0, 1, 0, 0]],  # skip
    ]
    cases = [[[Fraction(x) for x in row] for row in rows] for rows in cases]
    cases += [_structured_rows(rng, rng.randint(2, 8)) for _ in range(40)]
    for rows in cases:
        _assert_char_poly_matches_sympy(rows)


def test_char_poly_float_agrees_with_exact():
    rng = random.Random(6)
    rows = [[Fraction(rng.randint(-3, 3)) for _ in range(4)] for _ in range(4)]
    exact = char_poly(Matrix.exact(rows))
    floated = char_poly(Matrix.exact(rows).to_float())
    assert np.allclose(
        [float(c) for c in exact.coeffs], list(floated.coeffs), atol=1e-9
    )


# ---- matrix exponential --------------------------------------------------------------


def test_mat_exp_rotation_closed_form():
    for omega in (0.5, 1.0, 2.0, math.pi):
        arr = np.array([[0.0, omega], [-omega, 0.0]])
        for t in (0.0, 0.3, 1.7, 5.0, -2.2):
            got = mat_exp_array(arr, t)
            expected = np.array(
                [
                    [math.cos(omega * t), math.sin(omega * t)],
                    [-math.sin(omega * t), math.cos(omega * t)],
                ]
            )
            assert np.allclose(got, expected, atol=1e-12)


def test_mat_exp_matches_eigendecomposition():
    rng = np.random.default_rng(12)
    for _ in range(15):
        n = int(rng.integers(2, 5))
        arr = rng.uniform(-2, 2, (n, n))
        t = float(rng.uniform(-1.5, 1.5))
        vals, vecs = np.linalg.eig(arr)
        oracle = (vecs * np.exp(t * vals)) @ np.linalg.inv(vecs)
        got = mat_exp_array(arr, t)
        assert np.allclose(got, oracle, atol=1e-8 * np.abs(oracle).max())


def test_mat_exp_exact_nilpotent_is_exact():
    a = Matrix.exact([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    e = mat_exp(a, Fraction(1, 2))
    assert e.mode == "exact"
    assert e.rows[0][1] == Fraction(1, 2)
    assert e.rows[0][2] == Fraction(1, 8)  # t^2/2 at t = 1/2
    assert e.rows[1][2] == Fraction(1, 2)


def test_mat_exp_group_property():
    a = Matrix.exact([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert mat_exp(a, Fraction(1, 3)) @ mat_exp(a, Fraction(2, 3)) == mat_exp(a, 1)


def test_mat_exp_non_nilpotent_exact_falls_to_float():
    a = Matrix.exact([[1, 0], [0, 2]])
    e = mat_exp(a, 1)
    assert e.mode == "float"
    assert np.allclose(e.to_numpy(), np.diag([math.e, math.e**2]))


def test_mat_exp_infinite_time_rejected():
    with pytest.raises(InputError):
        mat_exp(Matrix.floating([[1.0]]), float("inf"))


# ---- rank sequences --------------------------------------------------------------------


def test_power_rank_sequence_two_blocks():
    # J_2(0) + J_1(0): ranks of powers of the shifted matrix are 3, 1, 0, 0
    a = Matrix.block_diag(
        [Matrix.jordan_block(Fraction(0), 2, "exact"),
         Matrix.jordan_block(Fraction(0), 1, "exact")]
    )
    assert power_rank_sequence(a, Fraction(0), 3) == [3, 1, 0, 0]


def test_power_rank_sequence_is_nonincreasing_property():
    rng = random.Random(9)
    for _ in range(10):
        n = rng.randint(2, 4)
        rows = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        a = Matrix.exact(rows)
        seq = power_rank_sequence(a, Fraction(0), n)
        assert all(x >= y for x, y in zip(seq, seq[1:]))


def test_power_rank_sequence_off_axis_pairs_match_construction(rng):
    # a pair a +- bi with a != 0 is measured through the real quadratic
    # q(A); over C, rank (A - lam I)^k = n - sum count * min(m, k)
    for _ in range(4):
        a = Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2)))
        b = Fraction(rng.randint(1, 4), rng.choice((1, 3)))
        parts = [(a, b, 1, rng.randint(1, 2)), (a, b, 2, 1), (-a, b, 1, 1)]
        base = realize_real(parts)
        s, s_inv = random_unimodular(rng, base.n, ops=4 * base.n)
        dense = (s @ base) @ s_inv
        kmax = 4
        for sign in (1, -1):
            lam = RationalComplex(a, sign * b)
            blocks = [(m, c) for mu, m, c in expected_blocks(parts) if mu == lam]
            expected = [
                dense.n - sum(c * min(m, k) for m, c in blocks) for k in range(kmax + 1)
            ]
            assert power_rank_sequence(dense, lam, kmax) == expected, parts


# ---- exact solves ------------------------------------------------------------------------


def test_solve_and_inverse_exact():
    rng = random.Random(21)
    for _ in range(10):
        n = rng.randint(1, 4)
        while True:
            rows = [
                [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
                for _ in range(n)
            ]
            m = Matrix.exact(rows)
            if rank(m) == n:
                break
        rhs = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
        x = solve_exact(m, rhs)
        assert list(m.apply(x)) == rhs
        inv = inverse_exact(m)
        assert inv @ m == Matrix.identity(n, "exact", "real")


def test_inverse_exact_singular_refuses():
    with pytest.raises(DiagnosticError):
        inverse_exact(Matrix.exact([[1, 2], [2, 4]]))


# ---- Poly -----------------------------------------------------------------------------------


def test_poly_basics():
    p = Poly.make((Fraction(1), Fraction(0), Fraction(1)))  # 1 + t^2
    assert p.degree == 2
    assert p(Fraction(2)) == 5
    assert p.derivative().coeffs == (Fraction(0), Fraction(2))
    assert Poly.make((Fraction(3), Fraction(0), Fraction(0))).degree == 0
