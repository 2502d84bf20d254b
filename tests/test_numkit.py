"""Matrix substrate: exact/float modes, rank, characteristic polynomial,
float exponentials, rank sequences, and exact solves, checked against
independent oracles (sympy for algebra, numpy eigendecomposition and
closed forms for exponentials)."""

import math
import numbers
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    direct_sum,
    expected_blocks,
    haar_similar,
    hyperbolic_blocks,
    jordan,
    random_unimodular,
    realize_real,
    reference_float_ranks,
    rotation,
)
from flowclass.errors import DiagnosticError, InputError
from flowclass.numkit import (
    Matrix,
    Poly,
    RationalComplex,
    canonical_lam,
    char_poly,
    float_rank_sequence,
    inverse_exact,
    lam_parts,
    mat_exp_array,
    power_rank_sequence,
    rank,
    re_sign,
    solve_exact,
)
from flowclass.spectral import jordan_counts

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)
rationals_c = st.builds(RationalComplex, fractions, fractions)


# ---- RationalComplex ----------------------------------------------------------


@given(rationals_c)
def test_rational_complex_conjugate_and_hash(a):
    assert a.conjugate().conjugate() == a
    assert complex(a.conjugate()) == complex(a).conjugate()
    twin = RationalComplex(Fraction(a.re), Fraction(a.im))
    assert twin == a and hash(twin) == hash(a)
    assert (a.conjugate() == a) == (a.im == 0)


def test_rational_complex_mixed_arithmetic():
    # a plain value: exact eigenvalues are read through their parts, so
    # the type defines no arithmetic
    z = RationalComplex(Fraction(1, 2), Fraction(3))
    with pytest.raises(TypeError):
        z + 1
    assert complex(z) == 0.5 + 3j
    assert str(z) == "1/2+3i"
    assert str(z.conjugate()) == "1/2-3i"


# ---- scalar helpers ----------------------------------------------------------------


def _abc_lam_parts(lam) -> tuple:
    """lam_parts by the ABC chain alone: the reference for its exact-type
    fast paths."""
    if isinstance(lam, RationalComplex):
        return lam.re, lam.im
    if isinstance(lam, Fraction):
        return lam, Fraction(0)
    if isinstance(lam, int):
        return Fraction(lam), Fraction(0)
    if isinstance(lam, numbers.Complex):
        z = complex(lam)
        return z.real, z.imag
    raise InputError(f"cannot interpret scalar {lam!r}")


def _abc_canonical_lam(lam):
    re, im = _abc_lam_parts(lam)
    if im == 0:
        return re
    return lam if isinstance(lam, RationalComplex) else complex(re, im)


def _abc_re_sign(lam, tol: float = 0.0) -> int:
    re, _ = _abc_lam_parts(lam)
    if isinstance(re, Fraction):
        re = re.numerator
    elif abs(re) <= tol:
        return 0
    return (re > 0) - (re < 0)


def _same_value(x, y) -> bool:
    """Equal in type and in repr, so that NaN, -0.0 and 0.0 are told apart."""
    if isinstance(x, tuple):
        return isinstance(y, tuple) and len(x) == len(y) and all(map(_same_value, x, y))
    return type(x) is type(y) and repr(x) == repr(y)


SCALARS = [
    0.0, -0.0, 1.5, -2.25, 1e-320, 1e308, math.nan, math.inf, -math.inf,
    complex(1.5, -2.0), complex(-0.0, 0.0), complex(0.0, -0.0), complex(3.0, math.nan),
    np.float64(-0.5), np.float64(-0.0), np.complex128(1 - 2j), np.complex128(4.0),
    True, False, 0, -7, 10**400,
    Fraction(3, 4), Fraction(-5, 2), Fraction(0), Fraction(10**400, 3),
    RationalComplex(Fraction(1, 2), Fraction(-3)), RationalComplex(Fraction(0), Fraction(0)),
]


@pytest.mark.parametrize("lam", SCALARS, ids=repr)
def test_scalar_helpers_equal_the_abc_chain(lam):
    assert _same_value(lam_parts(lam), _abc_lam_parts(lam))
    assert _same_value(canonical_lam(lam), _abc_canonical_lam(lam))
    for tol in (0.0, 1e-8, 3.0):
        assert re_sign(lam, tol) == _abc_re_sign(lam, tol)


def test_scalar_helpers_refuse_what_the_abc_chain_refuses():
    for bad in ("1.5", None, [1.0, 2.0]):
        for helper in (lam_parts, canonical_lam, re_sign):
            with pytest.raises(InputError, match="cannot interpret scalar"):
                helper(bad)


# ---- construction and modes -----------------------------------------------------


def test_exact_matrix_normalizes_ints_to_fractions():
    m = Matrix.exact([[1, 2], [3, 4]])
    assert m.mode == "exact" and repr(m) == "Matrix(n=2, mode=exact)"
    assert all(isinstance(x, Fraction) for row in m.rows for x in row)


def test_exact_matrix_rejects_floats():
    with pytest.raises(InputError):
        Matrix.exact([[0.5, 0], [0, 1]])


def test_float_matrix_rejects_fractions():
    with pytest.raises(InputError):
        Matrix.floating([[Fraction(1, 2), 0], [0, 1]])


COMPLEX_REFUSAL = "matrices are real; cannot hold complex entry"


def test_complex_entries_are_refused():
    # matrices are real in both modes; numpy's complex scalars and arrays
    # are refused too, not truncated to their real part
    with pytest.raises(InputError):
        Matrix.exact([[RationalComplex(Fraction(0), Fraction(1)), 0], [0, 1]])
    for build in (
        lambda: Matrix.exact([[1j, 0], [0, 1]]),
        lambda: Matrix.floating([[1j, 0], [0, 1.0]]),
        lambda: Matrix.floating([[np.complex64(1j), 0.0], [0.0, 1.0]]),
        lambda: Matrix.from_numpy(np.array([[0.0, 1j], [1.0, 0.0]])),
        lambda: Matrix.from_numpy(np.eye(2, dtype=complex)),
    ):
        with pytest.raises(InputError, match=COMPLEX_REFUSAL):
            build()


def test_float_matrix_refuses_strings():
    for rows in ([["1.5", 0], [0, 1]], [[b"1", 0], [0, 1]]):
        with pytest.raises(InputError, match="real numbers"):
            Matrix.floating(rows)


def test_entries_beyond_float_range_are_refused():
    with pytest.raises(InputError, match="beyond the float range"):
        Matrix.floating([[10**400, 0], [0, 1]])
    big = Matrix.exact([[Fraction(10**400, 3), 0], [0, 1]])
    for convert in (big.to_numpy, big.to_float):
        with pytest.raises(InputError, match="beyond the float range"):
            convert()
    assert Matrix.exact([[Fraction(1, 10**400)]]).to_numpy()[0, 0] == 0.0


def test_non_square_rejected():
    with pytest.raises(InputError):
        Matrix.exact([[1, 2, 3], [4, 5, 6]])
    for rows in (np.zeros((2, 3)), np.zeros((0, 0)), [[1.0, 2.0]], []):
        with pytest.raises(InputError, match="square and nonempty"):
            Matrix.floating(rows)


def test_float_matrix_holds_one_read_only_array():
    # to_numpy hands out the matrix's own array; a write into it raises
    # instead of changing the matrix
    src = np.array([[1.0, -0.0], [2.5, 3.0]])
    m = Matrix.from_numpy(src)
    arr = m.to_numpy()
    assert arr is m.to_numpy() and arr.dtype == np.float64 and not arr.flags.writeable
    src[0, 0] = 7.0  # the caller's array is copied, not kept
    assert m.rows == ((1.0, -0.0), (2.5, 3.0))
    assert all(type(x) is float for row in m.rows for x in row)
    with pytest.raises(ValueError, match="read-only"):
        arr[0, 0] = 5.0
    with pytest.raises(ValueError, match="read-only"):
        arr += 1.0
    assert Matrix.floating([[1.0, -0.0], [2.5, 3.0]]) == m
    assert hash(Matrix.floating([[1, 0], [2.5, 3]])) == hash(m)
    assert Matrix.exact([[1, 0], [Fraction(5, 2), 3]]).to_float() == m


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.float16, np.int64, np.int8,
                                   np.uint64, np.uint8])
def test_real_arrays_hold_the_values_of_their_entries(dtype):
    # an array is converted in one step to the float64 values the entry
    # by entry route gives: float() of each element
    values = np.array([[2**62 + 1, 3], [-7, 0]]) if np.dtype(dtype).kind == "i" else (
        np.array([[2**63 + 2**11 + 1, 3], [7, 0]], dtype=np.uint64)
        if np.dtype(dtype).kind == "u" else np.array([[0.1, -2.5], [1e-5, 3.0]]))
    arr = values.astype(dtype)
    want = tuple(tuple(float(x) for x in row) for row in arr)
    for m in (Matrix.from_numpy(arr), Matrix.floating(arr)):
        assert m.rows == want and m.to_numpy().dtype == np.float64


def test_arrays_numpy_cannot_hold_as_floats_take_the_entry_route():
    # bools, long doubles and objects go entry by entry, as lists always did
    assert Matrix.from_numpy(np.array([[True, False], [False, True]])).rows == (
        (1.0, 0.0), (0.0, 1.0))
    with pytest.raises(InputError, match="real numbers"):
        Matrix.floating(np.array([[True, False], [False, True]]))
    long = np.array([[1, 2], [3, 4]], dtype=np.longdouble) / 3
    assert Matrix.from_numpy(long).rows == tuple(tuple(float(x) for x in row) for row in long)
    with pytest.raises(InputError, match="exact entry"):
        Matrix.from_numpy(np.array([[Fraction(1, 2), 0.0], [0.0, 1.0]], dtype=object))


def test_matmul_and_pow_match_numpy():
    rng = random.Random(3)
    a = Matrix.exact([[Fraction(rng.randint(-4, 4)) for _ in range(3)] for _ in range(3)])
    b = Matrix.exact([[Fraction(rng.randint(-4, 4)) for _ in range(3)] for _ in range(3)])
    np_prod = a.to_numpy() @ b.to_numpy()
    assert np.allclose((a @ b).to_numpy(), np_prod)


def test_block_diag_and_jordan_block():
    # the row builders of conftest, which build the tests' block inputs
    j = realize_real([(2, 0, 3, 1)])
    assert j.rows[0][1] == 1 and j.rows[1][2] == 1 and j.rows[0][0] == 2
    d = realize_real([(2, 0, 3, 1), (1, 0, 1, 2)])
    assert d.n == 5
    assert d.rows[3][3] == 1 and d.rows[0][3] == 0
    assert np.array_equal(direct_sum([jordan(2.0, 3), np.eye(2)]), d.to_numpy())
    with pytest.raises(InputError, match=COMPLEX_REFUSAL):
        Matrix.from_numpy(jordan(1j, 2))


def test_companion_matches_poly():
    p = Poly.make((Fraction(2), Fraction(-3), Fraction(1), Fraction(1)))
    c = Matrix.exact([[0, 0, -2], [1, 0, 3], [0, 1, -1]])
    assert char_poly(c) == p


def test_char_poly_refuses_float_matrix():
    with pytest.raises(InputError, match="exact matrix"):
        char_poly(Matrix.floating([[1.0, 2.0], [3.0, 4.0]]))


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
    assert got.coeffs[-1] == 1


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
    # zeros cut the recurrence short: a zero column above the diagonal
    # leaves a step with no taps, and a row vector r B^j that vanishes
    # stops the taps early; the permutations move the zeros about
    rng = random.Random(29)
    cases = [
        [[0, 1, 0], [0, 0, 1], [1, 0, 0]],  # a cyclic permutation
        [[2, 0, 0, 0], [0, 1, 1, 0], [0, 3, 0, 1], [0, 1, 0, 0]],  # block diagonal
    ]
    cases = [[[Fraction(x) for x in row] for row in rows] for rows in cases]
    cases += [_structured_rows(rng, rng.randint(2, 8)) for _ in range(40)]
    for rows in cases:
        _assert_char_poly_matches_sympy(rows)


def _expanded(parts) -> list:
    """Ascending coefficients of prod (t - lam)^m over the eigenvalues of
    realize_real(parts), expanded with Fractions."""
    out = [Fraction(1)]
    for a, b, m, count in parts:
        a, b = Fraction(a), Fraction(b)
        factor = [a * a + b * b, -2 * a, Fraction(1)] if b else [-a, Fraction(1)]
        for _ in range(m * count):
            nxt = [Fraction(0)] * (len(out) + len(factor) - 1)
            for i, x in enumerate(out):
                for j, y in enumerate(factor):
                    nxt[i + j] += x * y
            out = nxt
    return out


def _parts_of_size(rng, n):
    """Real-Jordan data of total size n: rational values and pairs in
    blocks up to size 3, some of them repeated."""
    parts = []
    while n:
        b = Fraction(rng.randint(1, 5), rng.randint(1, 3)) if n >= 2 and rng.random() < 0.5 else 0
        m = rng.randint(1, min(3, n // 2 if b else n))
        part = (Fraction(rng.randint(-4, 4), rng.randint(1, 3)), b, m, rng.choice((1, 1, 2)))
        if (1 + bool(b)) * m * part[3] > n:
            part = part[:3] + (1,)
        parts.append(part)
        n -= (1 + bool(b)) * m * part[3]
    return parts


@pytest.mark.parametrize("n", [16, 24, 32])
def test_char_poly_of_dense_similar_matrices(n):
    # S J S^-1 with J in real-Jordan form and S = U D rational: U
    # unimodular, D diagonal with denominators up to 5
    rng = random.Random(n)
    parts = _parts_of_size(rng, n)
    u, u_inv = random_unimodular(rng, n, ops=8 * n)
    d = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 7), rng.randint(1, 5)) for _ in range(n)]
    diag = Matrix.exact([[d[i] if i == j else 0 for j in range(n)] for i in range(n)])
    diag_inv = Matrix.exact([[1 / d[i] if i == j else 0 for j in range(n)] for i in range(n)])
    a = (u @ diag) @ realize_real(parts) @ (diag_inv @ u_inv)
    assert sum(bool(x) for row in a.rows for x in row) > 0.8 * n * n  # dense
    assert any(x.denominator > 1 for row in a.rows for x in row)
    assert list(char_poly(a).coeffs) == _expanded(parts)


@pytest.mark.parametrize("parts", [
    [(Fraction(1, 2), 3, 5, 1), (0, 2, 3, 2), (-1, Fraction(1, 3), 1, 4), (2, 0, 4, 1),
     (0, 0, 3, 1), (Fraction(-3, 2), 0, 1, 3)],  # sparse real-Jordan, n = 36
    [(Fraction(-7, 3), 0, 1, 1)],  # n = 1
    [(0, 0, 1, 5)],  # the zero matrix
], ids=["real-jordan", "n=1", "zero"])
def test_char_poly_of_sparse_real_jordan_matrices(parts):
    a = realize_real(parts)
    assert list(char_poly(a).coeffs) == _expanded(parts)


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


def _exp_by_terms(arr, t):
    """Reference exponential: the same scaling and squaring, with the 20
    Taylor terms summed one product at a time."""
    a = t * np.asarray(arr)
    norm = np.abs(a).sum(axis=0).max()
    s = 0 if norm <= 0.5 else math.ceil(math.log2(norm / 0.5))
    b = a / 2.0**s
    acc = np.eye(a.shape[0], dtype=a.dtype)
    term = acc.copy()
    for k in range(1, 21):
        term = term @ b / k
        acc = acc + term
    for _ in range(s):
        acc = acc @ acc
    return acc


def _random_normal(gen, complex_kind):
    """A normal matrix U diag(lam) U* with max |lam| in [1, 2], and a
    function of t that evaluates U diag(exp(t lam)) U* in extended
    precision.  U is a product of Householder reflections formed in
    extended precision; a real matrix pairs conjugate eigenvalues on the
    eigenvectors (q_k +- i q_(k+h))/sqrt(2)."""
    n = int(gen.integers(1, 9))
    q = np.eye(n, dtype=np.clongdouble if complex_kind else np.longdouble)
    for _ in range(n):
        v = gen.standard_normal(n)
        if complex_kind:
            v = v + 1j * gen.standard_normal(n)
        v = v.astype(q.dtype)
        q = q - np.outer(2 * (q @ v) / np.vdot(v, v).real, v.conj())
    lam = gen.standard_normal(n) + 1j * gen.standard_normal(n)
    if complex_kind:
        u = q
    else:
        h = n // 2
        lam = np.concatenate([lam[:h], lam[:h].conj(), lam[2 * h :].real])
        u = q.astype(np.clongdouble)
        u[:, :h] = (q[:, :h] + 1j * q[:, h : 2 * h]) / np.sqrt(np.longdouble(2))
        u[:, h : 2 * h] = u[:, :h].conj()
    lam = (lam / np.abs(lam).max() * gen.uniform(1.0, 2.0)).astype(np.clongdouble)

    def exact(x):
        return (u * x) @ u.conj().T

    arr = exact(lam)
    arr = arr.astype(complex) if complex_kind else arr.real.astype(float)
    return arr, lambda t: exact(np.exp(t * lam))


@pytest.mark.parametrize("complex_kind", [False, True])
def test_mat_exp_array_accuracy_on_normal_matrices(complex_kind):
    """Against the eigendecomposition of a normal matrix, whose exponential
    has relative condition number |tA|: the error stays within
    2e-15 * |A|_1 * |t| of the norm, as the term-by-term series does.
    |tA| >= 1, below which a rounding floor of order u dominates."""
    gen = np.random.default_rng(5100 + complex_kind)
    for _ in range(40):
        arr, oracle = _random_normal(gen, complex_kind)
        bound = 2e-15 * np.abs(arr).sum(axis=0).max()
        for t in (4.0, -4.0, 16.0, -16.0, 64.0, 128.0):
            want = oracle(t).astype(complex)
            scale = np.linalg.norm(want, 2) * bound * abs(t)
            for got in (mat_exp_array(arr, t), _exp_by_terms(arr, t)):
                assert got.dtype == arr.dtype
                assert np.linalg.norm(got - want, 2) <= scale


def test_mat_exp_array_overflowing_slice_is_silent():
    arr = np.diag([200.0, -1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not np.all(np.isfinite(mat_exp_array(arr, 10.0)))
        assert np.all(np.isfinite(mat_exp_array(arr, 1.0)))


def test_mat_exp_array_refuses_non_finite_time_and_norm():
    for t in (math.nan, math.inf, -math.inf):
        with pytest.raises(InputError, match="time must be a finite number"):
            mat_exp_array(np.eye(2), t)
    # |t*A|_1 overflows: the squaring count cannot be read from it
    huge = np.full((2, 2), 1.0e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for arr, t in ((huge, 1.0), (np.eye(2), 1.0e308), (np.eye(2) * 1e300, 1e10)):
            with pytest.raises(DiagnosticError, match=r"\|t\*A\|_1 overflows at t="):
                mat_exp_array(arr, t)
        # a norm of 1.5 * 2^1022 still scales: by 2^-1024, though 2^1024
        # is no float, and squared back 1024 times
        nilpotent = np.array([[0.0, 1.5 * 2.0**1022], [0.0, 0.0]])
        assert np.array_equal(mat_exp_array(nilpotent, 1.0), np.eye(2) + nilpotent)


# ---- rank sequences --------------------------------------------------------------------


def test_power_rank_sequence_two_blocks():
    # J_2(0) + J_1(0): ranks of powers of the shifted matrix are 3, 1, 0, 0
    a = realize_real([(0, 0, 2, 1), (0, 0, 1, 1)])
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


def _sympy_matrix(m):
    return sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in m.rows]
    )


def _row_denominators(rows):
    """D^-1 rows D with D = diag(1, 2, ..., n): row i is divided by i + 1
    and column j multiplied by j + 1, a similarity, so rows get
    different denominators and the spectrum is kept."""
    return [
        [Fraction(x) * (j + 1) / (i + 1) for j, x in enumerate(row)]
        for i, row in enumerate(rows)
    ]


def _low_rank(rng, n):
    """n x r times r x n with row i of the left factor over i + 1."""
    r = rng.randint(1, n - 1)
    x = [[Fraction(rng.randint(-3, 3), i + 1) for _ in range(r)] for i in range(n)]
    y = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(r)]
    return [[sum(x[i][k] * y[k][j] for k in range(r)) for j in range(n)]
            for i in range(n)]


def test_power_rank_sequence_integer_kernel_matches_sympy(rng):
    # the integer kernel clears one common denominator; rows with
    # different denominators and Jordan blocks at lam catch a per-row
    # clearing, which changes the ranks of powers
    for _ in range(12):
        lam = Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))
        a = Fraction(rng.choice((-1, 1)), rng.choice((1, 2)))
        b = Fraction(rng.randint(1, 3), 2)
        parts = [(lam, 0, rng.randint(1, 3), 1), (lam, 0, 1, rng.randint(1, 2)),
                 (a, b, rng.randint(1, 2), 1)]  # n <= 3 + 2 + 4
        base = realize_real(parts)
        s, s_inv = random_unimodular(rng, base.n, ops=3 * base.n)
        dense = Matrix.exact(_row_denominators(((s @ base) @ s_inv).rows))
        low = Matrix.exact(_low_rank(rng, base.n))
        sm = _sympy_matrix(dense)
        eye = sympy.eye(dense.n)
        shifted = sm - sympy.Rational(lam.numerator, lam.denominator) * eye
        sa, sb = (sympy.Rational(x.numerator, x.denominator) for x in (a, b))
        q = (sm - sa * eye) ** 2 + sb**2 * eye
        kmax = dense.n
        want_real = [(shifted**k).rank() for k in range(kmax + 1)]
        want_pair = [kmax - (kmax - (q**k).rank()) // 2 for k in range(kmax + 1)]
        assert power_rank_sequence(dense, lam, kmax) == want_real, parts
        pair = RationalComplex(a, b)
        assert power_rank_sequence(dense, pair, kmax) == want_pair, parts
        want_low = [(_sympy_matrix(low) ** k).rank() for k in range(kmax + 1)]
        assert power_rank_sequence(low, 0, kmax) == want_low


def test_rank_integer_kernel_matches_sympy(rng):
    for _ in range(30):
        n = rng.randint(2, 10)
        if rng.random() < 0.5:
            rows = _low_rank(rng, n)
        else:
            rows = [[Fraction(rng.randint(-9, 9), i + 1) for _ in range(n)]
                    for i in range(n)]
        m = Matrix.exact(rows)
        assert rank(m) == _sympy_matrix(m).rank(), rows


def test_power_rank_sequence_exact_input_errors():
    a = Matrix.exact([[0, 1], [-1, 0]])
    for lam, tol in ((0.5, None), (1j, None), (Fraction(0), 1e-9)):
        with pytest.raises(InputError):
            power_rank_sequence(a, lam, 2, tol)


def _rank_sweep_matrix(rng, kind, n):
    """Q J Q^T for one kind of structure, simple hyperbolic values filling
    the rest of the n dimensions."""
    beta = float(rng.uniform(0.5, 2.0))
    if kind == "simple":
        blocks, taken = [], [0j]
    elif kind == "jordan":
        blocks, taken = [jordan(0.5, int(rng.integers(2, 4)))], [0.5 + 0j]
    elif kind == "center":
        jordan_i = np.block([[rotation(0, beta), np.eye(2)],
                             [np.zeros((2, 2)), rotation(0, beta)]])
        blocks, taken = [jordan_i, rotation(0, 2 * beta)], [complex(0, beta), complex(0, 2 * beta)]
    else:  # stiff: one fast value over slow ones
        fast = float(rng.choice((-1, 1)) * rng.uniform(50, 500))
        blocks, taken = [np.array([[fast]]), rotation(0, beta)], [complex(0, beta)]
    hyperbolic, _ = hyperbolic_blocks(rng, taken, n - sum(len(b) for b in blocks))
    return haar_similar(rng, blocks + hyperbolic)


def test_float_rank_sequence_batch_matches_one_shift_walks():
    # every LAPACK root (both sides of each pair), cluster means and
    # shifts that are no eigenvalue, real and complex, several per stack
    rng = np.random.default_rng(71)
    for n in (6, 9, 12):
        for kind in ("simple", "jordan", "center", "stiff"):
            for _ in range(5):
                arr = _rank_sweep_matrix(rng, kind, n)
                norm = float(np.linalg.norm(arr, 2))
                roots = np.linalg.eigvals(arr).tolist()
                shifts = roots + [complex(np.mean(roots)), roots[0] + 0.25, 1.5, 0.3 + 0.7j]
                rng.shuffle(shifts)
                for tol in (None, 1e-6):
                    want = [reference_float_ranks(arr, norm, mu, n, tol) for mu in shifts]
                    assert float_rank_sequence(arr, norm, shifts, n, tol) == want, (kind, n)
                assert float_rank_sequence(arr, norm, shifts, 0) == [[n]] * len(shifts)
    assert float_rank_sequence(np.zeros((3, 3)), 0.0, [0.0, 1j], 3) == [[3, 0, 0, 0], [3, 3, 3, 3]]


def test_rank_routines_refuse_nan_tol():
    a = Matrix.floating([[1.0, 0.0], [0.0, 2.0]])
    with pytest.raises(InputError, match="nonnegative number"):
        power_rank_sequence(a, 1.0, 2, tol=math.nan)
    with pytest.raises(InputError, match="nonnegative number"):
        float_rank_sequence(a.to_numpy(), 2.0, [1.0], 2, tol=math.nan)
    with pytest.raises(InputError, match="nonnegative number"):
        rank(a, tol=math.nan)


_HUGE = Fraction(10**400)
_FLOAT_2X2 = Matrix.floating([[1.0, 0.0], [0.0, 2.0]])


@pytest.mark.parametrize("measure", [
    lambda: power_rank_sequence(_FLOAT_2X2, _HUGE, 2),
    lambda: power_rank_sequence(_FLOAT_2X2, RationalComplex(Fraction(1), _HUGE), 2),
    lambda: float_rank_sequence(_FLOAT_2X2.to_numpy(), 2.0, [1.0, 10**400], 2),
    lambda: jordan_counts(_FLOAT_2X2, _HUGE),
    lambda: jordan_counts(_FLOAT_2X2, RationalComplex(Fraction(0), _HUGE)),
], ids=["power-real", "power-pair", "float-batch", "jordan-real", "jordan-pair"])
def test_float_rank_shifts_beyond_the_float_range_are_refused(measure):
    # the shift's float conversion once raised a bare OverflowError
    with pytest.raises(InputError, match="shift is beyond the float range"):
        measure()


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
        assert [sum(u * v for u, v in zip(row, x)) for row in m.rows] == rhs
        inv = inverse_exact(m)
        assert inv @ m == Matrix.exact([[int(i == j) for j in range(n)] for i in range(n)])


def test_inverse_exact_singular_refuses():
    with pytest.raises(DiagnosticError):
        inverse_exact(Matrix.exact([[1, 2], [2, 4]]))


# ---- Poly -----------------------------------------------------------------------------------


def test_poly_basics():
    p = Poly.make((Fraction(1), Fraction(0), Fraction(1)))  # 1 + t^2
    assert p.degree == 2
    assert Poly.make((Fraction(3), Fraction(0), Fraction(0))).degree == 0
