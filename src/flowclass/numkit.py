"""Scalar and matrix substrate.

Everything downstream runs in one of two scalar modes.  Exact mode keeps
matrix entries as `fractions.Fraction`; float mode keeps them as
`float`.  A matrix never mixes modes, and matrices are real in both:
entry normalisation refuses a complex entry, any other non-real entry,
and an integer beyond the float range in float mode.  `RationalComplex`
(a pair of Fractions) is the scalar type of exact eigenvalues: a plain
value with no arithmetic, which never enters a matrix.  `lam_parts`,
`canonical_lam` and `re_sign` read any scalar of either mode.

`Matrix` is a validated container: it checks and holds the rows (a
float matrix as one read-only ndarray), and converts them to numpy or
to float; the pipeline computes on integer rows (`cleared`) or on
ndarrays, not on `Matrix` values.  Provided here: ranks, exact
characteristic polynomials (Berkowitz's recurrence on the integer rows;
a float matrix has none here, LAPACK gives its eigenvalues in
`spectral`), float matrix exponentials by scaling and squaring, rank
sequences of shifted powers, and exact linear solves.

Exact ranks, and the powers behind exact rank sequences, run on Python
ints: the matrix is scaled once by the lcm of its denominators (one
scalar, never per row; `cleared`), then eliminated fraction-free over
the integers.  A caller measuring many shifts clears once and passes
the integer matrix to `integer_rank_walks` to measure its shifts a rank
at a time.  Float ranks count singular values (LAPACK) above a scaled
threshold, and float rank sequences at many shifts walk their powers in
lockstep, one batched SVD and one batched product per power.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from operator import mul
from typing import Sequence

import numpy as np

from .errors import DiagnosticError, InputError

__all__ = [
    "RationalComplex",
    "lam_parts",
    "canonical_lam",
    "re_sign",
    "Matrix",
    "Poly",
    "rank",
    "char_poly",
    "mat_exp_array",
    "power_rank_sequence",
    "float_rank_sequence",
    "integer_rank_walks",
    "integer_char_poly",
    "cleared",
    "solve_exact",
    "inverse_exact",
    "DEFAULT_RANK_TOL",
]

DEFAULT_RANK_TOL = 1e-10
# float rank sequences: a singular value of (A - lam I)^k counts when it
# exceeds this times ||A||_2^k
_POWER_RANK_TOL = 1e-9

# exp series: scale so the 1-norm of the scaled matrix b is at most 0.5,
# then the Taylor terms through b^20 leave a truncation error below 1e-25,
# far under rounding.  The series is summed by Paterson-Stockmeyer in
# b^5: row j of _EXP_BLOCKS holds the coefficients 1/k! of b^0 .. b^4
# for k = 5j .. 5j+4 (zero past k = 20)
_EXP_TARGET = 0.5
_EXP_TERMS = 20
_EXP_SPLIT = 5
_EXP_BLOCKS = np.array(
    [
        [
            1.0 / math.factorial(k) if k <= _EXP_TERMS else 0.0
            for k in range(j, j + _EXP_SPLIT)
        ]
        for j in range(0, _EXP_TERMS + 1, _EXP_SPLIT)
    ]
)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise InputError(f"expected an exact rational entry, got {x!r}")


@dataclass(frozen=True)
class RationalComplex:
    """Complex scalar with exact rational real and imaginary parts."""

    re: Fraction
    im: Fraction

    def conjugate(self) -> "RationalComplex":
        return RationalComplex(self.re, -self.im)

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        return f"{self.re}{'+' if self.im >= 0 else '-'}{abs(self.im)}i"


# the imaginary part of every real exact scalar; Fractions are immutable
_ZERO = Fraction(0)


def lam_parts(lam) -> tuple:
    """(re, im) of a scalar: Fractions for an exact value (Fraction, int,
    RationalComplex), a Fraction being its own real part, and floats for
    a float or complex one.  The plain float, complex and Fraction types
    are told apart by their exact type first, where the ABC tests below
    cost ten to thirty times as much; every other type takes them."""
    kind = type(lam)
    if kind is float:
        return lam, 0.0
    if kind is complex:
        return lam.real, lam.imag
    if kind is Fraction:
        return lam, _ZERO
    if isinstance(lam, RationalComplex):
        return lam.re, lam.im
    if isinstance(lam, Fraction):
        return lam, _ZERO
    if isinstance(lam, int):
        return Fraction(lam), _ZERO
    if isinstance(lam, numbers.Complex):
        z = complex(lam)
        return z.real, z.imag
    raise InputError(f"cannot interpret scalar {lam!r}")


def canonical_lam(lam):
    """One scalar convention per value: real values are Fraction or float,
    never zero-imaginary complex wrappers; ints count as exact."""
    re, im = lam_parts(lam)
    if im == 0:
        return re
    return lam if isinstance(lam, RationalComplex) else complex(re, im)


def re_sign(lam, tol: float = 0.0) -> int:
    """Sign of the real part: exact for an exact scalar; a float real part
    within tol of zero counts as zero."""
    re, _ = lam_parts(lam)
    if type(re) is not float:  # a Fraction: lam_parts gives no other real part
        re = re.numerator  # the same sign, compared as an int
    elif abs(re) <= tol:
        return 0
    return (re > 0) - (re < 0)


# the value is not shown: an int of over 4300 digits has no str()
_BEYOND_FLOAT = "matrix entry is beyond the float range"


def _normalize_entry(x, mode: str):
    # the mode's own type skips the ABC test below, ten times as costly
    if type(x) is (Fraction if mode == "exact" else float):
        return x
    # the ABC test catches numpy's complex scalars too, which float() would
    # silently truncate to their real part, and strings, which it would read
    if not isinstance(x, numbers.Real):
        if isinstance(x, (numbers.Complex, RationalComplex)):
            raise InputError(f"matrices are real; cannot hold complex entry {x!r}")
        raise InputError(f"matrices hold real numbers; cannot hold {x!r}")
    if mode == "exact":
        return _as_fraction(x)
    # float mode: exact scalars must cross through to_float() explicitly,
    # except plain ints, which are lossless in both modes
    if isinstance(x, Fraction):
        raise InputError(
            f"float matrix cannot hold exact entry {x!r}; convert with to_float()"
        )
    try:
        return float(x)
    except OverflowError:
        raise InputError(_BEYOND_FLOAT) from None


def _real_array(x) -> bool:
    """Whether x is a 2-D ndarray of reals that float64 holds, each as the
    float() of its entry would: float, int or unsigned, at most 64 bits."""
    return (isinstance(x, np.ndarray) and x.ndim == 2 and x.dtype.kind in "fiu"
            and x.dtype.itemsize <= 8)


def _row_product(a_rows, b_rows) -> list:
    """Rows of the product of two square row lists, over any scalars.

    Row by row over the nonzero entries only: realized block matrices and
    their powers are mostly zeros.  Each entry still sums its products in
    ascending k; a skipped product has a zero factor, so for finite floats
    it is +-0 and adding it to an accumulator that starts at +0 changes
    nothing.
    """
    b_nonzero = [[(j, y) for j, y in enumerate(row) if y] for row in b_rows]
    out = []
    for ar in a_rows:
        acc = [0] * len(b_rows)
        for k, x in enumerate(ar):
            if x:
                for j, y in b_nonzero[k]:
                    acc[j] += x * y
        out.append(acc)
    return out


class Matrix:
    """Immutable real square matrix over a single scalar mode: a validated
    container, holding rows and converting them, with no arithmetic but
    `@`.

    Exact matrices hold Fraction entries.  A float matrix holds one
    read-only float64 ndarray, which `to_numpy` returns without a copy
    and `rows` reads as tuples of floats; a real ndarray (float, int or
    unsigned, at most 64 bits) becomes that array by one copy.  A
    complex entry, numpy's included, or any other non-real one raises
    InputError, and so does an entry beyond the float range in float
    mode or in `to_numpy`/`to_float`.
    """

    __slots__ = ("_data", "n", "mode")

    def __init__(self, rows, mode: str):
        if mode not in ("exact", "float"):
            raise InputError(f"unknown scalar mode {mode!r}")
        if mode == "float" and _real_array(rows):
            data = np.array(rows, dtype=np.float64)
            n = len(data)
            if n == 0 or data.shape[1] != n:
                raise InputError("matrix must be square and nonempty")
        else:
            rows = [list(r) for r in rows]
            n = len(rows)
            if n == 0 or any(len(r) != n for r in rows):
                raise InputError("matrix must be square and nonempty")
            data = tuple(tuple(_normalize_entry(x, mode) for x in r) for r in rows)
            if mode == "float":
                data = np.array(data, dtype=np.float64)
        if mode == "float":
            data.flags.writeable = False
        object.__setattr__(self, "_data", data)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mode", mode)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @property
    def rows(self) -> tuple:
        if self.mode == "exact":
            return self._data
        return tuple(map(tuple, self._data.tolist()))

    # ---- constructors -------------------------------------------------

    @classmethod
    def exact(cls, rows) -> "Matrix":
        return cls(rows, "exact")

    @classmethod
    def floating(cls, rows) -> "Matrix":
        return cls(rows, "float")

    @classmethod
    def from_numpy(cls, arr: np.ndarray) -> "Matrix":
        arr = np.asarray(arr)
        # tolist() keeps any other entry as it is, so a complex one is refused
        return cls(arr if _real_array(arr) else arr.tolist(), "float")

    # ---- views and conversions ----------------------------------------

    def to_numpy(self) -> np.ndarray:
        """A float matrix's own read-only array; a new array of an exact
        matrix's entries rounded to floats."""
        if self.mode == "float":
            return self._data
        try:
            return np.array([[float(x) for x in row] for row in self._data], dtype=float)
        except OverflowError:
            raise InputError(_BEYOND_FLOAT) from None

    def to_float(self) -> "Matrix":
        if self.mode == "float":
            return self
        return Matrix.from_numpy(self.to_numpy())

    # ---- product ----------------------------------------------------------

    def _check_operand(self, other: "Matrix") -> None:
        if not isinstance(other, Matrix):
            raise InputError("matrix arithmetic needs two matrices")
        if self.mode != other.mode:
            raise InputError("cannot mix exact and float matrices")
        if self.n != other.n:
            raise InputError("matrix dimensions differ")

    # kept for tests' similarity transforms and wrapped by name in bench/tracing.py
    def __matmul__(self, other):
        self._check_operand(other)
        return Matrix(_row_product(self.rows, other.rows), self.mode)

    # ---- equality -------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.mode == other.mode
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.mode, self.rows))

    def __repr__(self):
        return f"Matrix(n={self.n}, mode={self.mode})"


@dataclass(frozen=True)
class Poly:
    """Polynomial with ascending coefficients; trailing zeros stripped."""

    coeffs: tuple

    @staticmethod
    def make(coeffs) -> "Poly":
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        return Poly(tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1



# ---- rank -----------------------------------------------------------------


def rank(m: Matrix, tol: float | None = None) -> int:
    """Rank of a matrix.

    Exact mode requires tol = 0 (or omitted).  It clears one common
    denominator, scaling A by the lcm D of its entries' denominators,
    and eliminates the integer matrix D*A fraction-free over the
    integers (`_rank_int`); no Fraction arithmetic runs in the loop.
    Float mode counts the singular values (LAPACK SVD) above tol times
    the largest one; tol defaults to 1e-10.
    """
    _check_tol(m, tol)
    if m.mode == "exact":
        return _rank_int(cleared(m)[1])
    s = np.linalg.svd(m.to_numpy(), compute_uv=False)
    return int(np.count_nonzero(s > (DEFAULT_RANK_TOL if tol is None else tol) * s[0]))


def _check_tol(m: Matrix, tol) -> None:
    _check_rank_tol(tol)
    if m.mode == "exact" and tol not in (None, 0):
        raise InputError("exact mode requires tol = 0")


def _check_rank_tol(tol) -> None:
    if tol is not None and not tol >= 0:  # NaN too
        raise InputError("rank tolerance must be a nonnegative number")


def cleared(m: Matrix, *extra: Fraction) -> tuple:
    """(D, rows of D*m as ints), D the lcm of the denominators of m's
    entries and of extra.  One scalar D keeps the rank of every power of
    a shifted matrix; clearing each row by its own denominator would
    multiply by a diagonal matrix that does not commute with m.  Each
    entry's integer ratio is read once."""
    ratios = [[x.as_integer_ratio() for x in row] for row in m.rows]
    d = math.lcm(*{q for row in ratios for _, q in row}, *(x.denominator for x in extra))
    return d, [[p * (d // q) for p, q in row] for row in ratios]


def _primitive(row: list) -> list:
    """row divided by the gcd of its entries; [] for a zero row."""
    g = math.gcd(*row)
    if not g:
        return []
    return row if g == 1 else [x // g for x in row]


def _rank_int(rows: list) -> int:
    """Rank over the rationals of an integer matrix given as rows.

    Fraction-free elimination on primitive rows (Bareiss, Math. Comp. 22,
    1968, without the determinant bookkeeping): the row with the smallest
    nonzero leading entry p is the pivot, and every other row with
    leading entry c becomes (p/g) row - (c/g) pivot, g = gcd(p, c),
    divided by the gcd of its entries.  The leading column, zero in every
    remaining row after the step, is dropped, and so are zero rows.  The
    rows passed in are not modified.
    """
    rows = [row for row in map(_primitive, rows) if row]
    r = 0
    while rows:
        piv = min((row for row in rows if row[0]), key=lambda row: abs(row[0]),
                  default=None)
        if piv is None:
            rows = [row[1:] for row in rows]
            continue
        r += 1
        p, ptail = piv[0], piv[1:]
        rest = []
        for row in rows:
            if row is piv:
                continue
            c = row[0]
            if c:
                g = math.gcd(p, c)
                u, v = p // g, c // g
                row = _primitive([u * x - v * y for x, y in zip(row[1:], ptail)])
            else:
                row = row[1:]
            if row:
                rest.append(row)
        rows = rest
    return r


# ---- characteristic polynomial ---------------------------------------------


def char_poly(m: Matrix) -> Poly:
    """Monic characteristic polynomial det(tI - A) of an exact matrix,
    ascending Fraction coefficients: with B = D A cleared (`cleared`),
    coefficient k is c_k / D^(n-k), c_k that of the integer det(tI - B)
    (`integer_char_poly`).  A float matrix raises InputError: its
    eigenvalues come from LAPACK directly.
    """
    if m.mode != "exact":
        raise InputError("char_poly needs an exact matrix")
    d, b = cleared(m)
    return Poly.make(Fraction(c, d ** (m.n - k)) for k, c in enumerate(integer_char_poly(b)))


def integer_char_poly(b: list) -> list:
    """Ascending integer coefficients of det(tI - B), B a square integer
    matrix given as rows, by Berkowitz's division-free recurrence (Inf.
    Process. Lett. 18, 1984): with B_k the leading k x k block, r and c
    the first k entries of row and column k and x = B[k][k], the
    descending coefficients of det(tI - B_(k+1)) are those of
    det(tI - B_k) times the lower triangular Toeplitz matrix with first
    column (1, -x, -r c, -r B_k c, ..., -r B_k^(k-1) c).  The vectors
    r B_k^j skip zero entries, as `_row_product` does, and the taps stop
    once r B_k^j or c is zero.  O(n^4) integer operations for a dense B.
    """
    p = [1]  # descending coefficients of det(tI - B_k)
    nonzero = []  # nonzero[i]: the (j, B[i][j]) with B[i][j] != 0 and j < k, rows i < k
    for k, row in enumerate(b):
        column = [(i, r[k]) for i, r in enumerate(b[:k]) if r[k]]
        taps = [1, -row[k]]
        w = row[:k]
        while column and any(w):
            taps.append(-sum(w[i] * y for i, y in column))
            if len(taps) == k + 2:
                break
            nxt = [0] * k
            for x, entries in zip(w, nonzero):
                if x:
                    for j, y in entries:
                        nxt[j] += x * y
            w = nxt
        # times the Toeplitz matrix of the taps, k + 2 rows by k + 1 columns
        p = [sum(map(mul, p[max(0, i + 1 - len(taps)):i + 1], taps[min(i, len(taps) - 1)::-1]))
             for i in range(k + 2)]
        for i, y in column:
            nonzero[i].append((k, y))
        nonzero.append([(j, x) for j, x in enumerate(row[:k + 1]) if x])
    return p[::-1]


# ---- matrix exponential ------------------------------------------------------


def mat_exp_array(arr: np.ndarray, t: float = 1.0) -> np.ndarray:
    """exp(t * arr) for a numpy square matrix and a real time t by
    scaling and squaring.

    The scaled matrix b = t*arr/2^s has 1-norm at most 0.5, and its
    Taylor series through b^20 is summed by Paterson-Stockmeyer: the
    powers b^0 .. b^4 are stacked, the five coefficient blocks
    sum_i b^i/(5j+i)! formed by one product with the coefficient table,
    and the blocks combined by Horner's rule in b^5.  That takes 8 matrix
    products where term-by-term summation takes 20.  The sum is then
    squared s times, and a squaring that overflows comes back
    non-finite, silently.  A non-finite t raises InputError, and a t*arr
    whose 1-norm, doubled to read s, is not finite raises DiagnosticError.
    """
    t = float(t)
    if not math.isfinite(t):
        raise InputError(f"the time must be a finite number, got {t}")
    base = np.asarray(arr, dtype=complex if np.iscomplexobj(arr) else float)
    with np.errstate(over="ignore"):
        a = t * base
        ratio = float(np.abs(a).sum(axis=0).max(initial=0.0)) / _EXP_TARGET
    if not ratio < math.inf:
        raise DiagnosticError(f"|t*A|_1 overflows at t={t:g}, so exp(t*A) cannot be scaled")
    s = math.ceil(math.log2(ratio)) if ratio > 1.0 else 0
    b = a * 2.0**-s  # a / 2^s exactly, also where 2^s overflows
    n = base.shape[0]
    pows = [np.eye(n), b]
    while len(pows) < _EXP_SPLIT:
        pows.append(pows[-1] @ b)
    top = pows[-1] @ b
    blocks = (_EXP_BLOCKS @ np.reshape(pows, (_EXP_SPLIT, n * n))).reshape(-1, n, n)
    acc = blocks[-1]
    for block in blocks[-2::-1]:
        acc = acc @ top + block
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(s):
            acc = acc @ acc
    return acc


# ---- rank sequences of shifted powers ---------------------------------------


def power_rank_sequence(a: Matrix, lam, kmax: int, tol: float | None = None) -> list:
    """[rank((A - lam I)^k) for k = 0..kmax], ranks over the complex numbers.

    The sequence starts at n and never increases; it stabilizes at
    n minus the algebraic multiplicity of lam.  Measuring stops at the
    first k whose rank equals the one before it (or, for an exact A, at
    k = n), and that stable rank fills the remaining entries.

    An exact A needs an exact lam and tol = 0 (or omitted).  Its powers
    and ranks are taken over the integers: with D the lcm of the
    denominators of A, re lam and im lam, and B = D A, the step matrix
    is B - (D lam) I for a real lam.  For a non-real lam = a + bi it is
    D^2 q(B / D) = B^2 - 2 (D a) B + ((D a)^2 + (D b)^2) I with
    q(t) = (t - a)^2 + b^2, so no complex arithmetic is done.  A nonzero
    scalar multiple has the same rank in every power.  Over C the kernel
    of q(A)^k is the direct sum of the kernels of (A - lam I)^k and
    (A - conj(lam) I)^k, which have equal dimension for a real A, so
    r(k) = n - (n - rank q(A)^k) / 2; an odd nullity n - rank q(A)^k
    raises DiagnosticError.  Each rank is a fraction-free elimination
    over the integers (see `rank`).

    The loop is a resumable walk (`integer_rank_walks`), one power per
    rank, which keeps the ranks it has measured.  A caller that measures
    every eigenvalue can stop all walks without the repeat: n - r(k)
    never exceeds the multiplicity of lam, and the multiplicities of
    distinct values sum to at most n, so once the nullities measured at
    distinct values sum to n (a pair counting twice) each walk has
    reached its stable rank, and filling with the last rank gives this
    same sequence (see `spectral._walked_spectrum`).  Walks made by one
    `integer_rank_walks` call share one B^2.

    A float A is measured by `float_rank_sequence` with lam as its one
    shift.
    """
    if kmax < 0:
        raise InputError("kmax must be nonnegative")
    lam = canonical_lam(lam)
    _check_tol(a, tol)
    if a.mode == "float":
        arr = a.to_numpy()
        return float_rank_sequence(arr, float(np.linalg.norm(arr, 2)), [lam], kmax, tol)[0]
    re, im = lam_parts(lam)
    if not isinstance(re, Fraction):
        raise InputError(f"an exact matrix needs an exact eigenvalue, got {lam!r}")
    d, b = cleared(a, re, im)
    walk = integer_rank_walks(d, b)(int(d * re), int(d * im))  # D clears re and im too
    while len(walk.ranks) <= kmax and not walk.stable():
        walk.deepen()
    return walk.filled(kmax)


def float_rank_sequence(arr: np.ndarray, norm: float, shifts, kmax: int,
                        tol: float | None = None) -> list:
    """power_rank_sequence of a float matrix at each of several shifts,
    one sequence per shift in their order; the matrix comes as an
    ndarray with its 2-norm, so a caller measuring many shifts converts
    and normalizes once.

    S = (A - mu I) / ||A||_2 (divided by 1 for A = 0) is formed for
    every shift mu at once: the real shifts in one real stack and the
    non-real ones in one complex stack.  rank(S^k) is the number of
    singular values above 1e-9, or above tol when it is given: relative
    to ||A||_2^k, so the ranks of cA are those of A for every c > 0.
    The walks of a stack go in lockstep: per power one SVD call over
    the stack's walks still moving and one batched `@` to take their
    next powers, which cannot overflow.  A walk leaves at its first
    repeated rank or at k = kmax, and its last rank fills the rest.  A
    rank that rises raises DiagnosticError; a NaN tol, or a shift beyond
    the float range, raises InputError.
    """
    _check_rank_tol(tol)
    rel = _POWER_RANK_TOL if tol is None else tol
    n = len(arr)
    real, nonreal = [], []  # (position, shift) each
    for at, lam in enumerate(shifts):
        if type(lam) is complex and lam.imag:  # as the float clusters give them
            nonreal.append((at, lam))
            continue
        re, im = lam_parts(lam)
        try:
            if im:
                nonreal.append((at, complex(float(re), float(im))))
            else:
                real.append((at, float(re)))
        except OverflowError:
            raise InputError("a shift is beyond the float range") from None
    out = [None] * len(shifts)
    for walks, dtype in ((real, float), (nonreal, complex)):
        if walks:
            mu = np.array([shift for _, shift in walks], dtype=dtype)
            steps = (arr - mu[:, None, None] * np.eye(n)) / (norm or 1.0)
            for (at, _), seq in zip(walks, _lockstep_ranks(steps, rel, kmax)):
                out[at] = seq
    return out


def _lockstep_ranks(steps: np.ndarray, rel: float, kmax: int) -> list:
    """Rank sequences [n, r(1), ..., r(kmax)] of the powers of each matrix
    in a stack, r(k) counting the singular values of its k-th power
    above rel; each walk stops at its first repeated rank or at k = kmax."""
    n = steps.shape[-1]
    seqs = [[n] for _ in steps]
    moving = list(range(len(steps)))
    powers = steps
    while moving and kmax:
        svals = np.linalg.svd(powers, compute_uv=False)
        ranks = (svals > rel).sum(axis=1).tolist()
        going = []
        for row, (at, r) in enumerate(zip(moving, ranks)):
            seq = seqs[at]
            if r > seq[-1]:
                raise DiagnosticError(f"rank sequence increased: {seq + [r]}")
            seq.append(r)
            if len(seq) <= kmax and r != seq[-2]:
                going.append(row)
        moving = [moving[row] for row in going]
        if moving:
            powers = powers[going] @ steps[moving]
    return [seq + [seq[-1]] * (kmax + 1 - len(seq)) for seq in seqs]


class _RankWalk:
    """Resumable rank loop of power_rank_sequence over the integer rows of
    one step matrix, at the lam with D lam = x + yi.  `ranks` holds
    [n, r(1), ..., r(k)] as measured so far, r(k) the rank of step^k,
    halved onto lam for a pair step q(A) (see above); `deepen` forms the
    next power only when its rank is asked for.  A rank that rises
    raises DiagnosticError."""

    def __init__(self, step: list, d: int, x: int, y: int):
        self.step, self.at, self.pair = step, (d, x, y), bool(y)
        self.power = step
        self.ranks = [len(step)]

    def deepen(self) -> int:
        """Measure the next rank; return how far it dropped."""
        ranks = self.ranks
        n = ranks[0]
        if len(ranks) > 1:
            self.power = _row_product(self.power, self.step)
        r = _rank_int(self.power)
        if self.pair:
            nullity = n - r
            if nullity % 2:
                d, x, y = self.at
                lam = RationalComplex(Fraction(x, d), Fraction(y, d))
                raise DiagnosticError(
                    f"q(A)^{len(ranks)} at the pair {lam} has odd nullity {nullity}; "
                    "a real matrix has paired kernels"
                )
            r = n - nullity // 2
        if r > ranks[-1]:
            raise DiagnosticError(f"rank sequence increased: {ranks + [r]}")
        ranks.append(r)
        return ranks[-2] - r

    def stable(self) -> bool:
        """Whether the last rank is the stable one: it repeats the rank
        before it, or k = n, where the kernel is the whole generalized
        eigenspace."""
        ranks = self.ranks
        return len(ranks) > ranks[0] or len(ranks) > 1 and ranks[-1] == ranks[-2]

    def filled(self, kmax: int) -> list:
        """[n, r(1), ..., r(kmax)], the last rank measured filling the rest."""
        return self.ranks + [self.ranks[-1]] * (kmax + 1 - len(self.ranks))


def integer_rank_walks(d: int, b: list):
    """For D and B = D A as `cleared` gives them, a function (x, y) -> the
    rank walk of (A - lam I) at lam = (x + yi) / D: a `_RankWalk` that
    takes one more integer power per rank of power_rank_sequence, so a
    caller can stop a walk early and resume it later.  x and y are
    integers: D lam is a Gaussian integer for every eigenvalue lam of A
    with rational parts, a root of the monic integer polynomial
    det(tI - B) in Q(i), hence in Z[i].  The rows of B are not modified.
    All walks of one such function share one B^2, formed for the first
    y != 0."""
    square = cache(lambda: _row_product(b, b))

    def walk(x: int, y: int):
        return _RankWalk(_integer_step(b, x, y, square), d, x, y)

    return walk


def _integer_step(b: list, x: int, y: int, square) -> list:
    """Integer rows of the step matrix at D lam = x + yi, from B = D A and
    a function giving B^2: B - xI, or B^2 - 2xB + (x^2 + y^2) I for
    y != 0; see power_rank_sequence."""
    if not y:
        step = [list(row) for row in b]
        for i, row in enumerate(step):
            row[i] -= x
        return step
    step = [list(row) for row in square()]
    for i, (row, brow) in enumerate(zip(step, b)):
        for j, c in enumerate(brow):
            row[j] -= 2 * x * c
        row[i] += x * x + y * y
    return step


# ---- exact solves ------------------------------------------------------------


def _gauss_jordan_exact(m: Matrix, aug: list) -> list:
    """Reduce [m | aug] in place over the rationals; return aug."""
    rows = [list(r) for r in m.rows]
    n = m.n
    width = len(aug[0])
    for col in range(n):
        piv = None
        for i in range(col, n):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            raise DiagnosticError("matrix is singular")
        rows[col], rows[piv] = rows[piv], rows[col]
        aug[col], aug[piv] = aug[piv], aug[col]
        pval = rows[col][col]
        rows[col] = [x / pval for x in rows[col]]
        aug[col] = [x / pval for x in aug[col]]
        for i in range(n):
            if i != col and rows[i][col]:
                f = rows[i][col]
                rows[i] = [rows[i][j] - f * rows[col][j] for j in range(n)]
                aug[i] = [aug[i][j] - f * aug[col][j] for j in range(width)]
    return aug


def solve_exact(m: Matrix, rhs: Sequence) -> tuple:
    """Solve m x = rhs exactly; m must be exact and nonsingular."""
    if m.mode != "exact":
        raise InputError("solve_exact needs an exact matrix")
    if len(rhs) != m.n:
        raise InputError("right-hand side length does not match")
    aug = [[_as_fraction(x)] for x in rhs]
    out = _gauss_jordan_exact(m, aug)
    return tuple(row[0] for row in out)


def inverse_exact(m: Matrix) -> Matrix:
    """Exact inverse; raises DiagnosticError when singular."""
    if m.mode != "exact":
        raise InputError("inverse_exact needs an exact matrix")
    aug = [
        [1 if i == j else 0 for j in range(m.n)] for i in range(m.n)
    ]
    out = _gauss_jordan_exact(m, aug)
    return Matrix(out, m.mode)
