"""Scalar and matrix substrate.

Everything downstream runs in one of two scalar modes.  Exact mode keeps
matrix entries as `fractions.Fraction`: exact matrices are real-only.
Float mode keeps entries as `float` / `complex`.  A matrix never mixes
modes.  `RationalComplex` (a pair of Fractions) is the scalar type of
exact eigenvalues; it never enters a matrix.  `lam_parts`,
`canonical_lam` and `re_sign` read any scalar of either mode.

Provided here: the `Matrix` and `Poly` containers, ranks,
characteristic polynomials (exact: Hessenberg reduction; float: from
the LAPACK eigenvalues), matrix exponentials by scaling and squaring,
at one time or a batch of times (with an exact terminating series for
nilpotent generators), rank
sequences of shifted powers, and exact linear solves.

Exact ranks, and the powers behind exact rank sequences, run on Python
ints: the matrix is scaled once by the lcm of its denominators (one
scalar, never per row; `cleared`), then eliminated fraction-free over
the integers.  A caller measuring many shifts clears once and passes
the integer matrix to `integer_rank_sequence`.  Float ranks count
singular values (LAPACK) above a scaled threshold, and float rank
sequences take their powers in numpy.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
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
    "mat_exp",
    "mat_exp_array",
    "power_rank_sequence",
    "float_rank_sequence",
    "integer_rank_sequence",
    "cleared",
    "solve_exact",
    "inverse_exact",
    "DEFAULT_RANK_TOL",
]

DEFAULT_RANK_TOL = 1e-10
# float rank sequences: a singular value of (A - lam I)^k counts when it
# exceeds this times ||A||_2^k
_POWER_RANK_TOL = 1e-9

# exp series: scale so the 1-norm of the scaled matrix is at most 0.5,
# then 20 terms leave a truncation error below 1e-14
_EXP_TARGET = 0.5
_EXP_TERMS = 20


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

    @staticmethod
    def _lift(x):
        if isinstance(x, RationalComplex):
            return x
        if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
            return RationalComplex(Fraction(x), Fraction(0))
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return RationalComplex(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return RationalComplex(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return RationalComplex(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        d = o.abs2()
        if d == 0:
            raise ZeroDivisionError("division by zero RationalComplex")
        return RationalComplex(
            (self.re * o.re + self.im * o.im) / d,
            (self.im * o.re - self.re * o.im) / d,
        )

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return RationalComplex(-self.re, -self.im)

    def conjugate(self) -> "RationalComplex":
        return RationalComplex(self.re, -self.im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def __abs__(self) -> float:
        return math.sqrt(float(self.abs2()))

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        return f"{self.re}{'+' if self.im >= 0 else '-'}{abs(self.im)}i"


def lam_parts(lam) -> tuple:
    """(re, im) of a scalar: Fractions for an exact value (Fraction, int,
    RationalComplex), floats for a float or complex one."""
    if isinstance(lam, RationalComplex):
        return lam.re, lam.im
    if isinstance(lam, (Fraction, int)):
        return Fraction(lam), Fraction(0)
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
    if not isinstance(re, Fraction) and abs(re) <= tol:
        return 0
    return (re > 0) - (re < 0)


def _zero(mode: str, field: str):
    if mode == "exact":
        return Fraction(0)
    return 0j if field == "complex" else 0.0


def _one(mode: str, field: str):
    if mode == "exact":
        return Fraction(1)
    return 1 + 0j if field == "complex" else 1.0


def _normalize_entry(x, mode: str, field: str):
    if mode == "exact":
        return _as_fraction(x)
    # float mode: exact scalars must cross through to_float() explicitly,
    # except plain ints, which are lossless in both modes
    if isinstance(x, (Fraction, RationalComplex)):
        raise InputError(
            f"float matrix cannot hold exact entry {x!r}; convert with to_float()"
        )
    if field == "complex":
        return complex(x)
    if isinstance(x, complex):
        raise InputError(f"real float matrix cannot hold complex entry {x!r}")
    return float(x)


def _row_product(a_rows, b_rows, zero) -> list:
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
        acc = [zero] * len(b_rows)
        for k, x in enumerate(ar):
            if x:
                for j, y in b_nonzero[k]:
                    acc[j] += x * y
        out.append(acc)
    return out


class Matrix:
    """Immutable square matrix over a single scalar mode.

    Exact matrices are real, with Fraction entries; float matrices hold
    float entries (field "real") or complex ones (field "complex").
    """

    __slots__ = ("rows", "n", "mode", "field")

    def __init__(self, rows, mode: str, field: str | None = None):
        if mode not in ("exact", "float"):
            raise InputError(f"unknown scalar mode {mode!r}")
        rows = [list(r) for r in rows]
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise InputError("matrix must be square and nonempty")
        if field is None:
            has_complex = any(isinstance(x, complex) for r in rows for x in r)
            field = "complex" if has_complex else "real"
        if field not in ("real", "complex"):
            raise InputError(f"unknown field {field!r}")
        if mode == "exact" and field == "complex":
            raise InputError("exact matrices are real; complex entries need float mode")
        norm = tuple(
            tuple(_normalize_entry(x, mode, field) for x in r) for r in rows
        )
        object.__setattr__(self, "rows", norm)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "field", field)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # ---- constructors -------------------------------------------------

    @classmethod
    def exact(cls, rows) -> "Matrix":
        return cls(rows, "exact")

    @classmethod
    def floating(cls, rows) -> "Matrix":
        return cls(rows, "float")

    @classmethod
    def identity(cls, n: int, mode: str = "exact", field: str = "real") -> "Matrix":
        one, zero = _one(mode, field), _zero(mode, field)
        return cls(
            [[one if i == j else zero for j in range(n)] for i in range(n)],
            mode,
            field,
        )

    @classmethod
    def zeros(cls, n: int, mode: str = "exact", field: str = "real") -> "Matrix":
        zero = _zero(mode, field)
        return cls([[zero] * n for _ in range(n)], mode, field)

    @classmethod
    def jordan_block(cls, lam, m: int, mode: str = "exact") -> "Matrix":
        """Single block: lam on the diagonal, ones on the superdiagonal."""
        if m < 1:
            raise InputError("block size must be at least 1")
        zero, one = _zero(mode, "real"), _one(mode, "real")
        rows = [[zero] * m for _ in range(m)]
        for i in range(m):
            rows[i][i] = lam
            if i + 1 < m:
                rows[i][i + 1] = one
        return cls(rows, mode)

    @classmethod
    def block_diag(cls, mats: Sequence["Matrix"]) -> "Matrix":
        if not mats:
            raise InputError("block_diag needs at least one block")
        mode = mats[0].mode
        if any(m.mode != mode for m in mats):
            raise InputError("cannot mix scalar modes across blocks")
        field = "complex" if any(m.field == "complex" for m in mats) else "real"
        n = sum(m.n for m in mats)
        zero = _zero(mode, field)
        rows = [[zero] * n for _ in range(n)]
        off = 0
        for m in mats:
            for i in range(m.n):
                for j in range(m.n):
                    rows[off + i][off + j] = m.rows[i][j]
            off += m.n
        return cls(rows, mode, field)

    @classmethod
    def companion(cls, poly: "Poly", mode: str = "exact") -> "Matrix":
        """Companion matrix of a monic polynomial of degree >= 1."""
        if poly.degree < 1:
            raise InputError("companion matrix needs degree >= 1")
        coeffs = poly.coeffs
        lead = coeffs[-1]
        if lead != 1:
            raise InputError("companion matrix needs a monic polynomial")
        d = poly.degree
        zero = _zero(mode, "real")
        one = _one(mode, "real")
        rows = [[zero] * d for _ in range(d)]
        for i in range(1, d):
            rows[i][i - 1] = one
        for i in range(d):
            c = coeffs[i]
            rows[i][d - 1] = -(c if mode == "exact" else float(c))
        return cls(rows, mode)

    @classmethod
    def from_numpy(cls, arr: np.ndarray) -> "Matrix":
        arr = np.asarray(arr)
        if np.iscomplexobj(arr):
            return cls([[complex(x) for x in row] for row in arr], "float", "complex")
        return cls([[float(x) for x in row] for row in arr], "float", "real")

    # ---- views and conversions ----------------------------------------

    def to_numpy(self) -> np.ndarray:
        if self.field == "complex":
            return np.array(
                [[complex(x) for x in row] for row in self.rows], dtype=complex
            )
        return np.array([[float(x) for x in row] for row in self.rows], dtype=float)

    def to_float(self) -> "Matrix":
        if self.mode == "float":
            return self
        return Matrix.from_numpy(self.to_numpy())

    def complexified(self) -> "Matrix":
        if self.field == "complex":
            return self
        return Matrix(self.rows, self.mode, "complex")

    # ---- arithmetic ----------------------------------------------------

    def _binary_prep(self, other: "Matrix"):
        if not isinstance(other, Matrix):
            raise InputError("matrix arithmetic needs two matrices")
        if self.mode != other.mode:
            raise InputError("cannot mix exact and float matrices")
        if self.n != other.n:
            raise InputError("matrix dimensions differ")
        field = "complex" if "complex" in (self.field, other.field) else "real"
        return self.complexified() if field == "complex" else self, (
            other.complexified() if field == "complex" else other
        )

    def __add__(self, other):
        a, b = self._binary_prep(other)
        return Matrix(
            [
                [a.rows[i][j] + b.rows[i][j] for j in range(a.n)]
                for i in range(a.n)
            ],
            a.mode,
            a.field,
        )

    def __sub__(self, other):
        a, b = self._binary_prep(other)
        return Matrix(
            [
                [a.rows[i][j] - b.rows[i][j] for j in range(a.n)]
                for i in range(a.n)
            ],
            a.mode,
            a.field,
        )

    def __neg__(self):
        return Matrix(
            [[-x for x in row] for row in self.rows], self.mode, self.field
        )

    def __matmul__(self, other):
        a, b = self._binary_prep(other)
        return Matrix(_row_product(a.rows, b.rows, _zero(a.mode, a.field)),
                      a.mode, a.field)

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise InputError("matrix power needs a nonnegative integer")
        acc = Matrix.identity(self.n, self.mode, self.field)
        base = self
        while k:
            if k & 1:
                acc = acc @ base
            base = base @ base if k > 1 else base
            k >>= 1
        return acc

    def scaled(self, s) -> "Matrix":
        field = "complex" if isinstance(s, complex) else self.field
        return Matrix(
            [[s * x for x in row] for row in self.rows], self.mode, field
        )

    def shifted(self, lam) -> "Matrix":
        """Return self - lam * I; a complex shift makes a float matrix
        complex, and an exact matrix takes only a rational shift."""
        if self.mode == "float" and isinstance(lam, (Fraction, RationalComplex)):
            lam = complex(lam) if isinstance(lam, RationalComplex) else float(lam)
        field = "complex" if isinstance(lam, complex) else self.field
        rows = [list(r) for r in self.rows]
        for i in range(self.n):
            rows[i][i] = rows[i][i] - lam
        return Matrix(rows, self.mode, field)

    def apply(self, vec: Sequence) -> tuple:
        if len(vec) != self.n:
            raise InputError("vector length does not match matrix size")
        out = []
        for i in range(self.n):
            s = _zero(self.mode, self.field)
            for j in range(self.n):
                s = s + self.rows[i][j] * vec[j]
            out.append(s)
        return tuple(out)

    # ---- scalar summaries ----------------------------------------------

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.rows for x in row)

    # ---- equality -------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.mode == other.mode
            and self.field == other.field
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.mode, self.field, self.rows))

    def __repr__(self):
        return f"Matrix(n={self.n}, mode={self.mode}, field={self.field})"


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

    def __call__(self, z):
        acc = 0 * z if self.coeffs else 0
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def derivative(self) -> "Poly":
        return Poly.make(tuple(k * c for k, c in enumerate(self.coeffs) if k))

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            term = "t" if k == 1 else (f"t^{k}" if k else "")
            if k and c == 1:
                cs = ""
            elif k and c == -1:
                cs = "-"
            else:
                cs = str(c)
            parts.append(cs + ("*" if cs not in ("", "-") and term else "") + term)
        return " + ".join(parts).replace("+ -", "- ")


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
    if tol is not None and tol < 0:
        raise InputError("rank tolerance must be nonnegative")
    if m.mode == "exact" and tol not in (None, 0):
        raise InputError("exact mode requires tol = 0")


def cleared(m: Matrix, *extra: Fraction) -> tuple:
    """(D, rows of D*m as ints), D the lcm of the denominators of m's
    entries and of extra.  One scalar D keeps the rank of every power of
    a shifted matrix; clearing each row by its own denominator would
    multiply by a diagonal matrix that does not commute with m."""
    d = math.lcm(*(x.denominator for row in m.rows for x in row),
                 *(x.denominator for x in extra))
    return d, [[x.numerator * (d // x.denominator) for x in row] for row in m.rows]


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
    """Monic characteristic polynomial det(tI - A), ascending coefficients.

    Exact mode reduces A to upper Hessenberg form H by elementary
    similarity over the rationals (a row/column transposition brings a
    nonzero entry onto the subdiagonal when the pivot there is zero, and
    a column with nothing to bring is skipped), then reads the
    coefficients off the three-term recurrence for the leading principal
    minors of tI - H.  This costs O(n^3) scalar operations.

    Float mode expands the product of (t - lam) over the LAPACK
    eigenvalues (`numpy.poly`); a real matrix keeps the real part.
    """
    if m.mode == "exact":
        return _char_poly_hessenberg(m)
    coeffs = np.poly(m.to_numpy())  # descending
    if m.field == "real":
        return Poly.make(tuple(float(c) for c in reversed(coeffs.real)))
    return Poly.make(tuple(complex(c) for c in reversed(coeffs)))


def _hessenberg_exact(m: Matrix) -> list:
    """Rows of an upper Hessenberg matrix similar to m, by exact similarity."""
    h = [list(r) for r in m.rows]
    n = m.n
    for col in range(n - 2):
        sub = col + 1
        if not h[sub][col]:
            piv = next((i for i in range(sub + 1, n) if h[i][col]), None)
            if piv is None:
                continue
            # similarity by the transposition (sub piv): swap rows, then columns
            h[sub], h[piv] = h[piv], h[sub]
            for row in h:
                row[sub], row[piv] = row[piv], row[sub]
        prow = h[sub]
        pval = prow[col]
        for i in range(sub + 1, n):
            if not h[i][col]:
                continue
            u = h[i][col] / pval
            # row_i -= u * row_sub; entries left of col are zero in both rows
            row = h[i]
            for j in range(col, n):
                if prow[j]:
                    row[j] -= u * prow[j]
            # then col_sub += u * col_i completes the similarity
            for row in h:
                if row[i]:
                    row[sub] += u * row[i]
    return h


def _char_poly_hessenberg(m: Matrix) -> Poly:
    h = _hessenberg_exact(m)
    n = m.n
    zero, one = _zero(m.mode, m.field), _one(m.mode, m.field)
    # p[k]: ascending coefficients of det(tI - H[:k, :k])
    p = [[one]]
    for k in range(1, n + 1):
        d = h[k - 1][k - 1]
        prev = p[k - 1]
        # (t - h_kk) p_(k-1)
        nxt = [zero] + prev
        for j, c in enumerate(prev):
            nxt[j] -= d * c
        # - sum_i h_ik (h_(k,k-1) ... h_(i+1,i)) p_(i-1), in 1-based indices
        prod = one
        for i in range(k - 1, 0, -1):
            prod *= h[i][i - 1]
            if not prod:
                break
            f = prod * h[i - 1][k - 1]
            if f:
                for j, c in enumerate(p[i - 1]):
                    nxt[j] -= f * c
        p.append(nxt)
    return Poly.make(tuple(p[n]))


# ---- matrix exponential ------------------------------------------------------


def mat_exp_array(arr: np.ndarray, t=1.0) -> np.ndarray:
    """exp(t * arr) for a numpy square matrix by scaling and squaring.

    t may also be a 1-D array of times; the result is then the stack of
    exp(t_i * arr), each slice scaled and squared by its own count.  A
    slice whose squaring overflows comes back non-finite, silently.
    """
    base = np.asarray(arr, dtype=complex if np.iscomplexobj(arr) else float)
    a = np.asarray(t, dtype=float)[..., None, None] * base
    nrm = np.abs(a).sum(axis=-2).max(axis=-1, initial=0.0)
    s = np.reshape(
        [
            0 if v <= _EXP_TARGET else math.ceil(math.log2(v / _EXP_TARGET))
            for v in nrm.ravel().tolist()
        ],
        nrm.shape,
    ).astype(int)
    b = a / (2.0**s)[..., None, None]
    acc = np.empty_like(a)
    acc[...] = np.eye(base.shape[0])
    term = acc.copy()
    for k in range(1, _EXP_TERMS + 1):
        term = term @ b / k
        acc = acc + term
    most = int(s.max(initial=0))
    least = int(s.min(initial=most))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(most):
            if i < least:
                acc = acc @ acc
            else:
                sel = s > i
                acc[sel] = acc[sel] @ acc[sel]
    return acc


def _nilpotency_index(m: Matrix) -> int | None:
    p = m
    for k in range(1, m.n + 1):
        if p.is_zero():
            return k
        p = p @ m
    return None


def mat_exp(a: Matrix, t) -> Matrix:
    """exp(t * A).

    Exact matrices with exact times give an exact terminating series when
    A is nilpotent.  All other combinations are evaluated in float mode;
    entries of exp(tA) are transcendental in general.
    """
    exact_time = isinstance(t, (int, Fraction)) and not isinstance(t, bool)
    if a.mode == "exact" and exact_time:
        idx = _nilpotency_index(a)
        if idx is not None:
            tf = Fraction(t)
            ident = Matrix.identity(a.n, a.mode, a.field)
            acc = ident
            power = ident
            fact = Fraction(1)
            for k in range(1, idx):
                power = power @ a
                fact *= k
                acc = acc + power.scaled(tf ** k / fact)
            return acc
    tf = float(t)
    if not math.isfinite(tf):
        raise InputError("time must be finite")
    return Matrix.from_numpy(mat_exp_array(a.to_numpy(), tf))


# ---- rank sequences of shifted powers ---------------------------------------


def power_rank_sequence(a: Matrix, lam, kmax: int, tol: float | None = None) -> list:
    """[rank((A - lam I)^k) for k = 0..kmax], ranks over the complex numbers.

    The sequence starts at n and never increases; it stabilizes at
    n minus the algebraic multiplicity of lam.  Measuring stops at the
    first k whose rank equals the one before it, and that stable rank
    fills the remaining entries.

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

    A float A is measured by `float_rank_sequence`.
    """
    if kmax < 0:
        raise InputError("kmax must be nonnegative")
    lam = canonical_lam(lam)
    _check_tol(a, tol)
    if a.mode == "float":
        arr = a.to_numpy()
        return float_rank_sequence(arr, float(np.linalg.norm(arr, 2)), lam, kmax, tol)
    re, im = lam_parts(lam)
    if not isinstance(re, Fraction):
        raise InputError(f"an exact matrix needs an exact eigenvalue, got {lam!r}")
    d, b = cleared(a, re, im)
    return integer_rank_sequence(d, b, lam, kmax)


def float_rank_sequence(arr: np.ndarray, norm: float, lam, kmax: int,
                        tol: float | None = None) -> list:
    """power_rank_sequence of a float matrix given as an ndarray with its
    2-norm, so a caller measuring many shifts converts and normalizes once.

    S = (A - lam I) / ||A||_2 (complex for a non-real lam; divided by 1
    for A = 0) is formed once and its powers are taken with `@`, so they
    cannot overflow.  rank(S^k) is the number of singular values above
    1e-9, or above tol when it is given: relative to ||A||_2^k, so the
    ranks of cA are those of A for every c > 0.
    """
    re, im = lam_parts(lam)
    shift = complex(float(re), float(im)) if im else float(re)
    step = (arr - shift * np.eye(len(arr))) / (norm or 1.0)
    rel = _POWER_RANK_TOL if tol is None else tol
    return _stable_ranks(
        step, np.matmul,
        lambda p: int(np.count_nonzero(np.linalg.svd(p, compute_uv=False) > rel)),
        lam, kmax, False,
    )


def _stable_ranks(step, multiply, measure, lam, kmax: int, pair: bool) -> list:
    """The rank loop of power_rank_sequence over one step matrix: measure
    step^k for k = 1, 2, ... until two ranks agree, then fill to kmax.
    For a pair step q(A) each rank is halved onto lam (see above).  A
    rank that rises raises DiagnosticError."""
    n = len(step)
    seq = [n]
    power = None
    while len(seq) <= kmax:
        power = step if power is None else multiply(power, step)
        r = measure(power)
        if pair:
            nullity = n - r
            if nullity % 2:
                raise DiagnosticError(
                    f"q(A)^{len(seq)} at the pair {lam} has odd nullity {nullity}; "
                    "a real matrix has paired kernels"
                )
            r = n - nullity // 2
        if r > seq[-1]:
            raise DiagnosticError(f"rank sequence increased: {seq + [r]}")
        seq.append(r)
        if r == seq[-2]:
            break
    return seq + [seq[-1]] * (kmax + 1 - len(seq))


def integer_rank_sequence(d: int, b: list, lam, kmax: int) -> list:
    """power_rank_sequence of an exact matrix given as `cleared` gives it:
    D and the integer rows of B = D A, so a caller measuring many shifts
    clears once.  lam must be exact, with D re lam and D im lam integers,
    as they are for every eigenvalue of A with rational parts (D lam is
    then a root of the monic integer polynomial det(tI - B) in Q(i),
    hence in Z[i]).  The rows of B are not modified."""
    if kmax < 0:
        raise InputError("kmax must be nonnegative")
    lam = canonical_lam(lam)
    step, pair = _integer_step(d, b, lam)
    return _stable_ranks(step, partial(_row_product, zero=0), _rank_int, lam, kmax, pair)


def _integer_step(d: int, b: list, lam) -> tuple:
    """(integer rows of the step matrix, whether lam is a non-real pair)
    from D and B = D A; see power_rank_sequence."""
    re, im = lam_parts(lam)
    da, db = d * re, d * im
    if da.denominator != 1 or db.denominator != 1:
        raise InputError(f"{lam} times the common denominator {d} is not a Gaussian integer")
    da, db = da.numerator, db.numerator
    if not db:
        step = [list(row) for row in b]
        for i, row in enumerate(step):
            row[i] -= da
        return step, False
    step = _row_product(b, b, 0)
    for i, (row, brow) in enumerate(zip(step, b)):
        for j, x in enumerate(brow):
            row[j] -= 2 * da * x
        row[i] += da * da + db * db
    return step, True


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
    one, zero = _one(m.mode, m.field), _zero(m.mode, m.field)
    aug = [
        [one if i == j else zero for j in range(m.n)] for i in range(m.n)
    ]
    out = _gauss_jordan_exact(m, aug)
    return Matrix(out, m.mode, m.field)
