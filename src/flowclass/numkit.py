"""Scalar and matrix substrate.

Everything downstream runs in one of two scalar modes.  Exact mode keeps
matrix entries as `fractions.Fraction`: exact matrices are real-only.
Float mode keeps entries as `float` / `complex`.  A matrix never mixes
modes.  `RationalComplex` (a pair of Fractions) is the scalar type of
exact eigenvalues; it never enters a matrix.  `lam_parts`,
`canonical_lam` and `re_sign` read any scalar of either mode.

Provided here: the `Matrix` and `Poly` containers, rank by Gaussian
elimination with a scaled pivot threshold, characteristic polynomials
(exact: Hessenberg reduction; float: the Faddeev-LeVerrier
recurrence), matrix exponentials by scaling and
squaring (with an exact terminating series for nilpotent generators),
rank sequences of shifted powers, and exact linear solves.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
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
    "solve_exact",
    "inverse_exact",
    "DEFAULT_RANK_TOL",
]

DEFAULT_RANK_TOL = 1e-10

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
        if lead != _one(mode, "real") and lead != 1:
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
        n = a.n
        zero = _zero(a.mode, a.field)
        # row by row over the nonzero entries only: realized block matrices
        # and their powers are mostly zeros.  Each entry still sums its
        # products in ascending k; a skipped product has a zero factor, so
        # for finite floats it is +-0 and adding it to an accumulator that
        # starts at +0 changes nothing.
        b_nonzero = [[(j, y) for j, y in enumerate(row) if y] for row in b.rows]
        out = []
        for ar in a.rows:
            acc = [zero] * n
            for k, x in enumerate(ar):
                if x:
                    for j, y in b_nonzero[k]:
                        acc[j] += x * y
            out.append(acc)
        return Matrix(out, a.mode, a.field)

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

    def trace(self):
        t = _zero(self.mode, self.field)
        for i in range(self.n):
            t = t + self.rows[i][i]
        return t

    def max_abs(self) -> float:
        return max(abs(x) for row in self.rows for x in row)

    def inf_norm(self) -> float:
        return max(sum(abs(x) for x in row) for row in self.rows)

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

    def float_coeffs(self) -> tuple:
        return tuple(complex(c) if isinstance(c, complex) else float(c)
                     for c in self.coeffs)

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
    """Rank by Gaussian elimination.

    Exact mode eliminates with exact pivots and requires tol = 0 (or
    omitted).  Float mode treats a pivot as zero when its magnitude is
    at most tol times the largest entry magnitude of the initial matrix;
    tol defaults to 1e-10.
    """
    if tol is not None and tol < 0:
        raise InputError("rank tolerance must be nonnegative")
    if m.mode == "exact":
        if tol not in (None, 0):
            raise InputError("exact mode requires tol = 0")
        return _rank_exact(m)
    t = DEFAULT_RANK_TOL if tol is None else float(tol)
    return _rank_float(m, t)


def _rank_exact(m: Matrix) -> int:
    rows = [list(r) for r in m.rows]
    n = m.n
    r = 0
    for col in range(n):
        piv = None
        for i in range(r, n):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pval = rows[r][col]
        for i in range(r + 1, n):
            if rows[i][col]:
                f = rows[i][col] / pval
                rows[i] = [rows[i][j] - f * rows[r][j] for j in range(n)]
        r += 1
        if r == n:
            break
    return r


def _rank_float(m: Matrix, tol: float) -> int:
    rows = [list(r) for r in m.rows]
    n = m.n
    threshold = tol * m.max_abs()
    r = 0
    for col in range(n):
        piv, best = None, threshold
        for i in range(r, n):
            a = abs(rows[i][col])
            if a > best:
                piv, best = i, a
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pval = rows[r][col]
        for i in range(r + 1, n):
            if rows[i][col] != 0:
                f = rows[i][col] / pval
                rows[i] = [rows[i][j] - f * rows[r][j] for j in range(n)]
        r += 1
        if r == n:
            break
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

    Float mode keeps the Faddeev-LeVerrier trace recurrence, O(n^4).
    Its rounding is what the float eigenvalue clustering and every
    float answer downstream were tuned against, so its coefficients stay
    bit-for-bit as they were.
    """
    if m.mode == "exact":
        return _char_poly_hessenberg(m)
    n = m.n
    one = _one(m.mode, m.field)
    ident = Matrix.identity(n, m.mode, m.field)
    # c[0] multiplies t^n, c[k] multiplies t^(n-k)
    c = [one]
    mk = Matrix.zeros(n, m.mode, m.field)
    for k in range(1, n + 1):
        mk = (m @ mk) + ident.scaled(c[k - 1])
        c.append(-(m @ mk).trace() / k)
    return Poly.make(tuple(reversed(c)))


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


def mat_exp_array(arr: np.ndarray, t: float = 1.0) -> np.ndarray:
    """exp(t * arr) for a numpy square matrix by scaling and squaring."""
    a = np.asarray(arr, dtype=complex if np.iscomplexobj(arr) else float) * float(t)
    nrm = float(np.abs(a).sum(axis=0).max()) if a.size else 0.0
    s = 0 if nrm <= _EXP_TARGET else int(math.ceil(math.log2(nrm / _EXP_TARGET)))
    b = a / (2.0 ** s)
    eye = np.eye(a.shape[0], dtype=a.dtype)
    acc = eye.copy()
    term = eye.copy()
    for k in range(1, _EXP_TERMS + 1):
        term = term @ b / k
        acc = acc + term
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(s):
            acc = acc @ acc
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

    For an exact A and a non-real lam = a + bi the ranks are taken over
    the rationals, of q(A)^k with q(t) = (t - a)^2 + b^2, and no complex
    arithmetic is done.  Over C the kernel of q(A)^k is the direct sum
    of the kernels of (A - lam I)^k and (A - conj(lam) I)^k, which have
    equal dimension for a real A, so r(k) = n - (n - rank q(A)^k) / 2;
    an odd nullity n - rank q(A)^k raises DiagnosticError.  Every other
    input shifts by lam directly.  A sequence that rises (under the
    float tolerance) raises DiagnosticError.
    """
    if kmax < 0:
        raise InputError("kmax must be nonnegative")
    n = a.n
    lam = canonical_lam(lam)
    pair = a.mode == "exact" and isinstance(lam, RationalComplex)
    if pair:
        re, im = lam.re, lam.im
        # q(A) = A^2 - 2a A + (a^2 + b^2) I
        step = (a @ a) - a.scaled(2 * re) + Matrix.identity(n).scaled(
            re * re + im * im
        )
    else:
        step = a.shifted(lam)
    seq = [n]
    power = None
    while len(seq) <= kmax:
        power = step if power is None else power @ step
        r = rank(power, tol)
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
