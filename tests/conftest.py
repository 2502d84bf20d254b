"""Shared generators: exact block realizations and unimodular similarity,
and float real Jordan forms under Haar-random orthogonal similarity.

Random systems are built from known block data and realized as real
matrices, so every expected invariant is known by construction and the
exact analysis path stays inside the decidable class (rational and
rational-complex eigenvalues).
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

from flowclass.errors import DiagnosticError
from flowclass.numkit import Matrix, RationalComplex


def realize_real(parts) -> Matrix:
    """Exact real matrix with prescribed real-Jordan structure.

    parts is a list of (a, b, m, count) with rational a, b and b >= 0:
    b == 0 contributes count Jordan blocks J_m(a); b > 0 contributes
    count real blocks of size 2m built from the 2x2 rotation cell
    [[a, b], [-b, a]] with identity cells on the superdiagonal,
    realizing the conjugate pair a +- bi with block size m.
    """
    blocks = []
    for a, b, m, count in parts:
        a = Fraction(a)
        b = Fraction(b)
        if b < 0:
            raise ValueError("b must be nonnegative; pairs are implied")
        for _ in range(count):
            if b == 0:
                blocks.append(Matrix.jordan_block(a, m, "exact"))
            else:
                size = 2 * m
                rows = [[Fraction(0)] * size for _ in range(size)]
                for cell in range(m):
                    at = 2 * cell
                    rows[at][at] = a
                    rows[at][at + 1] = b
                    rows[at + 1][at] = -b
                    rows[at + 1][at + 1] = a
                    if cell + 1 < m:
                        rows[at][at + 2] = Fraction(1)
                        rows[at + 1][at + 3] = Fraction(1)
                blocks.append(Matrix.exact(rows))
    return Matrix.block_diag(blocks)


def expected_blocks(parts) -> list:
    """Spectrum blocks (lam, m, count) matching realize_real(parts)."""
    merged: dict = {}
    for a, b, m, count in parts:
        a = Fraction(a)
        b = Fraction(b)
        if b == 0:
            merged[(a, m)] = merged.get((a, m), 0) + count
        else:
            for sgn in (1, -1):
                lam = RationalComplex(a, sgn * b)
                merged[(lam, m)] = merged.get((lam, m), 0) + count
    return [(lam, m, c) for (lam, m), c in merged.items()]


def random_parts(rng: random.Random, max_n: int = 8, center_only: bool = False):
    """Random real-Jordan structure with total dimension <= max_n.

    Repeated draws of the same (a, b, m) are deliberate: they exercise
    count merging in both the realization and the descriptor.
    """
    parts = []
    budget = rng.randint(2, max_n)
    while budget >= 1:
        if budget >= 2 and rng.random() < 0.55:
            m = rng.randint(1, min(2, budget // 2))
            b = Fraction(rng.randint(1, 6), rng.choice((1, 1, 2, 3)))
            a = Fraction(0) if center_only else Fraction(
                rng.choice((-2, -1, 0, 0, 1, 2)), rng.choice((1, 2))
            )
            parts.append((a, b, m, 1))
            budget -= 2 * m
        else:
            m = rng.randint(1, min(3, budget))
            a = Fraction(0) if center_only else Fraction(
                rng.choice((-3, -2, -1, 0, 1, 2, 3)), rng.choice((1, 2))
            )
            parts.append((a, Fraction(0), m, 1))
            budget -= m
    return parts


def random_unimodular(rng: random.Random, n: int, ops: int | None = None):
    """Exact invertible S with tracked exact inverse (determinant +-1)."""
    if ops is None:
        ops = 2 * n + 2
    s = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    s_inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(ops):
        kind = rng.random()
        if kind < 0.75 and n >= 2:
            i, j = rng.sample(range(n), 2)
            c = rng.choice((-2, -1, 1, 2))
            # row_j += c * row_i on S; col_i -= c * col_j on S^-1
            for k in range(n):
                s[j][k] += c * s[i][k]
            for k in range(n):
                s_inv[k][i] -= c * s_inv[k][j]
        elif n >= 2:
            i, j = rng.sample(range(n), 2)
            s[i], s[j] = s[j], s[i]
            for k in range(n):
                s_inv[k][i], s_inv[k][j] = s_inv[k][j], s_inv[k][i]
    return Matrix.exact(s), Matrix.exact(s_inv)


def rotation(re: float, im: float) -> np.ndarray:
    """Real 2x2 block with eigenvalues re +- i im."""
    return np.array([[re, im], [-im, re]])


def hyperbolic_blocks(rng: np.random.Generator, taken: list, dim: int):
    """Blocks of simple hyperbolic eigenvalues filling dim dimensions, and
    the (expanding, contracting) dimensions they add.

    Reals and pairs lam, conj(lam) with |re lam| in [0.3, 3]; each lies at
    least 0.2 from every value in taken, which is extended in place.
    """
    blocks, dims = [], [0, 0]
    while dim:
        pair = dim >= 2 and rng.random() < 0.4
        lam = complex(rng.choice((-1, 1)) * rng.uniform(0.3, 3.0),
                      rng.uniform(0.3, 2.0) if pair else 0.0)
        if min(abs(lam - mu) for mu in taken) < 0.2:
            continue
        taken += [lam, lam.conjugate()]
        blocks.append(rotation(lam.real, lam.imag) if pair else np.array([[lam.real]]))
        dims[lam.real < 0] += len(blocks[-1])
        dim -= len(blocks[-1])
    return blocks, tuple(dims)


def direct_sum(blocks) -> np.ndarray:
    """Block-diagonal matrix of square ndarray blocks."""
    n = sum(len(b) for b in blocks)
    j = np.zeros((n, n))
    at = 0
    for b in blocks:
        j[at:at + len(b), at:at + len(b)] = b
        at += len(b)
    return j


def haar_similar(rng: np.random.Generator, blocks) -> np.ndarray:
    """Q diag(blocks) Q^T for a Haar-random orthogonal Q."""
    j = direct_sum(blocks)
    n = len(j)
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    return q @ j @ q.T


def jordan(lam: float, m: int) -> np.ndarray:
    """Real Jordan block J_m(lam)."""
    return np.diag([lam] * m) + np.diag([1.0] * (m - 1), 1)


def reference_float_ranks(arr: np.ndarray, norm: float, lam, kmax: int, tol=None) -> list:
    """Rank sequence of the powers of S = (A - lam I) / ||A||_2 at one
    shift, each power formed and measured on its own: the one-shift walk
    that numkit.float_rank_sequence runs in lockstep over many shifts."""
    z = complex(lam)
    shift = z if z.imag else z.real
    step = (arr - shift * np.eye(len(arr))) / (norm or 1.0)
    rel = 1e-9 if tol is None else tol
    seq, power = [len(arr)], step
    while len(seq) <= kmax and (len(seq) < 2 or seq[-1] != seq[-2]):
        if len(seq) > 1:
            power = power @ step
        r = int(np.count_nonzero(np.linalg.svd(power, compute_uv=False) > rel))
        if r > seq[-1]:
            raise DiagnosticError(f"rank sequence increased: {seq + [r]}")
        seq.append(r)
    return seq + [seq[-1]] * (kmax + 1 - len(seq))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260816)
