"""Workload inputs, the calls into flowclass, and the checks of its answers.

Every input is built from block data with this module's own Fraction and
NumPy code, so each expected answer is known by construction.  Nothing
here uses flowclass arithmetic or the test suite's generators: the
program sees only the finished inputs, and each answer is checked
against the construction or against a property the method must have,
never against a stored copy of an earlier output.

A workload is an object with
    inputs(seed)   the list of operations one round goes through, in order
    warmup()       one small operation, run untimed before timing starts
    run(fc, op)    the call into flowclass (fc is the imported package)
    check(op, out) raises WrongAnswer when the output is wrong, and
                   returns False when the operation failed with the
                   program fault this workload keeps (see FLOAT_FAULT)
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

F0, F1 = Fraction(0), Fraction(1)


class WrongAnswer(Exception):
    """An output that contradicts the construction of its input."""


@dataclass
class Op:
    kind: str
    n: int
    data: dict = field(default_factory=dict)


# ---- exact_decide ------------------------------------------------------------
#
# parts are (a, b, m): b == 0 is one Jordan block J_m(a); b > 0 is one real
# block of size 2m for the pair a +- bi with block size m.

EXACT_SIZES = (8, 12, 16)
# pairs of each kind per size.  n = 8 has more than half of the pairs, so
# that op_p50_ms falls among the short, steady n = 8 operations; 15 pairs
# each at n = 12 and 16 take most of the time and set ops_per_s.  With an
# equal share of each size the median fell among the n = 12 pairs, whose
# costs differ by a third from kind to kind, and it spread twice as much.
EXACT_PAIRS_PER_KIND = {8: 9, 12: 3, 16: 3}
# each pair has one dense side S J S^-1 and one sparse block-diagonal side,
# fixed per kind, so every seed has the same mix
PAIR_KINDS = (
    ("same", "dense", "sparse", True),
    ("hyperbolic", "sparse", "dense", True),  # other hyperbolic values, same dims
    ("sign", "dense", "sparse", False),       # one real eigenvalue changes sign
    ("speed", "sparse", "dense", False),      # center pair +-i becomes +-2i
    ("split", "dense", "sparse", False),      # center 2-block becomes two 1-blocks
)
_CENTER_PAIR = (F0, F1, 2)


def part_dim(part) -> int:
    a, b, m = part
    return 2 * m if b else m


def real_jordan(parts) -> list:
    """Rows of the block-diagonal real Jordan matrix of parts."""
    n = sum(part_dim(p) for p in parts)
    rows = [[F0] * n for _ in range(n)]
    at = 0
    for a, b, m in parts:
        if b == 0:
            for i in range(m):
                rows[at + i][at + i] = a
                if i + 1 < m:
                    rows[at + i][at + i + 1] = F1
        else:
            for c in range(m):
                k = at + 2 * c
                rows[k][k] = rows[k + 1][k + 1] = a
                rows[k][k + 1], rows[k + 1][k] = b, -b
                if c + 1 < m:
                    rows[k][k + 2] = rows[k + 1][k + 3] = F1
        at += part_dim((a, b, m))
    return rows


def unimodular_similar(rows, rng: random.Random) -> list:
    """S A S^-1 for a unimodular S, a product of elementary matrices
    I + c e_i e_j^T with random c = +-1 at fixed positions: two sweeps
    down the superdiagonal and back up the subdiagonal.  Fixed positions
    keep the entry growth, and with it the cost of the exact kernel,
    about the same from seed to seed; the result is 70-90 % nonzero."""
    a = [list(r) for r in rows]
    n = len(a)
    sweep = [(k, k + 1) for k in range(n - 1)] + [(k + 1, k) for k in range(n - 1)]
    for i, j in sweep * 2:
        c = rng.choice((-1, 1))
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]  # E A: row_i += c row_j
        for r in a:  # (E A) E^-1: col_j -= c col_i
            r[j] -= c * r[i]
    return a


def realize_exact(parts, how: str, rng: random.Random) -> list:
    parts = list(parts)
    rng.shuffle(parts)
    rows = real_jordan(parts)
    if how == "sparse":
        return rows
    return unimodular_similar(rows, rng)


def exact_blocks(parts) -> Counter:
    """{(re, im, m): count} of the complex Jordan blocks of parts."""
    out = Counter()
    for a, b, m in parts:
        if b == 0:
            out[(a, F0, m)] += 1
        else:
            out[(a, b, m)] += 1
            out[(a, -b, m)] += 1
    return out


def exact_signature(parts):
    """(expanding dim, contracting dim, sorted center (im, m, count)) of parts."""
    plus = minus = 0
    center = Counter()
    for (re, im, m), c in exact_blocks(parts).items():
        if re > 0:
            plus += m * c
        elif re < 0:
            minus += m * c
        else:
            center[(im, m)] += c
    return plus, minus, tuple(sorted((im, m, c) for (im, m), c in center.items()))


# magnitudes of the hyperbolic eigenvalues; each is used at most once per
# matrix, with a random sign, so every seed gets numbers of the same size
_REAL_MAGNITUDES = (Fraction(1, 2), F1, Fraction(3, 2), Fraction(2), Fraction(3), Fraction(5, 2))
_PAIR_PARTS = ((Fraction(1, 2), F1), (F1, Fraction(2)), (Fraction(2), Fraction(3)))
# hyperbolic blocks after the first simple real one, in order: (kind, block size)
_HYPERBOLIC_FILL = (("real", 2), ("pair", 1), ("real", 1), ("real", 2), ("real", 1))


def exact_parts(rng: random.Random, n: int) -> list:
    """Block data of size n >= 5.

    The block structure depends on n alone, so every seed costs about the
    same: the center pair +-i in one 2-block, one simple real hyperbolic
    eigenvalue (parts[1]), then while they fit the eigenvalue 0, a center
    pair +-2i or +-3i, and the hyperbolic blocks of _HYPERBOLIC_FILL.  The
    magnitudes go to the blocks in a fixed order too: the seed draws the
    signs and the center speed, and realize_exact the block order and S.
    With seeded magnitudes, rounds of five seeds differed in cost by up
    to 7 % in one comparison.
    """
    reals = [m * rng.choice((-1, 1)) for m in _REAL_MAGNITUDES]
    pairs = [(a * rng.choice((-1, 1)), b) for a, b in _PAIR_PARTS]
    parts = [_CENTER_PAIR, (reals.pop(), F0, 1)]
    fill = [(F0, F0, 1), (F0, Fraction(rng.choice((2, 3))), 1)]
    for kind, m in _HYPERBOLIC_FILL:
        fill.append((reals.pop(), F0, m) if kind == "real" else pairs.pop() + (m,))
    for part in fill:
        if sum(map(part_dim, parts)) + part_dim(part) <= n:
            parts.append(part)
    while sum(map(part_dim, parts)) < n:
        parts.append((reals.pop(), F0, 1))
    return parts


def mutate(parts, kind: str) -> list:
    """The right-hand block data of a pair of the given kind."""
    if kind == "same":
        return list(parts)
    if kind == "hyperbolic":
        return [(a * 2, b + 1 if b else b, m) if a else (a, b, m) for a, b, m in parts]
    if kind == "sign":
        a, b, m = parts[1]
        return [parts[0], (-a, b, m)] + list(parts[2:])
    if kind == "speed":
        return [(F0, Fraction(2), 2)] + list(parts[1:])
    if kind == "split":
        return [(F0, F1, 1), (F0, F1, 1)] + list(parts[1:])
    raise ValueError(kind)


def exact_pair(rng: random.Random, n: int, kind, left_how, right_how, conjugate) -> Op:
    left = exact_parts(rng, n)
    right = mutate(left, kind)
    if (exact_signature(left) == exact_signature(right)) != conjugate:
        raise RuntimeError(f"generator fault: {kind} pair has the wrong answer")
    return Op(kind, n, {
        "left_parts": left,
        "right_parts": right,
        "left": realize_exact(left, left_how, rng),
        "right": realize_exact(right, right_how, rng),
        "conjugate": conjugate,
    })


def descriptor_blocks(desc) -> Counter:
    """{(re, im, m): count} of a flowclass SpectrumDescriptor."""
    out = Counter()
    for lam, m, c in desc.blocks:
        out[(Fraction(getattr(lam, "re", lam)), Fraction(getattr(lam, "im", 0)), m)] += c
    return out


class ExactDecide:
    name = "exact_decide"

    def inputs(self, seed: int) -> list:
        rng = random.Random(seed)
        return [
            exact_pair(rng, n, *kind)
            for n in EXACT_SIZES for _ in range(EXACT_PAIRS_PER_KIND[n]) for kind in PAIR_KINDS
        ]

    def warmup(self) -> Op:
        return exact_pair(random.Random(0), 6, *PAIR_KINDS[0])

    def run(self, fc, op: Op):
        dl = fc.spectrum_descriptor(fc.Matrix.exact(op.data["left"]))
        dr = fc.spectrum_descriptor(fc.Matrix.exact(op.data["right"]))
        verdict = fc.decide_conjugate(fc.conjugacy_signature(dl), fc.conjugacy_signature(dr))
        return dl, dr, verdict

    def check(self, op: Op, out) -> bool:
        dl, dr, verdict = out
        for side, desc in (("left", dl), ("right", dr)):
            got, want = descriptor_blocks(desc), exact_blocks(op.data[side + "_parts"])
            if got != want:
                raise WrongAnswer(f"{op.kind} n={op.n} {side} blocks {dict(got)} != {dict(want)}")
        if verdict.conjugate != op.data["conjugate"]:
            raise WrongAnswer(f"{op.kind} n={op.n} verdict {verdict.conjugate}")
        if not verdict.conjugate and not verdict.certificate:
            raise WrongAnswer(f"{op.kind} n={op.n} negative verdict without certificate")
        return True


# ---- float_classify ------------------------------------------------------------

FLOAT_SIZES = (4, 8, 12, 16)
# center pairs at beta * p, rationally related from n = 8 on
FLOAT_MULTIPLIERS = {4: (1,), 8: (1, 2), 12: (1, 2, 3), 16: (1, 2, 3)}
# Seeded float inputs are drawn at n = 4 only.  From n = 8 on, classify
# refuses a random share of valid documents (FLOAT_FAULT), so a seeded draw
# would change the failed count from seed to seed.  The larger documents
# come from this fixed seed instead: the same documents, and so the same
# refusals, in every run.
FLOAT_FIXED_SEED = 20261018
FLOAT_SEEDED_DOCS = 8
FLOAT_FIXED_DOCS = 4  # per size in FLOAT_SIZES[1:]
FLOAT_FAULT = "is not an eigenvalue: shifted matrix has full rank"
_SEPARATION = 0.2


def float_spectrum(rng: np.random.Generator, n: int):
    """Distinct simple eigenvalues: 0, the center pairs +-i beta p, and
    hyperbolic reals and pairs at least _SEPARATION apart."""
    beta = float(rng.uniform(0.5, 1.5))
    ps = FLOAT_MULTIPLIERS[n]
    eigs = [0j] + [complex(0, beta * p) for p in ps]
    used = 1 + 2 * len(ps)
    while used < n:
        if n - used >= 2 and rng.random() < 0.4:
            lam = complex(rng.choice((-1, 1)) * rng.uniform(0.3, 3.0), rng.uniform(0.3, 2.0))
        else:
            lam = complex(rng.choice((-1, 1)) * rng.uniform(0.3, 3.0), 0.0)
        near = min(abs(lam - mu) for e in eigs for mu in (e, e.conjugate()))
        if near >= _SEPARATION:
            eigs.append(lam)
            used += 2 if lam.imag else 1
    return beta, ps, eigs


def real_form(eigs) -> np.ndarray:
    """Block-diagonal real matrix with eigenvalue lam (and its conjugate)."""
    n = sum(2 if lam.imag else 1 for lam in eigs)
    out = np.zeros((n, n))
    at = 0
    for lam in eigs:
        if lam.imag:
            out[at:at + 2, at:at + 2] = [[lam.real, lam.imag], [-lam.imag, lam.real]]
            at += 2
        else:
            out[at, at] = lam.real
            at += 1
    return out


def haar_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def float_doc(rng: np.random.Generator, n: int) -> Op:
    beta, ps, eigs = float_spectrum(rng, n)
    q = haar_orthogonal(rng, n)
    a = q @ real_form(eigs) @ q.T
    text = "matrix:\n" + "".join(
        "  - [" + ", ".join(format(float(x), ".17e") for x in row) + "]\n" for row in a
    )
    plus = sum(2 if e.imag else 1 for e in eigs if e.real > 0)
    minus = sum(2 if e.imag else 1 for e in eigs if e.real < 0)
    center = sorted([0.0] + [s * beta * p for p in ps for s in (1, -1)])
    return Op("classify", n, {
        "text": text,
        "matrix": a,
        "eigs": eigs,
        "expanding": plus,
        "contracting": minus,
        "center": center,
        "dim_bounded": 1 + len(ps),
    })


def check_float_report(op: Op, report: dict) -> None:
    where = f"classify n={op.n}"
    sig = report["payload"]["signature"]
    for key in ("expanding", "contracting"):
        if sig[key] != op.data[key]:
            raise WrongAnswer(f"{where}: {key} {sig[key]} != {op.data[key]}")
    center = sorted(sig["center"], key=lambda b: b["im"])
    want = op.data["center"]
    if len(center) != len(want):
        raise WrongAnswer(f"{where}: {len(center)} center entries != {len(want)}")
    for blk, im in zip(center, want):
        if blk["size"] != 1 or blk["count"] != 1:
            raise WrongAnswer(f"{where}: center block {blk}, expected size 1 count 1")
        if abs(blk["im"] - im) > 1e-6 * max(1.0, abs(im)):
            raise WrongAnswer(f"{where}: center frequency {blk['im']} != {im}")
    got = report["payload"]["bounded"]["dim_bounded"]
    if got != op.data["dim_bounded"]:
        raise WrongAnswer(f"{where}: dim_bounded {got} != {op.data['dim_bounded']}")


class FloatClassify:
    name = "float_classify"

    def __init__(self, workdir: str):
        self.workdir = workdir

    def _write(self, ops, tag: str) -> list:
        for i, op in enumerate(ops):
            op.data["path"] = os.path.join(self.workdir, f"{tag}-{i:03d}-n{op.n}.yaml")
            with open(op.data["path"], "w", encoding="utf-8") as fh:
                fh.write(op.data["text"])
        return ops

    def inputs(self, seed: int) -> list:
        seeded = np.random.default_rng(seed)
        fixed = np.random.default_rng(FLOAT_FIXED_SEED)
        ops = [float_doc(seeded, FLOAT_SIZES[0]) for _ in range(FLOAT_SEEDED_DOCS)]
        ops += [float_doc(fixed, n) for n in FLOAT_SIZES[1:] for _ in range(FLOAT_FIXED_DOCS)]
        return self._write(ops, "doc")

    def warmup(self) -> Op:
        return self._write([float_doc(np.random.default_rng(0), 4)], "warmup")[0]

    def run(self, fc, op: Op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = fc.cli.main(["classify", op.data["path"], "--format", "json"])
        return code, out.getvalue(), err.getvalue()

    def check(self, op: Op, out) -> bool:
        code, stdout, stderr = out
        if code == 1 and FLOAT_FAULT in stderr:
            return False
        if code != 0:
            raise WrongAnswer(f"classify n={op.n} exited {code}: {stderr.strip()}")
        check_float_report(op, json.loads(stdout))
        return True


# ---- orbit_sim -------------------------------------------------------------------

ORBIT_CLASSES = 40
ORBIT_SUPPORTS = 2  # min_period calls per class
ORBIT_PROBES = 12
ORBIT_WITNESS_ORDERS = (1, 2, 3)
ORBIT_WITNESSES_PER_ORDER = 4


ORBIT_BETAS = (Fraction(1, 2), F1, Fraction(3, 2), Fraction(2))


def random_multipliers(rng: random.Random, k: int) -> tuple:
    """k sorted multipliers in 1..8 with gcd 1."""
    while True:
        p = sorted(rng.randint(1, 8) for _ in range(k))
        if math.gcd(*p) == 1:
            return tuple(p)


def class_op(rng: random.Random, i: int = 0) -> Op:
    """The i-th class of a round.  Its beta and its number of multipliers
    (2, 3 or 4) follow from i, so every seed has the same mix of the
    costliest traits; the seed draws the multipliers, supports and points."""
    beta = ORBIT_BETAS[i % len(ORBIT_BETAS)]
    p = random_multipliers(rng, 2 + i % 3)
    points, periods = [], []
    for _ in range(ORBIT_SUPPORTS):
        support = sorted(rng.sample(range(len(p)), rng.randint(1, len(p))))
        g = math.gcd(*(p[i] for i in support))
        points.append([rng.uniform(0.5, 2.0) if i in support else 0.0 for i in range(len(p))])
        periods.append(2 * math.pi / (float(beta) * g))
    return Op("period", len(p), {"beta": beta, "p": p, "points": points, "periods": periods})


def structurally_bounded(layout, x0) -> bool:
    """Bounded in both time directions exactly when every block with a
    nonzero real part carries no weight and every center block carries
    weight on its leading coordinate only."""
    at = 0
    for lam, m in layout:
        coords = x0[at:at + m]
        weighted = coords if complex(lam).real != 0 else coords[1:]
        if any(c != 0 for c in weighted):
            return False
        at += m
    return True


def probe_op(rng: random.Random) -> Op:
    """A layout of at most 6 dimensions with at least one hyperbolic block."""
    blocks = []
    n = 0
    while not blocks or n < rng.randint(3, 6):
        m = rng.randint(1, 2)
        if n + m > 6:
            break
        if not blocks or rng.random() < 0.3:
            lam = complex(rng.choice((-1.0, -0.5, -0.25, 0.25, 0.5, 1.0)), rng.choice((0.0, 1.0)))
        else:
            lam = complex(0.0, rng.choice((0.0, 1.0, 2.0, 3.0)))
        blocks.append((lam, m, 1))
        n += m
    layout = [(lam, m) for lam, m, _ in blocks]
    x0 = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) if rng.random() < 0.6 else 0j
          for _ in range(n)]
    if rng.random() < 0.5:  # keep only weight that stays bounded
        at = 0
        for lam, m in layout:
            for k in range(at, at + m):
                if lam.real != 0 or k > at:
                    x0[k] = 0j
            at += m
    if not any(x0):
        x0[0] = 1 + 0j
    return Op("probe", n, {"blocks": blocks, "x0": x0,
                           "bounded": structurally_bounded(layout, x0)})


def witness_op(rng: random.Random, r: int) -> Op:
    head = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(r + 1)]
    return Op("witness", 2 * r + 1, {"head": head, "beta": rng.uniform(0.5, 2.0), "r": r})


def jordan_flow_apply(beta: float, t: float, x) -> list:
    """exp(t J) x for one Jordan block J with eigenvalue i beta, in closed
    form, with the scale sum |t^k/k! x_(i+k)| of each coordinate."""
    m = len(x)
    rot = complex(math.cos(beta * t), math.sin(beta * t))
    out = []
    for i in range(m):
        terms = [t ** k / math.factorial(k) * x[i + k] for k in range(m - i)]
        out.append((rot * sum(terms), sum(abs(v) for v in terms)))
    return out


def check_witness(op: Op, w) -> None:
    r, head = op.data["r"], op.data["head"]
    if w.r != r or w.m != 2 * r + 1:
        raise WrongAnswer(f"witness r={r}: got r={w.r} m={w.m}")
    for n, (t, x, y) in enumerate(zip(w.times, w.x_seq, w.y_seq)):
        for (want, scale), got in zip(jordan_flow_apply(op.data["beta"], t, x), y):
            if abs(got - want) > 1e-13 * (1.0 + scale):
                raise WrongAnswer(f"witness r={r}: y_{n + 1} != exp(t J) x_{n + 1}")
    corner = w.x_lim[r]
    if abs(corner - head[r]) > 1e-12 * (1 + abs(head[r])):
        raise WrongAnswer(f"witness r={r}: x corner limit {corner} != head {head[r]}")
    if abs(w.y_lim[r] - (-1) ** r * corner) > 1e-12 * (1 + abs(corner)):
        raise WrongAnswer(f"witness r={r}: y corner limit {w.y_lim[r]} != (-1)^r {corner}")


class OrbitSim:
    name = "orbit_sim"

    def inputs(self, seed: int) -> list:
        rng = random.Random(seed)
        ops = [class_op(rng, i) for i in range(ORBIT_CLASSES)]
        ops += [probe_op(rng) for _ in range(ORBIT_PROBES)]
        ops += [witness_op(rng, r) for r in ORBIT_WITNESS_ORDERS
                for _ in range(ORBIT_WITNESSES_PER_ORDER)]
        return ops

    def warmup(self) -> Op:
        rng = random.Random(0)
        return witness_op(rng, 1)

    def run(self, fc, op: Op):
        d = op.data
        if op.kind == "period":
            cls = fc.RationalClass(d["beta"], d["p"])
            profile = fc.frequency_profile(cls)
            dims = dict(profile.preimage_dims)
            p = fc.recover_multipliers(profile.values, dims.__getitem__)
            arr = fc.realize_class(cls)
            return p, [fc.min_period(arr, x0) for x0 in d["points"]]
        if op.kind == "probe":
            arr, _ = fc.realize_blocks(d["blocks"])
            return fc.bounded_probe(arr, d["x0"])
        return fc.witness_sequence(d["head"], d["beta"])

    def check(self, op: Op, out) -> bool:
        d = op.data
        if op.kind == "period":
            p, results = out
            if tuple(p) != d["p"]:
                raise WrongAnswer(f"recovered multipliers {p} != {d['p']}")
            for res, want in zip(results, d["periods"]):
                if res.kind != "period" or abs(res.period - want) > 1e-6 * want:
                    raise WrongAnswer(f"class {d['p']}: period {res} != {want}")
        elif op.kind == "probe":
            if out.verdict == "bounded" and not d["bounded"] or (
                out.verdict == "unbounded" and d["bounded"]
            ):
                raise WrongAnswer(f"probe says {out.verdict} on {d['blocks']} {d['x0']}")
        else:
            check_witness(op, out)
        return True


def workload(name: str, workdir: str):
    if name == "exact_decide":
        return ExactDecide()
    if name == "float_classify":
        return FloatClassify(workdir)
    if name == "orbit_sim":
        return OrbitSim()
    raise KeyError(name)


NAMES = ("exact_decide", "float_classify", "orbit_sim")
