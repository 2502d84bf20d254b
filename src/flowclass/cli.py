"""Batch front end.

Reads YAML documents (plain JSON is valid YAML, so JSON files work
unchanged), runs the requested analysis, and prints one report to
stdout.  Exit codes: 0 when the analysis ran, 1 for unusable input or
bad usage, 2 when a computation refused to certify its result.

A document is either exact or float.  Exact documents write numbers as
integers or ratio strings like 1/2 (quotes optional in YAML); float
documents write decimals.  Mixing the two flavors is rejected with the
path of the first offending literal on each side.  Matrix entries are
real numbers; only point and head coordinates may be complex, written
as two-element lists [re, im] of same-flavor parts.  A number read as
a float that is beyond the float range is an input error naming its
path.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np
import yaml

from .errors import DiagnosticError, ExactModeError, InputError
from .flowsim import (
    DEFAULT_GROWTH_CAP,
    DEFAULT_PERIOD_HORIZON,
    DEFAULT_PERIOD_STEP,
    DEFAULT_PROBE_HORIZON,
    DEFAULT_PROBE_STEP,
    DEFAULT_RETURN_TOL,
    bounded_probe,
    extrapolate_to_zero,
    min_period,
    realize_blocks,
    witness_sequence,
)
from .invariants import (
    DEFAULT_QMAX,
    DEFAULT_RATIO_TOL,
    bounded_structure,
    conjugacy_signature,
    decide_conjugate,
    frequency_profile,
    rational_classes,
)
from .numkit import Matrix, RationalComplex, lam_parts
from .spectral import _REMEDIES, SpectrumDescriptor, _shortened, spectrum_descriptor

__all__ = ["Report", "emit_json", "emit_text", "parse_report", "main"]

_FRACTION_RE = re.compile(r"^[+-]?\d+(/0*[1-9]\d*)?$")  # no zero denominator


# ---- report -------------------------------------------------------------------


@dataclass(frozen=True)
class Report:
    """One analysis result with JSON-native payload.

    Payload values are dict/list/str/int/float/bool/None only; exact
    rationals appear as ratio strings and complex values as [re, im]
    pairs, so emit/parse round-trips reproduce the report exactly.
    """

    command: str
    payload: dict
    diagnostics: tuple = ()


def _same(x):
    return x


# _jsonable by exact type, and by the first base in this order for a subclass
_JSONABLE = {
    type(None): _same,
    bool: _same,
    int: _same,
    str: _same,
    float: lambda x: float(x) if math.isfinite(x) else None,
    Fraction: str,
    RationalComplex: lambda x: [str(x.re), str(x.im)],
    complex: lambda x: [float(x.real), float(x.imag)],
    dict: lambda x: {str(k): _jsonable(v) for k, v in x.items()},
    list: lambda x: [_jsonable(v) for v in x],
    tuple: lambda x: [_jsonable(v) for v in x],
}


def _jsonable(x):
    convert = _JSONABLE.get(type(x))
    if convert is not None:
        return convert(x)
    for base, convert in _JSONABLE.items():
        if isinstance(x, base):
            return convert(x)
    if isinstance(x, np.generic):
        return _jsonable(x.item())
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    raise InputError(f"cannot serialize {type(x).__name__} into a report")


def _report(command: str, payload: dict, diagnostics) -> Report:
    return Report(command, _jsonable(payload), tuple(diagnostics))


def emit_json(report: Report) -> str:
    """The report as json.dumps(..., sort_keys=True, indent=2,
    allow_nan=False) writes it, byte for byte, by `_json_text`."""
    return _json_text(
        {
            "command": report.command,
            "diagnostics": list(report.diagnostics),
            "payload": report.payload,
        },
        "\n",
    )


def _json_text(o, pad: str) -> str:
    """JSON text of o as json.dumps(o, sort_keys=True, indent=2,
    allow_nan=False) writes it, pad being the newline and indent before
    o's line.  The stdlib writes an indented document with its
    pure-Python encoder, a generator step per token; this dispatches on
    exact type and falls back to json's isinstance order for subclasses.
    A non-finite float raises ValueError and a value json cannot write
    TypeError, as json.dumps does (without its check for cycles)."""
    kind = type(o)
    if kind is str:
        return encode_basestring_ascii(o)
    if kind is float:
        return _json_float(o)
    if kind is int:
        return int.__repr__(o)
    if kind is not list and kind is not dict and kind is not tuple:
        if isinstance(o, str):
            return encode_basestring_ascii(o)
        if o is None:
            return "null"
        if o is True:
            return "true"
        if o is False:
            return "false"
        if isinstance(o, int):
            return int.__repr__(o)
        if isinstance(o, float):
            return _json_float(o)
        if not isinstance(o, (list, tuple, dict)):
            raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    if not o:
        return "{}" if isinstance(o, dict) else "[]"
    inner = pad + "  "
    if isinstance(o, dict):
        items = [_json_key(k) + ": " + _json_text(v, inner) for k, v in sorted(o.items())]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    return "[" + inner + ("," + inner).join([_json_text(v, inner) for v in o]) + pad + "]"


def _json_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
    return float.__repr__(x)


def _json_key(k) -> str:
    """A dict key as json writes it: a string, or a float, bool, None or
    int spelled as that value is and quoted."""
    if isinstance(k, str):
        text = k
    elif isinstance(k, float):
        text = _json_float(k)
    elif k is True or k is False or k is None:
        text = _json_text(k, "")
    elif isinstance(k, int):
        text = int.__repr__(k)
    else:
        raise TypeError(
            f"keys must be str, int, float, bool or None, not {type(k).__name__}")
    return encode_basestring_ascii(text)


def parse_report(text: str) -> Report:
    try:
        data = json.loads(text)
        return Report(
            data["command"], data["payload"], tuple(data["diagnostics"])
        )
    except (ValueError, KeyError, TypeError) as exc:
        raise InputError(f"not a report: {exc}") from None


def _scalar_text(v) -> str:
    if v is None:
        return "none"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.12g}"
    if isinstance(v, list):
        return "[" + ", ".join(_scalar_text(x) for x in v) + "]"
    return str(v)


def _is_flat(v) -> bool:
    return isinstance(v, list) and all(
        not isinstance(x, (dict, list)) or _is_flat(x) for x in v
    )


def _text_lines(obj, indent: int = 0) -> list:
    pad = "  " * indent
    lines = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, dict) and v or isinstance(v, list) and v and not _is_flat(v):
                lines.append(f"{pad}{k}:")
                lines.extend(_text_lines(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {_scalar_text(v)}")
    elif isinstance(obj, list):
        for item in obj:
            if isinstance(item, dict) and item or isinstance(item, list) and item and not _is_flat(item):
                lines.append(f"{pad}-")
                lines.extend(_text_lines(item, indent + 1))
            else:
                lines.append(f"{pad}- {_scalar_text(item)}")
    return lines


def emit_text(report: Report) -> str:
    return "\n".join(_text_lines(report.payload))


# ---- document numbers ----------------------------------------------------------


@dataclass
class _Evidence:
    float_at: tuple | None = None
    frac_at: tuple | None = None
    huge_at: str | None = None  # path of the first number beyond the float range
    declared: str | None = None

    def mode(self, floats: bool = False) -> str:
        """The document's mode.  When it is float, or floats says the
        numbers are read as floats whatever the mode, a number beyond the
        float range is an input error."""
        mode = self._flavor()
        if self.huge_at and (floats or mode == "float"):
            raise InputError(f"{self.huge_at}: number is beyond the float range")
        return mode

    def _flavor(self) -> str:
        if self.declared is not None:
            if self.declared == "exact" and self.float_at:
                path, tok = self.float_at
                raise InputError(
                    f"{path}: float literal {tok!r} in an exact document; "
                    "write it as a ratio like 1/2"
                )
            if self.declared == "float" and self.frac_at:
                path, tok = self.frac_at
                raise InputError(
                    f"{path}: ratio literal {tok!r} in a float document; "
                    "write it as a decimal"
                )
            return self.declared
        if self.float_at and self.frac_at:
            fpath, ftok = self.float_at
            rpath, rtok = self.frac_at
            raise InputError(
                f"document mixes float literal {ftok!r} at {fpath} with "
                f"ratio literal {rtok!r} at {rpath}; pick one flavor"
            )
        return "float" if self.float_at else "exact"


def _scan_real(x, path: str, ev: _Evidence):
    """A real document number as written: int, float or Fraction."""
    if isinstance(x, bool):
        raise InputError(f"{path}: expected a number, got a boolean")
    if isinstance(x, int):
        return _note_range(x, path, ev)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise InputError(f"{path}: expected a finite number")
        if ev.float_at is None:
            ev.float_at = (path, x)
        return x
    if isinstance(x, str):
        if not _FRACTION_RE.match(x):
            raise InputError(f"{path}: cannot read {x!r} as a number{_float_hint(x)}")
        if ev.frac_at is None:
            ev.frac_at = (path, x)
        try:
            return _note_range(Fraction(x), path, ev)
        except ValueError as exc:  # an integer beyond int()'s digit limit
            raise InputError(f"{path}: cannot read {_shortened(x)!r}: "
                             f"{_unreadable(exc)}") from None
    raise InputError(f"{path}: expected a number, got {type(x).__name__}")


def _unreadable(exc: ValueError) -> str:
    """The text of a ValueError from reading a scalar, without CPython's
    advice to raise its digit limit for int()."""
    return str(exc).partition("; use sys.set_int_max_str_digits()")[0]


def _float_hint(text: str) -> str:
    """How to write text as a float, when Python reads it as a finite one:
    YAML 1.1 reads a float only when its digits have a decimal point and
    its exponent, if any, a sign, so 1e-3 and 1.0e300 are text.  The
    spelling offered is the shortest that reads back as the same float."""
    try:
        value = float(text)
    except ValueError:
        return ""
    if not math.isfinite(value):
        return ""
    spelled = repr(value)
    if "." not in spelled:
        spelled = spelled.replace("e", ".0e")
    return (f"; YAML reads a float only with a decimal point and a signed "
            f"exponent, so write {spelled}, or a ratio in exact mode")


def _note_range(x, path: str, ev: _Evidence):
    """x, after noting its path if float(x) would overflow."""
    if ev.huge_at is None:
        try:
            float(x)
        except OverflowError:
            ev.huge_at = path
    return x


def _scan_value(x, path: str, ev: _Evidence):
    """A point or head coordinate: real number, or [re, im] pair as a 2-tuple."""
    if isinstance(x, list):
        if len(x) != 2:
            raise InputError(f"{path}: complex entries are [re, im] pairs")
        return (
            _scan_real(x[0], f"{path}[0]", ev),
            _scan_real(x[1], f"{path}[1]", ev),
        )
    return _scan_real(x, path, ev)


def _value(x, mode: str):
    """A scanned number in the document's mode: Fraction when exact, float
    otherwise; a pair becomes a complex of floats."""
    if isinstance(x, tuple):
        return complex(float(x[0]), float(x[1]))
    return Fraction(x) if mode == "exact" else float(x)


def _plain_int(x, path: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise InputError(f"{path}: expected an integer")
    return x


def _plain_bool(x, path: str) -> bool:
    if not isinstance(x, bool):
        raise InputError(f"{path}: expected true or false")
    return x


def _check_keys(doc: dict, allowed: set, where: str) -> None:
    extra = sorted(set(doc) - allowed)
    if extra:
        raise InputError(
            f"{where}: unknown keys {', '.join(extra)} "
            f"(allowed: {', '.join(sorted(allowed))})"
        )


def _declared_mode(doc: dict, path: str, force_exact: bool) -> str | None:
    declared = doc.get("mode")
    if declared is not None and declared not in ("exact", "float"):
        raise InputError(f"{path}mode: must be 'exact' or 'float'")
    if force_exact:
        if declared == "float":
            raise InputError(
                f"{path}mode: document says float but --exact was given"
            )
        declared = "exact"
    return declared


# ---- systems -------------------------------------------------------------------


def _load_matrix(rows, path: str, ev: _Evidence):
    """The matrix's rows as scanned numbers, or one float64 ndarray when
    every entry is a finite float (its first float is then [0][0])."""
    if not isinstance(rows, list) or not rows or not all(
        isinstance(r, list) for r in rows
    ):
        raise InputError(f"{path}: a matrix is a list of rows")
    if (set(map(type, chain.from_iterable(rows))) == {float}
            and len(set(map(len, rows))) == 1):
        arr = np.array(rows)
        if np.isfinite(arr).all():
            if ev.float_at is None:
                ev.float_at = (f"{path}[0][0]", rows[0][0])
            return arr
    return [
        [_scan_real(x, f"{path}[{i}][{j}]", ev) for j, x in enumerate(row)]
        for i, row in enumerate(rows)
    ]


def _load_spectrum(items, path: str, ev: _Evidence):
    if not isinstance(items, list) or not items:
        raise InputError(f"{path}: a spectrum is a list of blocks")
    out = []
    for i, item in enumerate(items):
        here = f"{path}[{i}]"
        if not isinstance(item, dict):
            raise InputError(f"{here}: a block is a mapping")
        _check_keys(item, {"re", "im", "size", "count"}, here)
        if "re" not in item or "size" not in item:
            raise InputError(f"{here}: a block needs at least re and size")
        out.append(
            (
                _scan_real(item["re"], f"{here}.re", ev),
                _scan_real(item.get("im", 0), f"{here}.im", ev),
                _plain_int(item["size"], f"{here}.size"),
                _plain_int(item.get("count", 1), f"{here}.count"),
            )
        )
    return out


def _system_descriptor(doc: dict, args, where: str, diags: list) -> SpectrumDescriptor:
    """Descriptor of a system given as a matrix or a spectrum block list."""
    label = where or "document"
    if not isinstance(doc, dict):
        raise InputError(f"{label}: a system is a mapping")
    _check_keys(doc, {"mode", "matrix", "spectrum", "n"}, label)
    has_matrix = "matrix" in doc
    has_spectrum = "spectrum" in doc
    if has_matrix == has_spectrum:
        raise InputError(f"{label}: give exactly one of matrix or spectrum")
    ev = _Evidence(declared=_declared_mode(doc, where + ".", args.exact))
    prefix = where + "." if where else ""

    if has_matrix:
        rows = _load_matrix(doc["matrix"], f"{prefix}matrix", ev)
        mode = ev.mode()
        mat = Matrix(rows, mode)
        try:
            # a tolerance steers float analysis only; exact takes none
            return spectrum_descriptor(mat, tol=None if mode == "exact" else args.tol)
        except ExactModeError as exc:
            if args.exact:
                raise
            if ev.huge_at:
                # float mode cannot help, so only the other remedy is named
                reason = str(exc).replace(_REMEDIES, "supply spectrum blocks directly")
                raise ExactModeError(
                    f"{reason}; float analysis is impossible: "
                    f"{ev.huge_at} is beyond the float range"
                ) from None
            diags.append(f"{where or 'input'}: {exc}; float analysis used")
            return spectrum_descriptor(mat.to_float(), tol=args.tol)

    scanned = _load_spectrum(doc["spectrum"], f"{prefix}spectrum", ev)
    mode = ev.mode()
    blocks = []
    for re, im, size, count in scanned:
        re_v = _value(re, mode)
        im_v = _value(im, mode)
        if mode == "exact":
            lam = re_v if im_v == 0 else RationalComplex(re_v, im_v)
        else:
            lam = re_v if im_v == 0.0 else complex(re_v, im_v)
        blocks.append((lam, size, count))
    n = _plain_int(doc["n"], f"{prefix}n") if "n" in doc else None
    return SpectrumDescriptor.make(blocks, n=n)


# ---- payload builders ------------------------------------------------------------


def _blocks_payload(desc: SpectrumDescriptor) -> list:
    out = []
    for lam, m, count in desc.blocks:
        re_v, im_v = lam_parts(lam)
        out.append({"re": re_v, "im": im_v, "size": m, "count": count})
    return out


def _signature_payload(sig) -> dict:
    return {
        "expanding": sig.dim_plus,
        "contracting": sig.dim_minus,
        "center": [
            {"im": im, "size": m, "count": c} for im, m, c in sig.center
        ],
    }


def _class_payload(cls, dim_fixed: int) -> dict:
    profile = frequency_profile(cls, dim_fixed)
    rel_dev = 0.0
    if not isinstance(cls.beta, Fraction):
        rel_dev = max(
            abs(f / (float(cls.beta) * p) - 1.0)
            for f, p in zip(cls.frequencies, cls.p)
        )
    return {
        "beta": cls.beta,
        "multipliers": list(cls.p),
        "max_rel_dev": rel_dev,
        "values": list(profile.values),
        "profile": [[v, d] for v, d in profile.preimage_dims],
    }


def _bounded_payload(bnd) -> dict:
    return {
        "dim_bounded": bnd.dim_bounded,
        "dim_fixed": bnd.dim_fixed,
        "classes": [_class_payload(c, bnd.dim_fixed) for c in bnd.classes],
        "unclassed": list(bnd.unclassed),
    }


# ---- commands ---------------------------------------------------------------------


def _cmd_classify(doc: dict, args) -> Report:
    if "left" in doc or "right" in doc:
        # a pair document gets the same decision either way it is asked for
        pair = _cmd_equiv(doc, args)
        return Report("classify", pair.payload, pair.diagnostics)
    diags: list = []
    desc = _system_descriptor(doc, args, "", diags)
    sig = conjugacy_signature(desc)
    qmax = args.qmax if args.qmax is not None else DEFAULT_QMAX
    bnd = bounded_structure(desc, qmax=qmax)
    payload = {
        "mode": "exact" if desc.exact else "float",
        "n": desc.n,
        "blocks": _blocks_payload(desc),
        "split": {
            "expanding": sig.dim_plus,
            "contracting": sig.dim_minus,
            "center": sig.dim_zero,
        },
        "signature": _signature_payload(sig),
        "bounded": _bounded_payload(bnd),
    }
    return _report("classify", payload, diags)


def _cmd_equiv(doc: dict, args) -> Report:
    _check_keys(doc, {"left", "right"}, "document")
    if "left" not in doc or "right" not in doc:
        raise InputError("an equivalence document needs left and right systems")
    diags: list = []
    left = _system_descriptor(doc["left"], args, "left", diags)
    right = _system_descriptor(doc["right"], args, "right", diags)
    sig_l = conjugacy_signature(left)
    sig_r = conjugacy_signature(right)
    verdict = decide_conjugate(sig_l, sig_r)
    payload = {
        "verdict": "CONJUGATE" if verdict.conjugate else "NOT CONJUGATE",
        "certificate": verdict.certificate,
        "left": _signature_payload(sig_l),
        "right": _signature_payload(sig_r),
    }
    return _report("equiv", payload, diags)


def _cmd_invariants(doc: dict, args) -> Report:
    diags: list = []
    qmax = args.qmax if args.qmax is not None else DEFAULT_QMAX
    if "frequencies" in doc:
        _check_keys(doc, {"mode", "frequencies", "dim_fixed"}, "document")
        ev = _Evidence(declared=_declared_mode(doc, "", args.exact))
        freqs = doc["frequencies"]
        if not isinstance(freqs, list) or not freqs:
            raise InputError("frequencies: expected a nonempty list")
        scanned = [
            _scan_real(x, f"frequencies[{i}]", ev) for i, x in enumerate(freqs)
        ]
        mode = ev.mode()
        vals = [_value(x, mode) for x in scanned]
        dim_fixed = _plain_int(doc.get("dim_fixed", 0), "dim_fixed")
        tol = args.tol if args.tol is not None else DEFAULT_RATIO_TOL
        classes = rational_classes(vals, qmax=qmax, tol=tol)
        payload = {
            "mode": mode,
            "dim_fixed": dim_fixed,
            "classes": [
                _class_payload(c, dim_fixed) for c in classes if len(c.p) >= 2
            ],
            "unclassed": [c.beta for c in classes if len(c.p) == 1],
        }
        return _report("invariants", payload, diags)
    desc = _system_descriptor(doc, args, "", diags)
    bnd = bounded_structure(desc, qmax=qmax)
    payload = {
        "mode": "exact" if desc.exact else "float",
        "n": desc.n,
        "bounded": _bounded_payload(bnd),
    }
    return _report("invariants", payload, diags)


def _cmd_simulate(doc: dict, args) -> Report:
    diags: list = []
    _check_keys(
        doc, {"mode", "matrix", "spectrum", "n", "point", "growth_cap"}, "document"
    )
    if "point" not in doc:
        raise InputError("a simulation document needs a point")
    ev = _Evidence(declared=_declared_mode(doc, "", args.exact))
    if ("matrix" in doc) == ("spectrum" in doc):
        raise InputError("give exactly one of matrix or spectrum")
    if "matrix" in doc:
        rows = _load_matrix(doc["matrix"], "matrix", ev)
    else:
        spectrum = _load_spectrum(doc["spectrum"], "spectrum", ev)
    if not isinstance(doc["point"], list):
        raise InputError("point: expected a list of coordinates")
    point = [
        _scan_value(x, f"point[{i}]", ev) for i, x in enumerate(doc["point"])
    ]
    mode = ev.mode(floats=True)
    if "matrix" in doc:
        arr = np.array([[_value(x, "float") for x in row] for row in rows])
    else:
        blocks = [
            (_value((re, im), "float"), size, count)
            for re, im, size, count in spectrum
        ]
        arr, _ = realize_blocks(blocks)
    point = [_value(x, "float") for x in point]

    cap = doc.get("growth_cap", DEFAULT_GROWTH_CAP)
    if isinstance(cap, bool) or not isinstance(cap, (int, float)):
        raise InputError("growth_cap: expected a number")
    try:
        cap = float(cap)
    except OverflowError:
        raise InputError("growth_cap: number is beyond the float range") from None
    horizon = args.horizon if args.horizon is not None else DEFAULT_PROBE_HORIZON
    step = args.grid_step if args.grid_step is not None else DEFAULT_PROBE_STEP
    tol = args.tol if args.tol is not None else DEFAULT_RETURN_TOL
    probe = bounded_probe(
        arr, point, horizon=horizon, step=step, growth_cap=cap, tol=tol
    )
    period_horizon = args.horizon if args.horizon is not None else DEFAULT_PERIOD_HORIZON
    period_step = args.grid_step if args.grid_step is not None else DEFAULT_PERIOD_STEP
    period = min_period(
        arr, point, horizon=period_horizon, step=period_step, tol=tol
    )
    payload = {
        "mode": mode,
        "probe": {
            "verdict": probe.verdict,
            "reason": probe.reason,
            "ratio": probe.ratio,
        },
        "period": {
            "kind": period.kind,
            "period": period.period,
            "residual": period.residual,
        },
    }
    return _report("simulate", payload, diags)


def _cmd_witness(doc: dict, args) -> Report:
    diags: list = []
    _check_keys(
        doc, {"mode", "head", "beta", "even", "target_zero", "count"}, "document"
    )
    if "head" not in doc or "beta" not in doc:
        raise InputError("a witness document needs head and beta")
    ev = _Evidence(declared=_declared_mode(doc, "", args.exact))
    if not isinstance(doc["head"], list):
        raise InputError("head: expected a list of coordinates")
    head = [
        _scan_value(x, f"head[{i}]", ev) for i, x in enumerate(doc["head"])
    ]
    beta = _scan_real(doc["beta"], "beta", ev)
    ev.mode(floats=True)
    head = [_value(x, "float") for x in head]
    beta = _value(beta, "float")
    even = _plain_bool(doc.get("even", False), "even")
    target_zero = _plain_bool(doc.get("target_zero", False), "target_zero")
    count = _plain_int(doc.get("count", 24), "count")
    wit = witness_sequence(
        head, beta, even=even, target_zero=target_zero, count=count
    )
    payload = {
        "beta": wit.beta,
        "m": wit.m,
        "r": wit.r,
        "times": list(wit.times),
        "x_seq": [list(x) for x in wit.x_seq],
        "y_seq": [list(y) for y in wit.y_seq],
        "x_lim": list(wit.x_lim),
        "y_lim": list(wit.y_lim),
    }
    if not even:
        corner = wit.corner_values
        payload["corner"] = {
            "index": wit.corner_index,
            "values": list(corner),
            "extrapolated": extrapolate_to_zero(
                wit.times, corner, degree=min(wit.r, len(corner) - 1)
            ),
        }
    return _report("witness", payload, diags)


# ---- entry point ------------------------------------------------------------------


_COMMANDS = {
    "classify": _cmd_classify,
    "equiv": _cmd_equiv,
    "invariants": _cmd_invariants,
    "simulate": _cmd_simulate,
    "witness": _cmd_witness,
}


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; code 2 is reserved for refused computations
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "file", help="YAML/JSON document, or - for stdin"
    )
    common.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default text)",
    )
    common.add_argument(
        "--exact", action="store_true",
        help="require exact analysis; never fall back to float",
    )
    common.add_argument("--tol", type=float, default=None, help="tolerance override")
    common.add_argument(
        "--qmax", type=int, default=None,
        help="largest denominator accepted when matching frequency ratios",
    )
    common.add_argument(
        "--horizon", type=float, default=None, help="simulation time horizon"
    )
    common.add_argument(
        "--grid-step", type=float, default=None, help="simulation grid step"
    )
    parser = _Parser(
        prog="flowclass",
        description="Topological classification of linear flows.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    sub.add_parser(
        "classify", parents=[common],
        help="full invariant report of one system, or the pair verdict "
             "when the document has left and right systems",
    )
    sub.add_parser(
        "equiv", parents=[common],
        help="decide topological conjugacy of left and right systems",
    )
    sub.add_parser(
        "invariants", parents=[common],
        help="rational frequency classes and their profiles",
    )
    sub.add_parser(
        "simulate", parents=[common],
        help="boundedness probe and minimal period of one orbit",
    )
    sub.add_parser(
        "witness", parents=[common],
        help="limit-witness sequences on one rotation block",
    )
    return parser


# plain scalars read without PyYAML's constructor: these patterns are
# strict subsets of YAML 1.1's float and int, whose values float() and
# int() give as SafeLoader does
_PLAIN_FLOAT = re.compile(r"(?:[-+]?[0-9]+\.[0-9]*|\.[0-9]+)(?:[eE][-+][0-9]+)?")
_PLAIN_INT = re.compile(r"[-+]?(?:0|[1-9][0-9]*)")
_RESOLVER = yaml.resolver.Resolver()
_STR_TAG = "tag:yaml.org,2002:str"


class _Unplain(Exception):
    """A node only PyYAML's constructor reads: a plain scalar of an
    implicit tag other than str (a merge key among them) or an
    unhashable key."""


def _parsed(text: str):
    """The document as yaml.load(text, SafeLoader) builds it (libyaml's
    CSafeLoader when PyYAML has it).  A text without tags or anchors, so
    with no alias and no node met twice, is composed with no implicit
    resolvers (CBaseLoader or BaseLoader) and built by walking its
    nodes; any other text, or a walk that meets a node it cannot read,
    takes yaml.load."""
    if "!" not in text and "&" not in text:
        loader = getattr(yaml, "CBaseLoader", yaml.BaseLoader)(text)
        try:
            node = loader.get_single_node()
        finally:
            loader.dispose()
        try:
            return None if node is None else _built(node)
        except _Unplain:
            pass
    return yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))


def _built(node):
    """The value of a composed node, as SafeLoader constructs it."""
    if node.id == "scalar":
        return _scalar(node)
    if node.id == "sequence":
        return [_scalar(x) if x.id == "scalar" else _built(x) for x in node.value]
    out = {}
    for key_node, value_node in node.value:
        key = _built(key_node)
        if type(key) is list or type(key) is dict:
            raise _Unplain
        out[key] = _built(value_node)
    return out


def _scalar(node):
    text = node.value
    if node.style:  # quoted or block: always text
        return text
    if _PLAIN_FLOAT.fullmatch(text):
        return float(text)
    if _PLAIN_INT.fullmatch(text):
        return int(text)
    if _RESOLVER.resolve(yaml.ScalarNode, text, (True, False)) != _STR_TAG:
        raise _Unplain
    return text


def _load_document(path: str) -> dict:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as f:
                text = f.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    try:
        doc = _parsed(text)
    except yaml.YAMLError as exc:
        raise InputError(f"{path}: not valid YAML: {exc}") from None
    except ValueError as exc:  # int() past its digit limit, or a date out of range
        raise InputError(f"{path}: cannot read a scalar: {_unreadable(exc)}") from None
    if not isinstance(doc, dict):
        raise InputError(f"{path}: the document must be a mapping")
    return doc


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.tol is not None and not math.isfinite(args.tol):
            raise InputError(f"--tol must be a finite number, got {args.tol}")
        doc = _load_document(args.file)
        report = _COMMANDS[args.command](doc, args)
    except InputError as exc:
        print(f"flowclass: error: {exc}", file=sys.stderr)
        return 1
    except DiagnosticError as exc:
        print(f"flowclass: diagnostic: {exc}", file=sys.stderr)
        return 2
    text = emit_json(report) if args.format == "json" else emit_text(report)
    print(text)
    for note in report.diagnostics:
        print(f"flowclass: note: {note}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
