"""Command-line behavior: golden reports, exit codes, document
validation, report round trips, and the exact-to-float fallback."""

import contextlib
import hashlib
import io
import json
import math
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import flowclass
from conftest import haar_similar, hyperbolic_blocks, rotation
from flowclass import cli, flowsim, numkit, spectral
from flowclass.cli import (
    _PLAIN_FLOAT,
    _PLAIN_INT,
    Report,
    _load_document,
    _parsed,
    emit_json,
    emit_text,
    main,
    parse_report,
)
from flowclass.errors import InputError
from flowclass.numkit import RationalComplex

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def write_doc(tmp_path, text):
    p = tmp_path / "doc.yaml"
    p.write_text(text)
    return str(p)


# ---- golden reports --------------------------------------------------------


@pytest.mark.parametrize(
    "command,name",
    [
        ("equiv", "rotation_pair"),
        ("equiv", "conjugate_pair"),
        ("classify", "classify_saddle_rotor"),
        ("invariants", "invariants_freqs"),
    ],
)
def test_golden_json_reports(capsys, command, name):
    doc = str(GOLDEN / f"{name}.yaml")
    code, out, err = run(capsys, command, doc, "--format", "json")
    assert code == 0 and err == ""
    assert out == (GOLDEN / f"{name}.expected.json").read_text()


@pytest.mark.parametrize(
    "name", ["rotation_pair", "conjugate_pair", "classify_saddle_rotor",
             "invariants_freqs"]
)
def test_golden_reports_round_trip(capsys, name):
    command = "equiv" if "pair" in name else name.split("_")[0]
    code, out, _ = run(capsys, command, str(GOLDEN / f"{name}.yaml"),
                       "--format", "json")
    assert code == 0
    report = parse_report(out)
    assert emit_json(report) + "\n" == out


def test_classify_decides_pair_documents_like_equiv(capsys):
    doc = str(GOLDEN / "rotation_pair.yaml")
    _, out_e, _ = run(capsys, "equiv", doc, "--format", "json")
    code, out_c, err = run(capsys, "classify", doc, "--format", "json")
    assert code == 0 and err == ""
    equiv, classify = json.loads(out_e), json.loads(out_c)
    assert classify["command"] == "classify"
    assert classify["payload"] == equiv["payload"]
    assert classify["payload"]["verdict"] == "NOT CONJUGATE"


def test_text_format_has_verdict_line(capsys):
    code, out, _ = run(capsys, "equiv", str(GOLDEN / "rotation_pair.yaml"))
    assert code == 0
    lines = out.splitlines()
    assert "verdict: NOT CONJUGATE" in lines
    assert "certificate: center eigenvalue -1i vs -2i" in lines


def test_equiv_verdict_is_symmetric(capsys, tmp_path):
    flipped = write_doc(
        tmp_path,
        "left:\n  matrix: [[0, -2], [2, 0]]\n"
        "right:\n  matrix: [[0, -1], [1, 0]]\n",
    )
    code, out, _ = run(capsys, "equiv", flipped, "--format", "json")
    assert code == 0
    assert json.loads(out)["payload"]["verdict"] == "NOT CONJUGATE"


# ---- simulate and witness ----------------------------------------------------


def test_simulate_quarter_turn(capsys):
    code, out, err = run(
        capsys, "simulate", str(GOLDEN / "simulate_quarter.yaml"),
        "--format", "json",
    )
    assert code == 0 and err == ""
    data = json.loads(out)["payload"]
    assert data["mode"] == "float"
    assert data["probe"]["verdict"] == "bounded"
    assert "returned" in data["probe"]["reason"]
    assert data["period"]["kind"] == "period"
    assert abs(data["period"]["period"] - 4.0) < 1e-9
    assert data["period"]["residual"] < 1e-9
    report = parse_report(out)
    assert emit_json(report) + "\n" == out


def test_simulate_spectrum_document(capsys, tmp_path):
    doc = write_doc(
        tmp_path,
        "mode: float\n"
        "spectrum:\n"
        "  - {re: 0.0, im: 1.5707963267948966, size: 1}\n"
        "  - {re: 0.0, im: -1.5707963267948966, size: 1}\n"
        "point: [[1.0, 0.0], [1.0, 0.0]]\n",
    )
    code, out, _ = run(capsys, "simulate", doc, "--format", "json")
    assert code == 0
    data = json.loads(out)["payload"]
    assert data["probe"]["verdict"] == "bounded"
    assert abs(data["period"]["period"] - 4.0) < 1e-9


def test_simulate_horizon_override_limits_search(capsys, tmp_path):
    doc = write_doc(
        tmp_path,
        "mode: float\nmatrix: [[0.0, -1.5707963267948966], "
        "[1.5707963267948966, 0.0]]\npoint: [1.0, 0.0]\n",
    )
    code, out, _ = run(
        capsys, "simulate", doc, "--format", "json", "--horizon", "3.0"
    )
    assert code == 0
    data = json.loads(out)["payload"]
    assert data["period"]["kind"] == "none_found"
    assert data["probe"]["verdict"] == "undetermined"


@pytest.mark.parametrize("bad", [".nan", ".inf", "-.inf"])
def test_simulate_rejects_non_finite_numbers(capsys, tmp_path, bad):
    doc = write_doc(
        tmp_path, f"mode: float\nmatrix: [[0.0, {bad}], [1.0, 0.0]]\npoint: [1.0, 0.0]\n"
    )
    code, out, err = run(capsys, "simulate", doc)
    assert code == 1 and out == ""
    assert "matrix[0][1]: expected a finite number" in err
    assert "Traceback" not in err

    doc = write_doc(tmp_path, f"mode: float\nmatrix: [[0.0]]\npoint: [[1.0, {bad}]]\n")
    code, out, err = run(capsys, "simulate", doc)
    assert code == 1 and out == ""
    assert "point[0][1]: expected a finite number" in err


@pytest.mark.parametrize("bad", [".nan", ".inf", "-.inf"])
def test_classify_rejects_non_finite_numbers(capsys, tmp_path, bad):
    doc = write_doc(tmp_path, f"matrix: [[0.0, -1.0], [1.0, {bad}]]\n")
    code, out, err = run(capsys, "classify", doc)
    assert code == 1 and out == ""
    assert "matrix[1][1]: expected a finite number" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command,text,path",
    [
        ("classify", "matrix: [[0.0, [1.0, 2.0]], [1.0, 0.0]]\n", "matrix[0][1]"),
        ("classify", "mode: exact\nmatrix: [[0, [1, 2]], [1, 0]]\n", "matrix[0][1]"),
        ("equiv", "left: {matrix: [[1]]}\nright: {matrix: [[[0, 1]]]}\n",
         "right.matrix[0][0]"),
        ("invariants", "matrix: [[0.0, -1.0], [[1.0, 0.5], 0.0]]\n", "matrix[1][0]"),
        ("simulate", "matrix: [[0.0, [1.0, 0.0]], [-1.0, 0.0]]\npoint: [1.0, 0.0]\n",
         "matrix[0][1]"),
    ],
    ids=["classify-float", "classify-exact", "equiv", "invariants", "simulate"],
)
def test_complex_matrix_entry_is_refused(capsys, tmp_path, command, text, path):
    # matrix entries are real; [re, im] pairs are for points and heads only
    code, out, err = run(capsys, command, write_doc(tmp_path, text))
    assert code == 1 and out == ""
    assert err == f"flowclass: error: {path}: expected a number, got list\n"


HUGE = 10**400


@pytest.mark.parametrize(
    "command,text,path",
    [
        ("classify", f"matrix: [[1.0, {HUGE}], [0.0, 1.0]]\n", "matrix[0][1]"),
        ("equiv", f"left: {{matrix: [[1.0]]}}\nright: {{matrix: [[{HUGE}, 0.0], [0.0, 1.0]]}}\n",
         "right.matrix[0][0]"),
        ("invariants", f"frequencies: [1.0, {HUGE}]\n", "frequencies[1]"),
        ("simulate", f"matrix: [[0, -1], [1, 0]]\npoint: [1, {HUGE}]\n", "point[1]"),
        ("simulate", f"matrix: [[0, -1], [1, {HUGE}]]\npoint: [1, 0]\n", "matrix[1][1]"),
        ("simulate", f"matrix: [[0.0]]\npoint: [1.0]\ngrowth_cap: {HUGE}\n", "growth_cap"),
        ("witness", f"head: [{HUGE}, 0]\nbeta: 1\n", "head[0]"),
    ],
    ids=["classify", "equiv", "invariants", "simulate-point", "simulate-matrix",
         "simulate-growth-cap", "witness"],
)
def test_number_beyond_float_range_is_refused(capsys, tmp_path, command, text, path):
    # float() of such an integer used to escape as an OverflowError traceback
    code, out, err = run(capsys, command, write_doc(tmp_path, text))
    assert code == 1 and out == ""
    assert err == f"flowclass: error: {path}: number is beyond the float range\n"


def test_center_frequencies_of_extreme_ratio_are_classified(capsys, tmp_path):
    # the ratio 1e-5 / 1e304 underflows to a subnormal whose continued
    # fraction overflowed, and classify exited 1 with a ValueError traceback
    doc = write_doc(tmp_path, "spectrum:\n" + "".join(
        f"  - {{re: 0.0, im: {im}, size: 1}}\n"
        for im in ("1.0e-5", "-1.0e-5", "1.0e+304", "-1.0e+304")))
    code, out, err = run(capsys, "classify", doc, "--format", "json")
    assert (code, err) == (0, "")
    bounded = json.loads(out)["payload"]["bounded"]
    assert (bounded["classes"], bounded["unclassed"]) == ([], [1e-05, 1e+304])


@pytest.mark.parametrize("matrix, norm", [
    ("[[1.0e+308, -1.0e+308], [1.0e+308, 1.0e+308]]", "1.41e+308"),
    ("[[1.0e+308, 1.0e+308], [1.0e+308, 1.0e+308]]", "inf"),
], ids=["pair", "real"])
def test_classify_refuses_root_distances_beyond_the_float_range(
        capsys, tmp_path, matrix, norm):
    # the pair was classified (exit 0) after an overflow warning, and the
    # real matrix was refused as within rounding of the imaginary axis
    code, out, err = run(capsys, "classify", write_doc(tmp_path, f"matrix: {matrix}\n"))
    assert code == 2 and out == ""
    assert err == ("flowclass: diagnostic: the root distances or the norm of A overflow "
                   f"the float range (||A||_2 = {norm})\n")


def test_exact_fallback_beyond_float_range_is_a_refusal(capsys, tmp_path):
    # the irrational spectrum cannot be analysed exactly, nor converted to float
    for text, path in ((f"matrix: [[0, {2 * HUGE}], [1, 0]]\n", "matrix[0][1]"),
                       (f"left: {{matrix: [[0, {2 * HUGE}], [1, 0]]}}\n"
                        "right: {matrix: [[0, -1], [1, 0]]}\n", "left.matrix[0][1]")):
        code, out, err = run(capsys, "classify", write_doc(tmp_path, text))
        assert code == 2 and out == ""
        assert err.startswith("flowclass: diagnostic: characteristic polynomial")
        assert err.endswith(f"; float analysis is impossible: {path} is beyond the float range\n")


def test_exact_fallback_beyond_float_range_names_only_the_remedy_that_works(capsys, tmp_path):
    # the 401-digit coefficient is cut to its ends, and rerunning in float
    # mode is not advised for a matrix that has no float form
    for text, path in ((f"matrix: [[0, {2 * HUGE}], [1, 0]]\n", "matrix[0][1]"),
                       (f"left: {{matrix: [[0, {2 * HUGE}], [1, 0]]}}\n"
                        "right: {matrix: [[0, -1], [1, 0]]}\n", "left.matrix[0][1]")):
        code, out, err = run(capsys, "classify", write_doc(tmp_path, text))
        assert (code, out) == (2, "")
        assert err == (
            "flowclass: diagnostic: characteristic polynomial has the irreducible "
            "factor t^2 + (0)t + (-200000...000000 (401 digits)) whose roots have "
            "irrational parts; supply spectrum blocks directly; float analysis is "
            f"impossible: {path} is beyond the float range\n")


def test_simulate_refuses_a_grid_over_the_point_budget(capsys, monkeypatch):
    # refused before the walk starts, so nothing is allocated even if
    # the check is missing
    def no_walk(*args, **kwargs):
        raise AssertionError("the grid was walked")

    monkeypatch.setattr(flowsim, "_walk", no_walk)
    code, out, err = run(
        capsys, "simulate", str(GOLDEN / "simulate_quarter.yaml"),
        "--horizon", "1e13", "--grid-step", "0.001",
    )
    assert code == 2 and out == ""
    assert err == (
        "flowclass: diagnostic: the time grid up to 1e+13 in steps of 0.001 has "
        "10,000,000,000,000,001 points, over the budget of 1,000,000; use a "
        "shorter horizon or a larger step\n"
    )


@pytest.mark.parametrize(
    "matrix,argv,message",
    [
        # |A|_1 overflows, so the squaring count of exp(A) cannot be read
        (
            "[[1.0e+308, 1.0e+308], [1.0e+308, 1.0e+308]]",
            ["--grid-step", "1.0"],
            "|t*A|_1 overflows at t=1, so exp(t*A) cannot be scaled",
        ),
        # nilpotent, and |step*A|_1 scales by 2^-1024, but the squaring
        # overflows; read as 2^1024 = inf, that scale once gave exp = I
        # and passed the document on to a crash in min_period
        (
            "[[1.0e+308, -1.0e+308], [1.0e+308, -1.0e+308]]",
            [],
            "exp(step*A) overflows at grid step 0.25; use a smaller step",
        ),
    ],
    ids=["norm", "squaring"],
)
def test_simulate_refuses_a_generator_beyond_the_float_range(
    capsys, tmp_path, matrix, argv, message
):
    doc = write_doc(tmp_path, f"matrix: {matrix}\npoint: [1.0, 0.0]\n")
    code, out, err = run(capsys, "simulate", doc, *argv)
    assert code == 2 and out == ""
    assert err == f"flowclass: diagnostic: {message}\n"


@pytest.mark.parametrize("flag,value", [("--horizon", "inf"), ("--grid-step", "nan")])
def test_simulate_rejects_non_finite_window(capsys, flag, value):
    code, out, err = run(
        capsys, "simulate", str(GOLDEN / "simulate_quarter.yaml"), flag, value
    )
    assert code == 1 and out == ""
    assert "horizon and step must be positive and finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "command,name",
    [
        ("classify", "classify_saddle_rotor"),
        ("equiv", "conjugate_pair"),
        ("invariants", "invariants_freqs"),
        ("simulate", "simulate_quarter"),
        ("witness", "witness_basic"),
    ],
)
def test_non_finite_tol_is_refused(capsys, command, name, value):
    code, out, err = run(capsys, command, str(GOLDEN / f"{name}.yaml"), f"--tol={value}")
    assert code == 1 and out == ""
    assert err == f"flowclass: error: --tol must be a finite number, got {value}\n"


def test_simulate_refuses_overflowing_grid_step(capsys, tmp_path):
    doc = write_doc(
        tmp_path,
        "mode: float\n"
        "spectrum:\n"
        "  - {re: 3000.0, im: 0.0, size: 1}\n"
        "  - {re: 0.0, im: 1.0, size: 1}\n"
        "  - {re: 0.0, im: -1.0, size: 1}\n"
        "point: [0.0, 1.0, 0.0]\n",
    )
    code, out, err = run(capsys, "simulate", doc)
    assert code == 2 and out == ""
    assert err.startswith("flowclass: diagnostic:")
    assert "grid step 0.25; use a smaller step" in err


def test_witness_flips_corner_sign(capsys):
    code, out, err = run(
        capsys, "witness", str(GOLDEN / "witness_basic.yaml"),
        "--format", "json",
    )
    assert code == 0 and err == ""
    data = json.loads(out)["payload"]
    assert data["m"] == 3 and data["r"] == 1
    assert data["x_lim"] == [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]
    assert data["y_lim"][1] == [-1.0, 0.0]
    corner = data["corner"]
    assert corner["index"] == 1
    assert abs(corner["extrapolated"][0] - 1.0) < 1e-9
    assert len(data["x_seq"]) == 12 == len(data["times"])
    report = parse_report(out)
    assert emit_json(report) + "\n" == out


def test_witness_orbit_collision_is_exit_2(capsys, tmp_path):
    doc = write_doc(tmp_path, "head: [-0.5, 0.0]\nbeta: 1.0\n")
    code, out, err = run(capsys, "witness", doc)
    assert code == 2 and out == ""
    assert err.startswith("flowclass: diagnostic:")
    assert "orbit-equal" in err


def test_witness_head_lost_to_rounding_is_exit_2(capsys, tmp_path):
    doc = write_doc(tmp_path, "head: [1.0, 2.0]\nbeta: 1.0e-150\n")
    code, out, err = run(capsys, "witness", doc)
    assert code == 2 and out == ""
    assert err.startswith("flowclass: diagnostic:")
    assert "rounding noise beyond 1e-06 (1 + |head|)" in err


# ---- invariants variants ---------------------------------------------------


def test_invariants_from_matrix_document(capsys, tmp_path):
    doc = write_doc(
        tmp_path,
        "matrix:\n  - [0, -1, 0]\n  - [1, 0, 0]\n  - [0, 0, 0]\n",
    )
    code, out, _ = run(capsys, "invariants", doc, "--format", "json")
    assert code == 0
    data = json.loads(out)["payload"]
    assert data["mode"] == "exact"
    assert data["bounded"]["dim_fixed"] == 1
    assert data["bounded"]["dim_bounded"] == 2
    assert data["bounded"]["unclassed"] == ["1"]


def test_invariants_qmax_controls_merging(capsys, tmp_path):
    doc = write_doc(tmp_path, "frequencies: [63.0, 64.0]\n")
    code, out, _ = run(capsys, "invariants", doc, "--format", "json")
    assert code == 0
    assert json.loads(out)["payload"]["classes"][0]["multipliers"] == [63, 64]

    code, out, _ = run(capsys, "invariants", doc, "--format", "json",
                       "--qmax", "32")
    assert code == 0
    data = json.loads(out)["payload"]
    assert data["classes"] == [] and len(data["unclassed"]) == 2


def test_float_class_reports_deviation(capsys, tmp_path):
    doc = write_doc(tmp_path, "frequencies: [0.74, 1.11, 1.85]\n")
    code, out, _ = run(capsys, "invariants", doc, "--format", "json")
    assert code == 0
    cls = json.loads(out)["payload"]["classes"][0]
    assert cls["multipliers"] == [2, 3, 5]
    assert 0.0 <= cls["max_rel_dev"] < 1e-12


# ---- modes and fallback ------------------------------------------------------


def test_irrational_spectrum_falls_back_to_float(capsys, tmp_path):
    doc = write_doc(tmp_path, "matrix: [[0, 2], [1, 0]]\n")
    code, out, err = run(capsys, "classify", doc, "--format", "json")
    assert code == 0
    assert "flowclass: note:" in err and "float analysis used" in err
    data = json.loads(out)["payload"]
    assert data["mode"] == "float"
    assert data["split"] == {"expanding": 1, "contracting": 1, "center": 0}


def test_exact_flag_refuses_irrational_spectrum(capsys, tmp_path):
    doc = write_doc(tmp_path, "matrix: [[0, 2], [1, 0]]\n")
    code, out, err = run(capsys, "classify", doc, "--exact")
    assert code == 2 and out == ""
    assert err.startswith("flowclass: diagnostic:")


def test_exact_eigenvalue_beyond_float_range_is_reported(capsys, tmp_path):
    doc = write_doc(tmp_path, f"mode: exact\nmatrix: [[{10**400}, 1], [0, 2]]\n")
    code, out, err = run(capsys, "classify", doc, "--format", "json")
    assert code == 0 and err == ""
    data = json.loads(out)["payload"]
    assert data["mode"] == "exact"
    assert [(b["re"], b["im"], b["size"]) for b in data["blocks"]] == [
        ("2", "0", 1), (str(10**400), "0", 1)]
    assert data["split"] == {"expanding": 2, "contracting": 0, "center": 0}


def test_tol_steers_float_analysis_only(capsys, tmp_path):
    # an exact document ignores --tol; the irrational one falls back to
    # float analysis, which takes it
    for matrix, mode in (("[[0, -1], [1, 0]]", "exact"), ("[[0, 2], [1, 0]]", "float")):
        doc = write_doc(tmp_path, f"matrix: {matrix}\n")
        code, out, _ = run(capsys, "classify", doc, "--tol", "1e-6", "--format", "json")
        assert code == 0
        assert json.loads(out)["payload"]["mode"] == mode
        assert out == run(capsys, "classify", doc, "--format", "json")[1]


def test_options_do_not_carry_over_between_calls(capsys, tmp_path):
    doc = write_doc(tmp_path, "matrix: [[0, 2], [1, 0]]\n")
    assert run(capsys, "classify", doc, "--exact")[0] == 2
    code, out, _ = run(capsys, "classify", doc)
    assert code == 0 and out.startswith("mode: float")


def _simple_float_doc(rng, n):
    """Float document of a matrix with eigenvalues 0, +-i beta p for
    p = 1, 2, 3 and simple hyperbolic values, all at least 0.2 apart; with
    the expected (expanding, contracting) dimensions."""
    beta = rng.uniform(0.5, 1.5)
    blocks = [np.zeros((1, 1))] + [rotation(0, beta * p) for p in (1, 2, 3)]
    taken = [0j] + [complex(0, s * beta * p) for p in (1, 2, 3) for s in (1, -1)]
    hyperbolic, dims = hyperbolic_blocks(rng, taken, n - 7)
    rows = "".join(
        "  - [" + ", ".join(format(float(x), ".17e") for x in row) + "]\n"
        for row in haar_similar(rng, blocks + hyperbolic)
    )
    return "matrix:\n" + rows, dims


def test_valid_float_documents_exit_0(capsys, tmp_path):
    # distinct simple eigenvalues at n = 16: every document is certified,
    # none ends in an input error or a refusal
    rng = np.random.default_rng(16)
    for i in range(60):
        text, (plus, minus) = _simple_float_doc(rng, 16)
        code, out, err = run(capsys, "classify", write_doc(tmp_path, text), "--format", "json")
        assert code == 0, (i, err)
        sig = json.loads(out)["payload"]["signature"]
        assert (sig["expanding"], sig["contracting"]) == (plus, minus), i
        assert [(b["size"], b["count"]) for b in sig["center"]] == [(1, 1)] * 7, i


def test_loader_matches_pyyaml_safe_load(tmp_path):
    texts = [p.read_text() for p in sorted(GOLDEN.glob("*.yaml"))]
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    texts += re.findall(r"```yaml\n(.*?)```", readme, re.S)
    rng = np.random.default_rng(5)
    texts += [_simple_float_doc(rng, int(rng.integers(7, 13)))[0] for _ in range(100)]
    for text in texts:
        assert _load_document(write_doc(tmp_path, text)) == yaml.safe_load(text), text


# ---- the loader against PyYAML's SafeLoader ------------------------------------

# plain scalars of every YAML 1.1 kind: ints with _, 0x, 0o or a leading 0,
# 0b and base 60; floats the narrow patterns read and those they leave to
# PyYAML; .inf, .nan, nulls, booleans, timestamps, merge and value keys
_YAML_WORDS = [
    "0", "-0", "+0", "7", "-12", "+12", "1_000", "0x1F", "-0x_a", "0o17", "017", "-017",
    "08", "0b101", "+0b1_0", "1:30", "-1:30:00", "190:20:30.15", "1.5", "-1.5", "+1.5",
    "1.", "-0.0", ".5", "-.5", "+.5", "1.5e+3", "1.5E-3", "1.5e3", "1e3", "1e+3",
    "1_000.5", "1.0_1", "6.8523015e+5", ".inf", "-.Inf", "+.INF", ".nan", ".NaN", "~",
    "null", "Null", "NULL", "yes", "No", "ON", "off", "y", "n", "true", "False",
    "2001-12-14", "2001-12-14t21:59:43.10-05:00", "2001-12-14 21:59:43.10 -5", "<<",
    "=", "abc", "a b", "1 2", "0.5.5", "1/2", "-", "'1.5'", '"2"', "'yes'", '"~"',
    "'-.5'", '"a\\tb"', "''", "!!float 1", "!!str 1.5", "!!int '3'", "&a 1.5", "*a",
]
_PLAIN_FLOATS = st.from_regex(r"[-+]?[0-9]{1,20}\.[0-9]{0,20}([eE][-+][0-9]{1,3})?", fullmatch=True)
_PLAIN_INTS = st.from_regex(r"[-+]?(0|[1-9][0-9]{0,30})", fullmatch=True)
_YAML_SCALARS = st.one_of(st.sampled_from(_YAML_WORDS), _PLAIN_FLOATS, _PLAIN_INTS,
                          st.floats().map(repr))
_YAML_TREES = st.recursive(
    _YAML_SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(st.tuples(_YAML_SCALARS, inner), max_size=4)),
    max_leaves=12,
)


def _flow(tree) -> str:
    if isinstance(tree, str):
        return tree
    if all(isinstance(item, tuple) for item in tree) and tree:
        return "{" + ", ".join(f"{k}: {_flow(v)}" for k, v in tree) + "}"
    return "[" + ", ".join(_flow(item) for item in tree) + "]"


def _block(tree, pad: str = "") -> str:
    """tree in block style; its scalars then stand in block context."""
    if isinstance(tree, str) or not tree:
        return " " + _flow(tree) + "\n"
    if all(isinstance(item, tuple) for item in tree):
        return "\n" + "".join(f"{pad}{k}:{_block(v, pad + '  ')}" for k, v in tree)
    return "\n" + "".join(f"{pad}-{_block(v, pad + '  ')}" for v in tree)


def _outcome(load, text):
    try:
        return repr(load(text))
    except Exception as exc:  # the loaders must fail alike, whatever the error
        return type(exc).__name__, str(exc)


@contextlib.contextmanager
def _yaml_route(route):
    """yaml.load's loader on one route; "pure" hides libyaml's loaders, as
    on a PyYAML built without them."""
    with pytest.MonkeyPatch.context() as mp:
        if route == "pure":
            mp.delattr(yaml, "CBaseLoader")
            mp.delattr(yaml, "CSafeLoader")
        yield getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def test_loader_without_libyaml_reads_base_loader_events(monkeypatch):
    # the pure parser gives plain scalars the style None, libyaml ''
    events = []

    class BaseLoader(yaml.BaseLoader):
        def get_event(self):
            events.append(super().get_event())
            return events[-1]

    monkeypatch.delattr(yaml, "CBaseLoader")
    monkeypatch.delattr(yaml, "CSafeLoader")
    monkeypatch.setattr(yaml, "BaseLoader", BaseLoader)
    assert repr(_parsed("a: [1.5, -2, '3', x]\n")) == "{'a': [1.5, -2, '3', 'x']}"
    scalars = [(e.value, e.style) for e in events if type(e) is yaml.ScalarEvent]
    assert scalars == [("a", None), ("1.5", None), ("-2", None), ("3", "'"), ("x", None)]
    assert type(events[-1]) is yaml.StreamEndEvent


@pytest.mark.parametrize("route", ["libyaml", "pure"])
@settings(max_examples=200, deadline=None)
@given(tree=_YAML_TREES, style=st.sampled_from([_flow, _block]))
def test_loader_matches_safe_loader_by_repr(route, tree, style):
    # the walk of the composed nodes builds what SafeLoader builds, value
    # and type: or both fail with the same error
    text = "doc:" + _block(tree, "  ") if style is _block else _flow(tree) + "\n"
    with _yaml_route(route) as safe:
        assert _outcome(_parsed, text) == _outcome(lambda t: yaml.load(t, Loader=safe), text)


def test_plain_patterns_are_yaml_floats_and_ints():
    # the narrow patterns are strict subsets of YAML 1.1's, which resolve
    # them to floats and ints of the same value
    words = _YAML_WORDS + ["1." + "0" * 30, "00.5", "-0.", "9" * 40 + ".9e-300"]
    floats = [w for w in words if _PLAIN_FLOAT.fullmatch(w)]
    ints = [w for w in words if _PLAIN_INT.fullmatch(w)]
    assert len(floats) == 13 and len(ints) == 6
    for word in floats:
        loaded = yaml.load(word, Loader=yaml.CSafeLoader)
        assert type(loaded) is float and repr(loaded) == repr(float(word)), word
    for word in ints:
        loaded = yaml.load(word, Loader=yaml.CSafeLoader)
        assert type(loaded) is int and loaded == int(word), word
    assert not _PLAIN_FLOAT.fullmatch("-.5") and not _PLAIN_INT.fullmatch("017")


def _refuse(*args, **kwargs):
    raise AssertionError("the walk left the event stream")


@pytest.mark.parametrize("seed", [1, 2, 5, 77, 4242])
def test_loader_matches_safe_loader_on_workload_documents(monkeypatch, tmp_path, seed):
    # every workload document is read by the walk alone: neither
    # yaml.load nor the resolver is called
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    from workloads import FloatClassify

    ops = FloatClassify(str(tmp_path)).inputs(seed)
    want = [repr(yaml.load(Path(op.data["path"]).read_text(), Loader=yaml.CSafeLoader))
            for op in ops]
    monkeypatch.setattr(yaml, "load", _refuse)
    monkeypatch.setattr(cli._RESOLVER, "resolve", _refuse)
    assert [repr(_load_document(op.data["path"])) for op in ops] == want


@pytest.mark.parametrize("route", ["libyaml", "pure"])
@pytest.mark.parametrize("text,error", [
    (f"a: [{'1' * (sys.get_int_max_str_digits() + 1)}]\nb: [\n", "ParserError"),
    ("a: yes\n---\nb: 1\n", "ComposerError"),
    ("matrix: [[1.5, 2.5, *a]]\n", "ComposerError"),
    ("a: [1.5\n\n  2.5, 3.5]\n", None),
], ids=["long-int-then-syntax", "unplain-then-second-document", "alias-after-run",
        "folded-run"])
def test_loader_fails_as_yaml_load_does(route, text, error):
    # the walk meets each first fault before the parser meets the one
    # yaml.load reports, and a plain scalar folded over lines is no float
    with _yaml_route(route) as safe:
        got = _outcome(_parsed, text)
        assert got == _outcome(lambda t: yaml.load(t, Loader=safe), text)
    assert (got[0] if error else type(got)) == (error or str)


@pytest.mark.parametrize("route", ["libyaml", "pure"])
@pytest.mark.parametrize("depth", [500, 5000])
def test_deeply_nested_matrix_is_an_input_error(capsys, tmp_path, route, depth):
    # the walk keeps open collections on a stack, not on Python's
    doc = write_doc(tmp_path, "matrix: " + "[" * depth + "]" * depth + "\n")
    with _yaml_route(route):
        got = run(capsys, "classify", doc)
    assert got == (1, "", "flowclass: error: matrix[0][0]: expected a number, got list\n")


_UNHASHABLE = {
    "libyaml": ('while constructing a mapping\n  in "<unicode string>", line 1, column 1\n'
                'found unhashable key\n  in "<unicode string>", line 1, column 3\n'),
    "pure": ('while constructing a mapping\n  in "<unicode string>", line 1, column 1:\n'
             '    ? [1, 2]\n    ^\nfound unhashable key\n'
             '  in "<unicode string>", line 1, column 3:\n    ? [1, 2]\n      ^\n'),
}
_UNDEFINED_ALIAS = {
    "libyaml": 'found undefined alias\n  in "<unicode string>", line 1, column 16\n',
    "pure": ("found undefined alias 'm'\n  in \"<unicode string>\", line 1, column 16:\n"
             "    matrix: [[1.5, *m]]\n                   ^\n"),
}
# classify on documents the walk must leave to PyYAML, or read as PyYAML
# does: exit code, sha256 of stdout and stderr ({path} for the document),
# as recorded when every document went through yaml.load
_HOSTILE_DOCUMENTS = [
    ("matrix: &m [*m]\n", 1, "",
     "flowclass: error: matrix[0][0]: expected a number, got list\n"),
    ("? [1, 2]\n: 3\nmatrix: [[1.5]]\n", 1, "",
     "flowclass: error: {path}: not valid YAML: {unhashable}"),
    ("base: &b {mode: float}\nmatrix: [[1.5]]\n<<: *b\n", 1, "",
     "flowclass: error: document: unknown keys base (allowed: matrix, mode, n, spectrum)\n"),
    ("matrix: [[!!float 1, 0.5], [0.25, 1.5]]\n", 0,
     "245cd808d5e42b06739b2225050123261f9e0b5fc530cb7b25f9761903fb033f", ""),
    ("matrix: [[1_000.5, 0.5], [0.25, 1.5]]\n", 0,
     "658c1aca45463f01df0069db0d60ef04fa63f1647619ea6d6d76a51c5bb9b497", ""),
    ("matrix: [[-.5, 0.5], [0.25, 1.5]]\n", 1, "",
     "flowclass: error: matrix[0][0]: cannot read '-.5' as a number; YAML reads a float "
     "only with a decimal point and a signed exponent, so write -0.5, or a ratio in "
     "exact mode\n"),
    ("matrix: [[1.5, *m]]\n", 1, "",
     "flowclass: error: {path}: not valid YAML: {undefined_alias}"),
]


@pytest.mark.parametrize("route", ["libyaml", "pure"])
@pytest.mark.parametrize("text,code,digest,err", _HOSTILE_DOCUMENTS)
def test_hostile_documents_keep_their_reports(capsys, tmp_path, route, text, code, digest, err):
    doc = write_doc(tmp_path, text)
    with _yaml_route(route):
        got = run(capsys, "classify", doc, "--format", "json")
    want_err = err.format(path=doc, unhashable=_UNHASHABLE[route],
                          undefined_alias=_UNDEFINED_ALIAS[route])
    assert got[0] == code and got[2] == want_err
    assert (hashlib.sha256(got[1].encode()).hexdigest() if digest else got[1]) == digest


_DIGITS = sys.get_int_max_str_digits() + 700
_TOO_LONG = (f"Exceeds the limit ({sys.get_int_max_str_digits()} digits) for integer string "
             f"conversion: value has {_DIGITS} digits")


@pytest.mark.parametrize("command,text,err", [
    ("classify", f"matrix: [[{'1' * _DIGITS}]]\n", "{path}: cannot read a scalar: " + _TOO_LONG),
    ("classify", f"matrix: &m [[{'1' * _DIGITS}]]\n", "{path}: cannot read a scalar: " + _TOO_LONG),
    ("classify", f"matrix: [['1/{'7' * _DIGITS}']]\n",
     f"matrix[0][0]: cannot read '1/777777...777777 ({_DIGITS} digits)': " + _TOO_LONG),
    ("invariants", f"frequencies: [{'1' * _DIGITS}]\n",
     "{path}: cannot read a scalar: " + _TOO_LONG),
    ("classify", "matrix: [['1/0']]\n", "matrix[0][0]: cannot read '1/0' as a number"),
    ("classify", "matrix: [[1]]\nwhen: 2020-02-30\n",
     "{path}: cannot read a scalar: day is out of range for month"),
], ids=["walk", "yaml-load", "ratio", "frequency", "zero-denominator", "date"])
def test_unreadable_scalars_are_input_errors(capsys, tmp_path, command, text, err):
    # int() beyond its digit limit, a zero denominator and a date out of
    # range each once escaped as a traceback; the error names the file or
    # the path and does not print the long literal
    doc = write_doc(tmp_path, text)
    code, out, got = run(capsys, command, doc)
    assert (code, out) == (1, "")
    assert got == f"flowclass: error: {err.format(path=doc)}\n"
    assert "Traceback" not in got and "set_int_max_str_digits" not in got
    assert not re.search(r"\d{41}", got)


@pytest.mark.parametrize("rows,err", [
    ("[[1.5, true], [0.0, 1.0]]", "matrix[0][1]: expected a number, got a boolean"),
    ("[[1, 0.5], [0, 1]]\nmode: exact",
     "matrix[0][1]: float literal 0.5 in an exact document; write it as a ratio like 1/2"),
    ("[[1, 0.5], ['1/2', 1]]", "document mixes float literal 0.5 at matrix[0][1] with "
     "ratio literal '1/2' at matrix[1][0]; pick one flavor"),
    ("[[1.0, 0.5], [0.0]]", "matrix must be square and nonempty"),
    ("[[1.0, 0.5]]", "matrix must be square and nonempty"),
])
def test_matrix_errors_name_the_first_offending_entry(capsys, tmp_path, rows, err):
    # a matrix of finite floats alone is read as one array; a boolean, an
    # int or a ratio among them takes the scan that names its path
    code, out, got = run(capsys, "classify", write_doc(tmp_path, f"matrix: {rows}\n"))
    assert (code, out, got) == (1, "", f"flowclass: error: {err}\n")


def test_ints_in_a_float_matrix_read_as_their_floats(capsys, tmp_path):
    mixed = run(capsys, "classify", write_doc(tmp_path, "matrix: [[1, 0.5], [0, 1.5]]\n"))
    floats = run(capsys, "classify", write_doc(tmp_path, "matrix: [[1.0, 0.5], [0.0, 1.5]]\n"))
    assert mixed == floats and mixed[0] == 0


@pytest.mark.parametrize("text,spelled", [
    ("1e-3", "0.001"), ("2E5", "200000.0"), ("1.0e300", "1.0e+300"), ("-.5", "-0.5"),
    ("5e-324", "5.0e-324"),
])
def test_float_that_yaml_reads_as_text_names_its_spelling(capsys, tmp_path, text, spelled):
    # YAML 1.1 reads a float only with a decimal point and a signed
    # exponent; the spelling offered reads back as the same float
    doc = write_doc(tmp_path, f"matrix: [[0.0, {text}], [1.0, 0.0]]\n")
    code, out, err = run(capsys, "classify", doc)
    assert code == 1 and out == ""
    assert err == (
        f"flowclass: error: matrix[0][1]: cannot read {text!r} as a number; YAML reads "
        f"a float only with a decimal point and a signed exponent, so write {spelled}, "
        "or a ratio in exact mode\n"
    )
    assert yaml.safe_load(spelled) == float(text)
    code, _, err = run(capsys, "classify", write_doc(tmp_path, f"matrix: [[{spelled}]]\n"))
    assert code == 0 and err == ""


@pytest.mark.parametrize("text", ["abc", "1/0.5", "nan", "1e999", "0x10"])
def test_text_that_is_no_finite_float_keeps_the_plain_message(capsys, tmp_path, text):
    doc = write_doc(tmp_path, f"matrix: [['{text}']]\n")
    code, _, err = run(capsys, "classify", doc)
    assert code == 1
    assert err == f"flowclass: error: matrix[0][0]: cannot read {text!r} as a number\n"


def test_exact_flag_conflicts_with_float_document(capsys, tmp_path):
    doc = write_doc(tmp_path, "mode: float\nmatrix: [[0.0]]\n")
    code, _, err = run(capsys, "classify", doc, "--exact")
    assert code == 1 and "--exact" in err


def test_mixed_literals_name_both_tokens(capsys, tmp_path):
    doc = write_doc(tmp_path, "frequencies: [0.5, \"1/2\"]\n")
    code, _, err = run(capsys, "invariants", doc)
    assert code == 1
    assert "0.5" in err and "1/2" in err and "frequencies[" in err


def test_declared_exact_rejects_float_literal(capsys, tmp_path):
    doc = write_doc(tmp_path, "mode: exact\nmatrix: [[0.5]]\n")
    code, _, err = run(capsys, "classify", doc)
    assert code == 1 and "ratio like 1/2" in err


# ---- usage errors -------------------------------------------------------------


def test_unknown_key_is_rejected(capsys, tmp_path):
    doc = write_doc(tmp_path, "matrix: [[0]]\nbogus: 1\n")
    code, _, err = run(capsys, "classify", doc)
    assert code == 1 and "unknown keys bogus" in err


@pytest.mark.parametrize("command,text,err", [
    ("classify", "matrix: [[1.5]]\n1: a\n",
     "document: unknown keys 1 (allowed: matrix, mode, n, spectrum)"),
    ("classify", "matrix: [[1.5]]\n1: a\nx: b\n",
     "document: unknown keys 1, x (allowed: matrix, mode, n, spectrum)"),
    ("equiv", "left: {matrix: [[1.5]], 2.5: x}\nright: {matrix: [[1.5]]}\n",
     "left: unknown keys 2.5 (allowed: matrix, mode, n, spectrum)"),
    ("invariants", "frequencies: [0.5, 1.5]\n1: a\nno: b\n",
     "document: unknown keys 1, False (allowed: dim_fixed, frequencies, mode)"),
])
def test_unknown_keys_that_are_not_text_are_named(capsys, tmp_path, command, text, err):
    code, out, got = run(capsys, command, write_doc(tmp_path, text))
    assert (code, out, got) == (1, "", f"flowclass: error: {err}\n")


def test_top_level_unknown_key_names_the_document(capsys):
    code, _, err = run(capsys, "classify", str(GOLDEN / "simulate_quarter.yaml"))
    assert code == 1
    assert err.startswith("flowclass: error: document: unknown keys point")


def test_matrix_and_spectrum_together_rejected(capsys, tmp_path):
    doc = write_doc(
        tmp_path, "matrix: [[0]]\nspectrum: [{re: 0, size: 1}]\n"
    )
    code, _, err = run(capsys, "classify", doc)
    assert code == 1 and "exactly one" in err


def test_missing_file_and_bad_yaml(capsys, tmp_path):
    code, _, err = run(capsys, "classify", str(tmp_path / "absent.yaml"))
    assert code == 1 and "cannot read" in err

    doc = write_doc(tmp_path, "matrix: [[0,")
    code, _, err = run(capsys, "classify", doc)
    assert code == 1 and "not valid YAML" in err


def test_non_mapping_document(capsys, tmp_path):
    doc = write_doc(tmp_path, "- 1\n- 2\n")
    code, _, err = run(capsys, "classify", doc)
    assert code == 1 and "must be a mapping" in err


def test_unknown_command_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "x.yaml"])
    assert exc.value.code == 1


def test_stdin_document(capsys, monkeypatch):
    monkeypatch.setattr(
        sys, "stdin", io.StringIO("left:\n  matrix: [[0]]\nright:\n  matrix: [[0]]\n")
    )
    code, out, _ = run(capsys, "equiv", "-", "--format", "json")
    assert code == 0
    assert json.loads(out)["payload"]["verdict"] == "CONJUGATE"


# ---- the float_classify benchmark workload ------------------------------------------

# sha256 of the JSON reports of one round of the benchmark's float_classify
# workload, concatenated in round order, per seed; recorded from the reports
# of the Python-sorted clusters and the stdlib JSON encoder (numpy 2.4,
# OpenBLAS LAPACK), so a changed report fails here before the benchmark
# finds it
FLOAT_CLASSIFY_REPORTS = {
    1: "1477183f04ab846a3c259ae787d0711f1c65f659192afb7dc1cc0c4995359a35",
    2: "02f70f278b7bd8a45e6c799a1a18d04867fcccec27e41681a8d6a15cf0790a48",
    5: "fc37a14b54fb91dff566b761ae1144a5ace4e0f0b04b494ddfa3c779891ed473",
}


@pytest.mark.parametrize("seed", sorted(FLOAT_CLASSIFY_REPORTS))
def test_float_classify_workload_reports_are_unchanged(monkeypatch, tmp_path, seed):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    from workloads import FloatClassify

    workload = FloatClassify(str(tmp_path))
    texts = []
    for op in workload.inputs(seed):
        out = workload.run(flowclass, op)
        assert workload.check(op, out), (op.n, out[2])
        texts.append(out[1])
    digest = hashlib.sha256("".join(texts).encode()).hexdigest()
    assert digest == FLOAT_CLASSIFY_REPORTS[seed]


@pytest.mark.parametrize("seed", (1, 2, 5))
def test_float_classify_workload_roots_are_certified_simple(monkeypatch, tmp_path, seed):
    # every workload document has distinct simple eigenvalues, so each of
    # its roots is proven simple and no rank walk runs; a silent fall back
    # to the walks fails here, not only in the benchmark
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    from workloads import FloatClassify

    walked, proven = [], []

    def recorded_walks(arr, norm, lam, kmax, tol=None):
        walked.append(lam)
        return numkit.float_rank_sequence(arr, norm, lam, kmax, tol)

    def recorded_proofs(arr, scale, roots, vecs, certify=spectral._certified_simple):
        proven.append(certify(arr, scale, roots, vecs))
        return proven[-1]

    monkeypatch.setattr(spectral, "float_rank_sequence", recorded_walks)
    monkeypatch.setattr(spectral, "_certified_simple", recorded_proofs)
    workload = FloatClassify(str(tmp_path))
    ops = workload.inputs(seed)
    for op in ops:
        out = workload.run(flowclass, op)
        assert workload.check(op, out), (op.n, out[2])
    assert len(proven) == len(ops) and all(mask.all() for mask in proven)
    assert walked == []


# ---- report helpers ------------------------------------------------------------


def _abc_jsonable(x):
    """What a report may hold, by the isinstance chain: the JSON-native
    image of x, with a Fraction as its ratio string, a complex value as
    its [re, im] pair and a float that is not finite as None.  The
    payload builders are held to it: each payload is its own image."""
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, float):
        return float(x) if x == x and abs(x) != float("inf") else None
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, RationalComplex):
        return [str(x.re), str(x.im)]
    if isinstance(x, complex):
        return [_abc_jsonable(float(x.real)), _abc_jsonable(float(x.imag))]
    if isinstance(x, dict):
        return {str(k): _abc_jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_abc_jsonable(v) for v in x]
    if isinstance(x, np.generic):
        return _abc_jsonable(x.item())
    if isinstance(x, np.ndarray):
        return [_abc_jsonable(v) for v in x.tolist()]
    raise InputError(f"cannot serialize {type(x).__name__} into a report")


def _typed(x):
    """x with the type of every value in it, so that equal values of
    different types (1 and 1.0, True and 1) and NaN compare as told apart."""
    if isinstance(x, dict):
        return {k: _typed(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_typed(v) for v in x]
    return type(x), repr(x)


JSONABLE_VALUES = [
    None, True, False, 0, -3, 10**400, "text", "",
    0.5, -0.0, math.nan, math.inf, -math.inf, 1e-320,
    Fraction(7, 3), Fraction(-2), RationalComplex(Fraction(1, 2), Fraction(-1)),
    complex(1.0, -0.0), complex(math.nan, 2.0),
    np.float64(2.5), np.float64(math.inf), np.complex128(1 - 1j), np.int64(-4), np.bool_(True),
    np.float32(0.25), np.array([[1.0, 2.0], [3.0, math.nan]]), np.array([1 + 2j]),
    (1, 2.0, "3"), [], {}, {1: "a", 2.5: [Fraction(1, 2)], None: (np.int64(1),)},
    {"nested": [{"x": [np.float64(1.0), complex(0.0, 1.0)]}, ()]},
]


@pytest.mark.parametrize("value", JSONABLE_VALUES, ids=repr)
def test_jsonable_equals_the_isinstance_chain(value):
    # the chain's image is JSON-native: it is its own image, and a report
    # holding it reads back as written; a number the builders pass
    # through cli._number gets the same image there
    held = _abc_jsonable(value)
    assert _typed(_abc_jsonable(held)) == _typed(held)
    report = Report("t", {"v": held}, ())
    assert _typed(parse_report(emit_json(report)).payload["v"]) == _typed(held)
    if value is None or isinstance(value, (int, float, complex, Fraction, str)):
        assert _typed(cli._number(value)) == _typed(held)


def test_jsonable_refuses_what_the_isinstance_chain_refuses():
    # and a report that holds such a value cannot be written
    for bad in (object(), {1, 2}, b"bytes", [1.0, object()]):
        with pytest.raises(InputError, match="cannot serialize"):
            _abc_jsonable(bad)
        with pytest.raises(TypeError, match="not JSON serializable"):
            emit_json(Report("t", {"v": bad}, ()))


@pytest.mark.parametrize("command,text", [
    ("classify", "matrix: [[1/2, 1, 0, 0], [0, 1/2, 0, 0], [0, 0, 0, -3/7], [0, 0, 3/7, 0]]\n"),
    ("classify", "spectrum: [{re: 0.0, im: 1.25, size: 1}, {re: 0.0, im: -1.25, size: 1},\n"
                 "  {re: 0.0, im: 2.5, size: 1}, {re: 0.0, im: -2.5, size: 1}, {re: -1.0, size: 2}]\n"),
    ("equiv", "left: {matrix: [[0, -1], [1, 0]]}\nright: {matrix: [[0, -2], [1/2, 0]]}\n"),
    ("invariants", "frequencies: [0.5, 1.0, 1.5, 2.718281828]\ndim_fixed: 2\n"),
    ("invariants", "matrix: [[0, -1, 0], [1, 0, 0], [0, 0, 3/2]]\n"),
    ("simulate", "matrix: [[700.0, 0.0], [0.0, -1.0]]\npoint: [1.0, 1.0]\n"),
    ("witness", "head: [[1, 2], 0.5]\nbeta: 0.75\neven: true\ncount: 6\n"),
    *[(command, (GOLDEN / f"{name}.yaml").read_text()) for command, name in (
        ("equiv", "rotation_pair"), ("equiv", "conjugate_pair"),
        ("classify", "classify_saddle_rotor"), ("invariants", "invariants_freqs"),
        ("simulate", "simulate_quarter"), ("witness", "witness_basic"))],
], ids=lambda x: x if x in cli._COMMANDS else "")
def test_payload_builders_make_json_native_reports(monkeypatch, capsys, tmp_path,
                                                   command, text):
    # Fractions, [re, im] pairs and an overflowed probe's ratio (None)
    # included: no report is copied into JSON-native values on its way out
    reports = []
    emit = cli.emit_json
    monkeypatch.setattr(cli, "emit_json", lambda report: reports.append(report) or emit(report))
    code, out, _ = run(capsys, command, write_doc(tmp_path, text), "--format", "json")
    assert code == 0 and len(reports) == 1
    assert _typed(_abc_jsonable(reports[0].payload)) == _typed(reports[0].payload)
    assert parse_report(out) == reports[0]


def _dumps(report: Report) -> str:
    return json.dumps(
        {"command": report.command, "diagnostics": list(report.diagnostics),
         "payload": report.payload},
        sort_keys=True, indent=2, allow_nan=False,
    )


# every character class json escapes: ASCII controls, quotes and
# backslashes, non-ASCII and astral code points
_text = (
    st.text(st.characters(codec="utf-8", exclude_categories=("Cs",)), max_size=8)
    | st.sampled_from(["", "\x00\x1f\x7f", '"\\/', "\u00e9\u2028\U0001f600", "\ud800"])
)
_leaves = (
    st.none() | st.booleans() | _text
    | st.integers() | st.integers(min_value=-(10**60), max_value=10**60)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([1e300, -1e300, 5e-324, -2.2250738585072014e-308,
                       1.7976931348623157e308, -0.0])
)
_values = st.recursive(
    _leaves,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_text, inner, max_size=4),
    max_leaves=30,
)


@given(_text, st.lists(_text, max_size=3), _values)
def test_emit_json_equals_json_dumps(command, diagnostics, payload):
    report = Report(command, payload, tuple(diagnostics))
    assert emit_json(report) == _dumps(report)


def test_emit_json_equals_json_dumps_on_subclasses_and_keys():
    class Text(str):
        pass

    class Count(int):
        pass

    class Real(float):
        pass

    class Row(list):
        pass

    class Table(dict):
        pass

    payloads = [
        {1: "int key", 2.5: "float key", -0.0: [], 10**30: {}},
        {True: 1, False: 0},
        {None: "null key"},
        [Text("sub"), Count(3), Real(0.5), Row([1, Row()]), Table({"b": 1, "a": Table()})],
        {Text("k"): np.float64(0.1), "z": np.float64(-0.0)},
        [],
        {},
    ]
    for payload in payloads:
        report = Report("demo", payload)
        assert emit_json(report) == _dumps(report)


@pytest.mark.parametrize("payload", [
    {"x": math.nan}, [1.0, [math.inf]], {"y": (-math.inf,)}, {math.nan: 1},
    [np.float64(math.nan)], {"z": {"w": ["1/2", math.inf]}},
])
def test_emit_json_refuses_non_finite_floats_like_json_dumps(payload):
    report = Report("demo", payload)
    with pytest.raises(ValueError) as ours:
        emit_json(report)
    with pytest.raises(ValueError) as stdlib:
        _dumps(report)
    assert str(ours.value) == str(stdlib.value)


@pytest.mark.parametrize("payload", [
    {"x": Fraction(1, 2)}, [np.int64(1)], [np.bool_(True)], {"s": {1, 2}}, [object()],
    {(1, 2): "tuple key"}, {1: "a", "b": 2}, {None: 1, True: 2},
])
def test_emit_json_refuses_what_json_dumps_refuses(payload):
    report = Report("demo", payload)
    with pytest.raises(TypeError) as ours:
        emit_json(report)
    with pytest.raises(TypeError) as stdlib:
        _dumps(report)
    assert str(ours.value) == str(stdlib.value)




def test_parse_report_rejects_non_reports():
    with pytest.raises(InputError):
        parse_report("not json")
    with pytest.raises(InputError):
        parse_report('{"command": "x"}')


def test_emit_text_nested_layout():
    r = Report("demo", {"a": 1, "b": {"c": [1, 2]}, "d": [{"e": "1/2"}]})
    assert emit_text(r).splitlines() == [
        "a: 1",
        "b:",
        "  c: [1, 2]",
        "d:",
        "  -",
        "    e: 1/2",
    ]


def test_console_script_is_installed():
    exe = shutil.which("flowclass")
    assert exe, "console script not on PATH"
    out = subprocess.run(
        [exe, "equiv", str(GOLDEN / "conjugate_pair.yaml"), "--format", "json"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0
    assert json.loads(out.stdout)["payload"]["verdict"] == "CONJUGATE"
