"""Command-line behavior: golden reports, exit codes, document
validation, report round trips, and the exact-to-float fallback."""

import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from conftest import haar_similar, hyperbolic_blocks, rotation
from flowclass import flowsim
from flowclass.cli import Report, _load_document, emit_json, emit_text, main, parse_report
from flowclass.errors import InputError

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


# ---- report helpers ------------------------------------------------------------


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
