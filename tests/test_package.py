"""Package-level guards: the README's library example runs as written,
sympy stays unimported by importing flowclass, by exact spectra that
the candidate certificate closes (only its fallback loads sympy) and by
float classify and simulate runs, every exported name resolves, no
private helper is left unused, and the benchmark's tracer finds every
function it wraps."""

import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_example_runs(capsys):
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert capsys.readouterr().out.strip() == "center eigenvalue -1i vs -2i"


def _fresh_python(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True,
    )
    return out.stdout.strip().splitlines()[-1]


def test_import_does_not_load_sympy():
    assert _fresh_python("import sys, flowclass; print('sympy' in sys.modules)") == "False"


def test_certified_exact_spectra_do_not_load_sympy():
    golden = ROOT / "tests" / "golden" / "classify_saddle_rotor.yaml"
    code = (
        "import sys\n"
        "from fractions import Fraction as F\n"
        "from flowclass import Matrix, cli, spectrum_descriptor\n"
        "d = spectrum_descriptor(Matrix.exact([[F(1, 2), F(-9, 4)], [1, F(1, 2)]]))\n"
        "assert d.n == 2 and len(d.blocks) == 2, d\n"
        f"assert cli.main(['classify', {str(golden)!r}]) == 0\n"
        "print('sympy' in sys.modules)\n"
    )
    assert _fresh_python(code) == "False"


def test_float_classify_and_simulate_do_not_load_sympy(tmp_path):
    # both run in the float benchmark workloads, whose setup time a stray
    # sympy import would land in
    doc = tmp_path / "float.yaml"
    doc.write_text("mode: float\nmatrix:\n  - [0.5, -1.25, 0.0]\n"
                   "  - [1.25, 0.5, 0.0]\n  - [0.0, 0.0, -2.25]\n")
    simulate = ROOT / "tests" / "golden" / "simulate_quarter.yaml"
    for argv in (["classify", str(doc)], ["simulate", str(simulate)]):
        code = (
            "import sys\n"
            "from flowclass import cli\n"
            f"assert cli.main({argv!r}) == 0\n"
            "print('sympy' in sys.modules)\n"
        )
        assert _fresh_python(code) == "False", argv


MODULES = ("numkit", "spectral", "invariants", "flowsim", "cli")


def test_every_exported_name_resolves():
    for name in ("flowclass",) + tuple("flowclass." + m for m in MODULES):
        module = importlib.import_module(name)
        missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
        assert missing == [], name


def _private_definitions(tree: ast.Module) -> list:
    """Names of the module-level private functions, classes and constants."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def _loaded_names(tree: ast.Module) -> set:
    """Every name the module reads: loaded names, attributes and import aliases."""
    loaded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Attribute):
            loaded.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            loaded.update(alias.name for alias in node.names)
    return loaded


def test_no_private_helper_is_orphaned():
    # a deleted caller must not leave its private helper behind
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted((ROOT / "src" / "flowclass").glob("*.py"))}
    loaded = set().union(*map(_loaded_names, trees.values()))
    private = [(name, helper) for name, tree in trees.items()
               for helper in _private_definitions(tree)]
    assert len(private) > 100
    assert [f"{name}:{helper}" for name, helper in private if helper not in loaded] == []


def test_benchmark_tracer_wraps_every_target(monkeypatch):
    # bench/tracing.py patches flowclass by name; a renamed or deleted
    # target would break only the traced benchmark run without this
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "flowclass_bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    originals = []
    for _, home, attr in tracing.TARGETS:
        owner = importlib.import_module("flowclass." + home)
        if "." in attr:
            cls_name, meth = attr.split(".")
            originals.append(vars(getattr(owner, cls_name))[meth])
        else:
            originals.append(getattr(owner, attr))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = [orig for _, _, orig in tracer._undo]
        unpatched = [target for target, orig in zip(tracing.TARGETS, originals)
                     if not any(p is orig for p in patched)]
        assert unpatched == []
        undo = list(tracer._undo)
    finally:
        tracer.uninstall()
    for owner, key, orig in undo:
        assert vars(owner)[key] is orig
