"""The CI workflow names what exists: its test files and node ids, the
``perfbench/run.py`` flags it passes, and inline ``python -c`` programs
that compile.  A rename in the repository breaks these without breaking
any other test."""

import ast
import re
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"

# a test file, or a node id in one: tests/test_x.py::TestY::test_z[param]
NODE = re.compile(r"(?:tests|perfbench)/[\w/]+\.py(?:::[\w\[\].-]+)*")
# an inline program: the double- or single-quoted word after -c
PROGRAM = re.compile(r"""\s-c\s+(?:"((?:[^"\\]|\\.)*)"|'([^']*)')""")


def _scripts() -> list[str]:
    """The ``run:`` script of every step of every job."""
    doc = yaml.safe_load(WORKFLOW.read_text())
    return [step["run"] for job in doc["jobs"].values() for step in job["steps"] if "run" in step]


def _missing_nodes(text: str) -> list[str]:
    """The test files and node ids named in ``text`` that do not exist: a
    node's classes and functions are looked up in its file's syntax tree,
    without importing it."""
    missing = []
    for node in NODE.findall(text):
        path, *names = node.split("::")
        if not (ROOT / path).is_file():
            missing.append(node)
            continue
        scope = ast.parse((ROOT / path).read_text()).body
        for name in names:
            name = name.split("[")[0]
            found = [
                d for d in scope
                if isinstance(d, (ast.ClassDef, ast.FunctionDef)) and d.name == name
            ]
            if not found:
                missing.append(node)
                break
            scope = found[0].body
    return missing


def _run_py_flags() -> set[str]:
    """The flags ``perfbench/run.py`` defines, read from its syntax tree."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    return {
        arg.value
        for call in ast.walk(tree)
        if isinstance(call, ast.Call) and getattr(call.func, "attr", None) == "add_argument"
        for arg in call.args
        if isinstance(arg, ast.Constant) and str(arg.value).startswith("--")
    }


def _programs(script: str) -> list[str]:
    """The inline programs of ``script``, as the shell hands them to Python."""
    return [
        re.sub(r'\\(["\\$`])', r"\1", double) if double else single
        for double, single in PROGRAM.findall(script)
    ]


def test_every_named_test_file_and_node_exists():
    named = [node for script in _scripts() for node in NODE.findall(script)]
    assert "tests/test_harness.py::TestIdleStretches" in named
    assert _missing_nodes("\n".join(_scripts())) == []


def test_a_missing_node_is_found():
    text = (
        "pytest tests/test_harness.py::TestIdleStretches::test_no_such_case "
        "tests/test_no_such_file.py tests/test_harness.py::TestIdleStretches"
    )
    assert _missing_nodes(text) == [
        "tests/test_harness.py::TestIdleStretches::test_no_such_case",
        "tests/test_no_such_file.py",
    ]


def test_every_perfbench_flag_is_defined():
    passed = {
        flag
        for script in _scripts()
        for line in script.splitlines()
        if "perfbench/run.py" in line
        for flag in re.findall(r"\s(--[\w-]+)", line.split("perfbench/run.py", 1)[1].split("|")[0])
    }
    assert passed and passed <= _run_py_flags()


def test_every_inline_program_compiles():
    for script in _scripts():
        programs = _programs(script)
        # each -c in the script is one program the pattern read
        assert len(programs) == len(re.findall(r"\s-c\s", script))
        for program in programs:
            compile(program, "<workflow>", "exec")


def test_an_inline_program_is_read_as_the_shell_passes_it():
    script = """py="$(python -c 'import sys; print(sys.executable)')"\n""" + (
        'python3 -c "\nprint(\\"a\\")\n" | tail -1'
    )
    assert _programs(script) == ["import sys; print(sys.executable)", '\nprint("a")\n']
