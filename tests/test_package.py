"""The package namespace is lazy (PEP 562): ``import ghzport`` imports no
submodule, and each public name comes from its defining module on first use.
A command loads only the modules its subcommand runs."""

import ast
import json
import os
import re
import subprocess
import sys
import textwrap

import pytest

import ghzport

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
README = os.path.join(os.path.dirname(SRC), "README.md")


def fresh_env():
    return {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}


def run_fresh(code, exit_code=0):
    """Run ``python -c code`` in a fresh interpreter against this source tree;
    it must exit with ``exit_code``."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=fresh_env())
    assert proc.returncode == exit_code, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("name", [n for n in ghzport.__all__ if n != "__version__"])
def test_each_name_is_the_object_its_module_defines(name):
    value = getattr(ghzport, name)
    assert value.__module__.startswith("ghzport.")
    assert getattr(sys.modules[value.__module__], name) is value


def test_version_is_a_plain_attribute():
    assert ghzport.__version__ == "0.1.0"


def test_star_import_binds_every_name_and_dir_lists_them():
    namespace = {}
    exec("from ghzport import *", namespace)
    assert set(ghzport.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(ghzport, name) for name in ghzport.__all__)
    assert set(ghzport.__all__) <= set(dir(ghzport))


def test_unknown_name_raises_attribute_error_naming_the_package():
    with pytest.raises(AttributeError, match="module 'ghzport' has no attribute 'nonesuch'"):
        ghzport.nonesuch
    assert not hasattr(ghzport, "nonesuch")


def test_import_loads_no_submodule_and_not_numpy():
    out = run_fresh("import sys, ghzport; print(sorted(m for m in sys.modules "
                    "if m.startswith('ghzport.') or m == 'numpy'))")
    assert out == "[]\n"


def test_from_import_still_imports_submodules():
    # perfbench/layers.py imports its patch targets this way
    out = run_fresh("import ghzport; print(hasattr(ghzport, 'quantum')); "
                    "from ghzport import multiport, paradox, quantum; "
                    "print(multiport.__name__, paradox.__name__, quantum.__name__)")
    assert out == "False\nghzport.multiport ghzport.paradox ghzport.quantum\n"


BUNDLED = os.path.join(SRC, "ghzport", "scenarios", "ghz-n4-m3.json")
#: Exact phases are integer pairs, so no command imports these.
NO_FRACTIONS = {"fractions", "decimal"}
#: A plain command line is read without argparse, which brings the other two.
NO_ARGPARSE = {"argparse", "gettext", "locale"}
WATCHED = ("ghzport.scenario", "ghzport.paradox", "ghzport.text", "ghzport.lhv",
           "ghzport.multiport", "ghzport.quantum", "ghzport.closed", "numpy", "json",
           *NO_FRACTIONS, *NO_ARGPARSE)


def loaded_by(*argv, exit_code=0):
    """The WATCHED modules that one ``python -m ghzport`` run loads, run
    through runpy in a fresh interpreter; the run must exit with
    ``exit_code`` (``run_fresh`` checks the child's return code). The run
    ends the process, so an ``atexit`` handler registered before it reports,
    on the last stdout line; the probe itself imports no WATCHED module.
    ``ghzport.closed`` and numpy load with the command line, so every run
    lists them."""
    out = run_fresh(textwrap.dedent(f"""
        import atexit, runpy, sys
        atexit.register(lambda: print(" ".join(m for m in {WATCHED!r} if m in sys.modules)))
        sys.argv[1:] = {list(argv)!r}
        runpy.run_module("ghzport", run_name="__main__")
    """), exit_code)
    return set(out.splitlines()[-1].split())


def test_paradox_records_load_neither_the_schema_nor_the_text_renderers():
    assert loaded_by("paradox", "--N", "4", "--format", "records").isdisjoint(
        {"ghzport.scenario", "ghzport.text", *NO_FRACTIONS, *NO_ARGPARSE})


def test_lhv_search_records_load_neither_paradox_nor_the_text_renderers():
    loaded = loaded_by("lhv-search", BUNDLED, "--format", "records")
    assert "ghzport.scenario" in loaded
    assert loaded.isdisjoint({"ghzport.paradox", "ghzport.text", *NO_FRACTIONS, *NO_ARGPARSE})


@pytest.mark.parametrize("argv", [["paradox", "--N", "4"], ["correlate", BUNDLED],
                                  ["lhv-search", BUNDLED], ["sample", BUNDLED, "--shots", "10"],
                                  ["probability", BUNDLED], ["multiport", "--ports", "3"]])
def test_text_format_loads_the_text_renderers(argv):
    loaded = loaded_by(*argv, "--format", "text")
    assert "ghzport.text" in loaded
    assert loaded.isdisjoint({*NO_FRACTIONS, *NO_ARGPARSE})
    # only records are written as JSON; a scenario file is read with json
    assert ("json" in loaded) == (argv[0] not in ("paradox", "multiport"))


@pytest.mark.parametrize("argv", [["paradox", "--N", "4"], ["lhv-search", BUNDLED]])
def test_exact_track_loads_no_outcome_table_code(argv):
    loaded = loaded_by(*argv, "--format", "records")
    assert {"ghzport.closed", "ghzport.lhv", "json"} <= loaded
    assert loaded.isdisjoint({"ghzport.quantum", "ghzport.multiport", *NO_FRACTIONS,
                              *NO_ARGPARSE})


@pytest.fixture(scope="module")
def float_table(tmp_path_factory):
    """A scenario of float phases with no constraints block."""
    path = tmp_path_factory.mktemp("tables") / "float.json"
    path.write_text(json.dumps({"schema": "ghzport-scenario/1", "particles": 3, "ports": 3,
                                "phases": [[0.1, 0.2, 0.3]] * 3}), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("command", [["correlate"], ["sample", "--shots", "10"],
                                     ["probability"]])
def test_table_commands_without_constraints_load_no_lhv(float_table, command):
    loaded = loaded_by(command[0], float_table, *command[1:], "--format", "records")
    assert {"ghzport.scenario", "ghzport.quantum"} <= loaded
    # unit_roots lives in ghzport.closed, so no table command loads multiport
    assert loaded.isdisjoint({"ghzport.lhv", "ghzport.paradox", "ghzport.multiport",
                              *NO_FRACTIONS, *NO_ARGPARSE})


def test_a_constraints_block_loads_lhv():
    loaded = loaded_by("correlate", BUNDLED, "--format", "records")
    assert "ghzport.lhv" in loaded
    assert loaded.isdisjoint({*NO_FRACTIONS, *NO_ARGPARSE})


def test_multiport_loads_neither_the_schema_nor_lhv_nor_the_table_layer():
    loaded = loaded_by("multiport", "--ports", "3", "--format", "records")
    assert "ghzport.multiport" in loaded
    assert loaded.isdisjoint({"ghzport.scenario", "ghzport.lhv", "ghzport.quantum",
                              *NO_FRACTIONS, *NO_ARGPARSE})


@pytest.mark.parametrize("argv", [["examples"], ["examples", "--name", "ghz-n4-m3"]])
def test_examples_load_no_scenario_code(argv):
    assert loaded_by(*argv).isdisjoint({"ghzport.scenario", "ghzport.lhv", "json",
                                        *NO_FRACTIONS, *NO_ARGPARSE})


@pytest.mark.parametrize("argv", [
    ["multiport", "--ports", "3", "--format", "records"],
    ["probability", BUNDLED, "--format", "records"],
    ["correlate", BUNDLED, "--format", "records"],
    ["sample", BUNDLED, "--shots", "10", "--seed", "4", "--format", "records"],
    ["lhv-search", BUNDLED, "--format", "records"],
    ["paradox", "--N", "4", "--skip-enumeration", "--format", "records"],
    ["examples"], ["examples", "--name", "ghz-n4-m3"]])
def test_plain_command_lines_load_no_argparse(argv):
    # text format: test_text_format_loads_the_text_renderers
    loaded = loaded_by(*argv)
    assert loaded.isdisjoint(NO_ARGPARSE)
    assert ("json" in loaded) == (argv[0] != "examples")


PARADOX_USAGE = ("usage: ghzport paradox [-h] --N N [--skip-enumeration]\n"
                 "                       [--format {text,records}]\n")
#: argv that only argparse reads, and the exit code, stdout and stderr of
#: ``python -m ghzport`` on it, at COLUMNS=80.
ARGPARSE_RUNS = {
    "help": (["--help"], 0, (
        "usage: ghzport [-h] [--version]\n"
        "               {multiport,probability,correlate,sample,lhv-search,paradox,examples}\n"
        "               ...\n"
        "\n"
        "Quantum predictions and local-hidden-variable falsification for GHZ\n"
        "experiments on symmetric multiport beam splitters.\n"
        "\n"
        "positional arguments:\n"
        "  {multiport,probability,correlate,sample,lhv-search,paradox,examples}\n"
        "    multiport           print a Bell multiport unitary\n"
        "    probability         full joint-detection probability table\n"
        "    correlate           correlation: closed form, brute force, exact class\n"
        "    sample              seeded outcome sampling\n"
        "    lhv-search          count deterministic local models meeting the\n"
        "                        scenario's constraints\n"
        "    paradox             build, verify and report an N = M+1 contradiction\n"
        "    examples            list or print bundled scenarios\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --version             show program's version number and exit\n"), ""),
    "usage-error": (["paradox", "--N", "four"], 2, "", PARADOX_USAGE + (
        "ghzport paradox: error: argument --N: invalid int value: 'four'\n")),
    "version": (["--version"], 0, "ghzport 0.1.0\n", ""),
    "paradox-help": (["paradox", "-h"], 0, PARADOX_USAGE + (
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --N N                 particle count (>= 4; ports M = N-1)\n"
        "  --skip-enumeration    skip the exhaustive model count\n"
        "  --format {text,records}\n"
        "                        aligned text or line-delimited JSON records\n"), ""),
}


@pytest.mark.parametrize("argv, code, stdout, stderr", ARGPARSE_RUNS.values(),
                         ids=ARGPARSE_RUNS.keys())
def test_help_version_and_usage_errors_still_load_argparse(argv, code, stdout, stderr):
    assert NO_ARGPARSE <= loaded_by(*argv, exit_code=code)
    proc = subprocess.run([sys.executable, "-m", "ghzport", *argv], capture_output=True,
                          env={**fresh_env(), "COLUMNS": "80"})
    assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == (
        code, stdout, stderr)


def test_closed_form_names_do_not_load_the_table_layer():
    out = run_fresh("import sys, ghzport; ghzport.PhaseSettings, ghzport.correlation_closed; "
                    "print('ghzport.closed' in sys.modules, 'ghzport.quantum' in sys.modules)")
    assert out == "True False\n"


def test_cli_import_still_loads_numpy():
    # perfbench/layers.py (import_times, line 205) takes max() with no default
    # over the numpy rows of ``-X importtime -c "import ghzport.cli"``, so the
    # traced benchmark run fails once this import stops loading numpy; cli
    # uses no numpy itself, which comes in through ghzport.closed
    out = run_fresh("import sys, ghzport.cli; print('numpy' in sys.modules)")
    assert out == "True\n"


def test_the_readme_library_example_gives_what_its_comments_state():
    with open(README, encoding="utf-8") as handle:
        readme = handle.read()
    block = re.search(r"^## Library\n\n```python\n(.*?)^```$", readme, re.S | re.M).group(1)
    namespace, shown = {}, []
    for statement in ast.parse(block).body:
        if isinstance(statement, ast.Expr):
            shown.append(repr(eval(compile(ast.Expression(statement.value), README, "eval"),
                                   namespace)))
        else:
            exec(compile(ast.Module([statement], type_ignores=[]), README, "exec"), namespace)
    assert shown == ["Residue(value=2, modulus=3)", "(True, 81, 0)"]
    assert all(f"# {value}" in block for value in shown)
