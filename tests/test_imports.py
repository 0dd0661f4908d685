"""What each entry point imports: the package resolves its names lazily and
each CLI subcommand loads only the modules it runs."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import supersat

# runs the CLI in a fresh interpreter, then prints every module it loaded
# beyond those the bare interpreter had loaded before the probe's first line
_PROBE = """
import sys
bare = set(sys.modules)
from supersat.cli import main
try:
    main(sys.argv[1:])
except SystemExit:
    pass
loaded = sorted(set(sys.modules) - bare)
import json
print(json.dumps(loaded))
"""


def _python(*argv, cwd=None):
    paths = [str(Path(supersat.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def modules_loaded_by(*cli_args, cwd=None):
    return set(json.loads(_python("-c", _PROBE, *cli_args, cwd=cwd).splitlines()[-1]))


def loaded_by(*cli_args, cwd=None):
    return {m for m in modules_loaded_by(*cli_args, cwd=cwd) if m.startswith("supersat")}


def test_import_supersat_loads_no_submodule():
    probe = "import sys, supersat; print(*sorted(m for m in sys.modules if 'supersat' in m))"
    assert _python("-c", probe).split() == ["supersat"]


def test_version_loads_only_the_cli():
    assert loaded_by("--version") == {"supersat", "supersat.cli"}


def test_usage_error_loads_only_the_cli():
    assert loaded_by("verify", "--suite", "nope") == {"supersat", "supersat.cli"}


@pytest.mark.parametrize("argv", [("--version",), ("verify", "--suite", "nope")])
def test_version_and_usage_errors_load_no_json(argv):
    assert not {m for m in modules_loaded_by(*argv) if m == "json" or m.startswith("json.")}


# the subcommands the CI workflow runs through the installed console script,
# at sizes that keep each process short
CI_COMMANDS = [
    ("--version",),
    ("sigma", "--n", "5", "--k", "2"),
    ("bound", "--n", "12", "--k", "3", "--x", "5"),
    ("oracle", "--n", "4", "--k", "2", "--size", "7"),
    ("oracle", "--n", "6", "--k", "2", "--size", "25", "--heuristic", "--seed", "1", "--iters", "20"),
    ("nperm", "--n", "4", "--levels", "1,2", "--enumerate"),
    ("kleitman", "--n", "4", "--k", "3", "--json"),
    ("verify", "--suite", "scd"),
    ("verify", "--suite", "theorem"),
    ("scd", "--n", "5", "--permute", "2,3,4,5,1"),
    ("scd", "--n", "6", "--method", "bracketing", "--validate"),
    ("construct", "--n", "12", "--k", "3", "--x", "5", "--out", "f.fam"),
    ("construct", "--n", "12", "--k", "3", "--x", "5"),
    ("count", "--k", "3", "--family", "g.fam"),
]


@pytest.mark.parametrize("argv", CI_COMMANDS, ids=" ".join)
def test_no_subcommand_loads_dataclasses_or_inspect(tmp_path, argv):
    # dataclasses imports inspect, which imports ast, dis and tokenize: about
    # 12 ms of start-up that every command would pay
    (tmp_path / "g.fam").write_text("n=3\n1\n1 2\n1 2 3\n", encoding="utf-8")
    loaded = modules_loaded_by(*argv, cwd=tmp_path)
    assert not loaded & {"dataclasses", "inspect"}, sorted(loaded)


def test_count_loads_core_and_counting_only(tmp_path):
    (tmp_path / "f.fam").write_text("n=2\n1\n1 2\n", encoding="utf-8")
    loaded = loaded_by("count", "--k", "2", "--family", "f.fam", cwd=tmp_path)
    assert loaded == {"supersat", "supersat.cli", "supersat.core", "supersat.counting"}


@pytest.mark.parametrize(
    "argv",
    [
        ("oracle", "--n", "3", "--k", "2", "--size", "4"),
        ("oracle", "--n", "5", "--k", "2", "--size", "12", "--heuristic", "--iters", "10"),
        ("kleitman", "--n", "3", "--k", "2"),
    ],
)
def test_oracle_and_kleitman_do_not_load_verify(argv):
    loaded = loaded_by(*argv)
    assert "supersat.oracle" in loaded
    assert "supersat.verify" not in loaded


def test_every_public_name_is_its_home_module_object():
    for name in supersat.__all__:
        if name == "BACKEND":
            continue
        home = importlib.import_module(f"supersat.{supersat._HOME[name]}")
        assert getattr(supersat, name) is getattr(home, name), name
    assert set(supersat.__all__) <= set(dir(supersat))


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from supersat import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == supersat.__all__
    assert namespace["Family"] is importlib.import_module("supersat.core").Family


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        supersat.no_such_name


def test_cli_suite_choices_are_the_verify_suites():
    from supersat.cli import SUITE_CHOICES
    from supersat.verify import SUITES

    assert list(SUITE_CHOICES) == sorted(SUITES)


def test_every_module_parses_as_python_3_10():
    # the oldest Python the package supports; the interpreter running the tests may be newer
    import ast

    paths = sorted(Path(supersat.__file__).parent.glob("*.py"))
    assert len(paths) >= 8
    # and the scripts CI runs on every leg, outside the package
    tests = Path(__file__).parent
    for path in (*paths, tests / "scale.py", tests / "run_mutants.py"):
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
