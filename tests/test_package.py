"""The package surface: which names `luinv` exports, and that the exact
layers and their CLI commands run without importing numpy, each command
loading only the layers it runs and no standard-library module it does not
use."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import luinv
from luinv.cli import main
from luinv.states import ghz_state, write_state_file

SRC = str(Path(__file__).resolve().parents[1] / "src")

# Every name `luinv` exports, by defining module.
PUBLIC_API = {
    "combinatorics": ["Partition", "centralizer_order", "partitions_of"],
    "characters": [
        "ClassFunction",
        "inner_product",
        "irreducible_character",
        "trivial_character",
    ],
    "dimensions": [
        "mixed_dimension",
        "restricted_dimension",
        "stable_dimension",
        "stable_dimension_via_characters",
    ],
    "errors": ["ConsistencyError", "EnumerationBoundError", "IntegralityError"],
    "free_group_census": ["conjugation_orbit_count", "count_subgroup_classes"],
    "invariants": [
        "InvariantVector",
        "eta",
        "higher_invariant",
        "i_from_j",
        "invariant_I",
        "invariant_I_vector",
        "invariant_J",
        "invariant_J_vector",
        "j_from_i",
        "meyer_wallach",
    ],
    "series": [
        "GeneratorCounts",
        "PowerSeries",
        "euler_exponents",
        "expand_euler_product",
        "free_generator_count",
        "hilbert_series",
    ],
    "states": [
        "DensityMatrix",
        "PureState",
        "ghz_state",
        "invariant_space_rank",
        "partial_trace",
        "projector",
        "random_pure_state",
        "read_state_file",
        "write_state_file",
    ],
    "subsets": ["SubsetMask", "all_subsets"],
}

# Names that `luinv` exported until the test oracles moved to
# tests/oracles.py; the lazy `__getattr__` must not serve them.
REMOVED = [
    "apply_local_unitaries",
    "bell_state",
    "conjugation_character",
    "higher_basis_vector",
    "permutation_contraction",
    "product_state",
    "purify",
    "random_density_matrix",
    "random_unitary",
]
UNKNOWN = ["np", "no_such_name", *REMOVED]

# What the first access to a numpy-tier name loads: the tier, and the layers
# its modules import.  The rank oracle's exact layers are in the tier, so
# the library benchmark's set-up, through `luinv.states`, loads them all.
TIER = [
    "characters", "combinatorics", "dimensions", "errors", "free_group_census",
    "invariants", "series", "states", "subsets",
]

CLI = ["luinv.cli", "luinv.errors"]
# Each combinatorial command, and the layers it loads beyond `cli` and `errors`.
DIMS_LAYERS = ["characters", "combinatorics", "dimensions", "series"]
COMBINATORIAL_COMMANDS = [
    (["dims", "--k", "3", "--m", "2"], DIMS_LAYERS),
    (["dims", "--local-dims", "2,2", "--m", "3"], DIMS_LAYERS),
    (["hilbert", "--k", "3", "--order", "6"], ["series"]),
    (["subgroups", "--rank", "2", "--max-index", "4"], ["free_group_census"]),
    (["orbits", "--tuple-length", "2", "--m", "4"], ["free_group_census"]),
    (["char-table", "--m", "4"], ["characters", "combinatorics"]),
]

# Each command on a state file, and the layers it loads beyond `cli` and
# `errors`: the numpy tier without the rank oracle's exact layers.
STATE_LAYERS = ["invariants", "states", "subsets"]
STATE_COMMANDS = [
    ["eval", "--invariant", "I", "--state", "bell.state", "--subset", "1,2"],
    ["eval", "--invariant", "J", "--state", "bell.state", "--subset", "1"],
    ["eval", "--invariant", "eta", "--state", "bell.state", "--subset", "1"],
    ["eval", "--invariant", "Q", "--state", "bell.state"],
    ["eval", "--invariant", "higher", "--state", "bell.state", "--subset", "", "--m", "2"],
    ["transform", "--state", "bell.state"],
]
RANK_ORACLE = ["rank-oracle", "--local-dims", "2,2", "--m", "2", "--seed", "1"]
ALL_COMMANDS = [argv for argv, _ in COMBINATORIAL_COMMANDS] + STATE_COMMANDS + [RANK_ORACLE]
# Commands that build no Fraction, so must not import `fractions`.
NO_FRACTIONS = ["hilbert", "subgroups", "orbits", "eval", "transform"]

# Runs in a fresh interpreter: records, after each step, whether numpy is
# loaded and which `luinv.*` modules are, then the command's exit code and
# stdout, and which of `dataclasses` and `fractions` it left loaded.
_COMMAND_SCRIPT = """
import contextlib, io, json, sys
def loaded():
    return ["numpy" in sys.modules, sorted(m for m in sys.modules if m.startswith("luinv."))]
steps = []
import luinv
steps.append(loaded())
import luinv.cli
steps.append(loaded())
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = luinv.cli.main(json.loads(sys.argv[1]))
steps.append(loaded())
stdlib = sorted(m for m in ("dataclasses", "fractions") if m in sys.modules)
print(json.dumps({"steps": steps, "outcome": [code, out.getvalue()], "stdlib": stdlib}))
"""

# Runs in a fresh interpreter: lists the package before the numpy tier is
# touched, touches it through one name, then resolves every public name.
_API_SCRIPT = """
import importlib, json, sys
first, api, unknown_names = sys.argv[1], json.loads(sys.argv[2]), json.loads(sys.argv[3])
import luinv
listed = set(dir(luinv))
numpy_before = "numpy" in sys.modules
exec(f"from luinv import {first}")
tier = sorted(m for m in sys.modules if m.startswith("luinv."))
star = {}
exec("from luinv import *", star)
wrong = []
for module, names in api.items():
    source = importlib.import_module(f"luinv.{module}")
    for name in names:
        imported = {}
        exec(f"from luinv import {name}", imported)
        want = getattr(source, name)
        if not (getattr(luinv, name) is imported[name] is star.get(name) is want):
            wrong.append(name)
unknown = []
for name in unknown_names:
    try:
        getattr(luinv, name)
    except AttributeError:
        continue
    unknown.append(name)
print(json.dumps({
    "unlisted": sorted(n for names in api.values() for n in names if n not in listed),
    "numpy_before": numpy_before,
    "tier": tier,
    "wrong": wrong,
    "resolved_unknown": unknown,
}))
"""


def _fresh(script: str, *args: str, cwd=None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def state_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("states")
    write_state_file(path / "bell.state", ghz_state(2))
    return path


@pytest.fixture(scope="module")
def reports(state_dir):
    """_COMMAND_SCRIPT's report of every command, one fresh process each."""
    return {tuple(argv): _fresh(_COMMAND_SCRIPT, json.dumps(argv), cwd=state_dir) for argv in ALL_COMMANDS}


def test_combinatorial_commands_never_import_numpy(reports, capsys):
    # `import luinv` loads no layer, and each command only the layers it runs.
    for argv, layers in COMBINATORIAL_COMMANDS:
        report = reports[tuple(argv)]
        ran = sorted(CLI + [f"luinv.{layer}" for layer in layers])
        assert report["steps"] == [[False, []], [False, CLI], [False, ran]], argv
        assert report["outcome"] == [main(argv), capsys.readouterr().out], argv


def test_state_commands_skip_the_exact_layers(reports, state_dir, monkeypatch, capsys):
    # `eval` and `transform` load the numpy tier but not the exact layers,
    # which only the rank oracle in `states` runs.
    monkeypatch.chdir(state_dir)
    ran = sorted(CLI + [f"luinv.{layer}" for layer in STATE_LAYERS])
    for argv in STATE_COMMANDS:
        report = reports[tuple(argv)]
        assert report["steps"] == [[False, []], [False, CLI], [True, ran]], argv
        assert report["outcome"] == [main(argv), capsys.readouterr().out], argv


def test_commands_import_no_dataclasses_and_fractions_only_to_build_one(reports):
    for argv in ALL_COMMANDS:
        stdlib = reports[tuple(argv)]["stdlib"]
        assert "dataclasses" not in stdlib, argv
        if argv[0] in NO_FRACTIONS:
            assert "fractions" not in stdlib, argv


@pytest.mark.parametrize("first", ["eta", "PureState", "invariants", "states"])
def test_public_api_is_unchanged(first):
    report = _fresh(_API_SCRIPT, first, json.dumps(PUBLIC_API), json.dumps(UNKNOWN))
    assert report == {
        "unlisted": [],
        "numpy_before": False,
        "tier": [f"luinv.{layer}" for layer in TIER],
        "wrong": [],
        "resolved_unknown": [],
    }


def test_public_api_in_process():
    # With the numpy tier loaded, unknown names still raise.
    luinv.PureState
    assert sorted(luinv.__all__) == sorted(n for names in PUBLIC_API.values() for n in names)
    for name in UNKNOWN:
        with pytest.raises(AttributeError):
            getattr(luinv, name)
