"""Source-level checks on the package itself."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tworow

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "tworow"


def test_no_assert_statements_in_package():
    # python -O strips assert statements; checks must raise instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert sorted(SRC.glob("*.py")), f"no sources under {SRC}"
    assert found == []


def test_public_names_resolve():
    # a stale entry would only fail on `from tworow import *`
    missing = [name for name in tworow.__all__ if not hasattr(tworow, name)]
    assert missing == []
    assert len(set(tworow.__all__)) == len(tworow.__all__)


def test_dir_lists_public_names():
    assert set(tworow.__all__) <= set(dir(tworow))


def _probe(code: str, *argv: str):
    """Run code in a fresh interpreter on this source tree; it prints one
    JSON value on its last line of output, which is returned."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


# the tworow modules loaded so far, as an expression in probe code
LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'tworow')"
# standard modules no CLI call should load: costly imports
HEAVY = "sorted({'dataclasses', 'inspect'} & set(sys.modules))"


def test_realize_stays_the_function_after_its_submodule_loads():
    # importing tworow.realize binds the submodule as a package attribute,
    # which must not shadow the public function of the same name
    code = (
        "import tworow\n"
        "from tworow.realize import RealizationResult\n"
        "from tworow import realize\n"
        "r = tworow.realize(tworow.SimplicialGraph.of(2, [(1, 2)]))\n"
        "import json\n"
        "print(json.dumps([realize is tworow.realize, type(realize).__name__,\n"
        "                  realize.__module__, isinstance(r, RealizationResult)]))\n"
    )
    assert _probe(code) == [True, "function", "tworow.realize", True]


def test_bare_import_loads_no_submodule():
    assert _probe(f"import json, sys, tworow\nprint(json.dumps({LOADED}))") == ["tworow"]


# beyond tworow, tworow.cli and tworow.errors: the modules each subcommand
# loads, on the fixtures, with its exit code
CLI_LOADS = {
    "graph": (["graph", "--matrix", "golden_7x7.json"], 0,
              ["fields", "matrices", "rowgraph"]),
    "blocks": (["blocks", "--matrix", "golden_7x7.json"], 0,
               ["blocks", "fields", "matrices", "rowgraph"]),
    "tracks": (["tracks", "--matrix", "id4.json"], 0,
               ["blocks", "fields", "matrices", "rowgraph"]),
    "det": (["det", "--matrix", "golden_7x7.json"], 0,
            ["fields", "matrices"]),
    "det-tracks": (["det", "--matrix", "golden_7x7.json", "--method", "tracks"], 0,
                   ["blocks", "fields", "matrices", "rowgraph"]),
    "trace": (["trace", "--matrix", "golden_7x7.json"], 0,
              ["fields", "hamilton", "matrices", "rowgraph"]),
    "realize": (["realize", "--graph", "star13.json"], 0,
                ["fields", "matrices", "realize", "rowgraph"]),
    "raag": (["raag", "--graph", "star13.json"], 3,
             ["fields", "hamilton", "matrices", "raag", "rowgraph"]),
    "experiment": (["experiment", "--mode", "completeness", "--n", "3", "--q", "2",
                    "--trials", "3"], 0,
                   ["fields", "hamilton", "harness", "matrices", "rowgraph"]),
}


@pytest.mark.parametrize("case", sorted(CLI_LOADS))
def test_cli_subcommand_loads_only_its_modules(case):
    argv, want_code, modules = CLI_LOADS[case]
    fixtures = ROOT / "tests" / "fixtures"
    argv = [str(fixtures / a) if a.endswith(".json") else a for a in argv]
    code = (
        "import contextlib, io, json, sys\n"
        "from tworow.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(sys.argv[1:])\n"
        f"print(json.dumps([code, {LOADED}, {HEAVY}]))\n"
    )
    got_code, loaded, heavy = _probe(code, *argv)
    assert got_code == want_code
    want = ["tworow", "tworow.cli", "tworow.errors"] + [f"tworow.{m}" for m in modules]
    assert loaded == sorted(want)
    assert heavy == []


def test_no_module_imports_dataclasses():
    # dataclasses imports inspect, and each decorated class execs generated
    # code at import; every CLI call would pay for both
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_private_names_are_used():
    # a top-level private function, class or constant that no code in the
    # package names is dead; definitions do not count as uses
    defined, used = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.endswith("__"):
                    defined[name] = f"{path.name}:{node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.split(".")[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    assert defined, f"no private names under {SRC}"
    assert sorted(f"{name} ({loc})" for name, loc in defined.items() if name not in used) == []


def test_cli_imports_only_public_names():
    # every CLI document is then reproducible from the public API, as the
    # benchmark's in-process references assume
    tree = ast.parse((SRC / "cli.py").read_text())
    private = [
        f"{alias.name} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if alias.name.split(".")[-1].startswith("_")
    ]
    assert private == []


def _named_outside(name: str, homes: set[str]) -> list[str]:
    """file:line of every place outside the files in homes where the
    package source names name: as a variable, attribute, import or string."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in homes:
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = {getattr(node, "id", None), getattr(node, "attr", None),
                     getattr(node, "value", None)}
            if isinstance(node, ast.alias):
                names.add(node.name)
            if name in names:
                found.append(f"{path.name}:{getattr(node, 'lineno', '?')}")
    return found


def test_only_matrices_clears_denominators():
    # every other module reads a matrix's cached integer rows, so that each
    # matrix clears its denominators once
    assert _named_outside("_integer_rows", {"matrices.py"}) == []


def test_only_matrices_picks_an_elimination_path():
    # harness and blocks eliminate through _eliminate, which picks the byte
    # lanes or the wide lanes by p, so no caller can take a path that
    # cannot hold its field
    for name in ("_eliminate_mod", "_eliminate_bytes"):
        assert _named_outside(name, {"matrices.py"}) == [], name
    assert _named_outside("_eliminate", {"matrices.py"}) != []


def test_no_function_caches():
    # functools' caches hold their arguments and results for the life of
    # the process; derived state belongs to the object it derives from
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", "") == "functools":
                names = [node.attr]
            else:
                continue
            if {"lru_cache", "cache"} & set(names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


# containers a module-level name may be bound to, and their mutating methods
CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
CONTAINER_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict"}
MUTATORS = {"append", "extend", "insert", "update", "setdefault", "pop", "popitem",
            "clear", "add", "discard", "remove"}


def test_no_module_level_caches():
    # a module-level dict, list or set that code writes to is shared by
    # every caller in the process: a cache that outlives what it describes;
    # rebinding a module name from a function is the same thing
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        held = set()
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            made = isinstance(value, CONTAINERS) or (
                isinstance(value, ast.Call) and getattr(value.func, "id", "") in CONTAINER_CALLS
            )
            if made:
                held |= {t.id for t in targets if isinstance(t, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Global):
                found.append(f"{path.name}:{node.lineno} global {', '.join(node.names)}")
            elif isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
                name = getattr(node.value, "id", None)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                name = getattr(node.func.value, "id", None)
                if node.func.attr not in MUTATORS:
                    continue
            else:
                continue
            if not isinstance(node, ast.Global) and name in held:
                found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


def test_only_matrices_and_rowgraph_name_the_memo():
    # every other module asks for derived facts through their functions,
    # so the memo keeps its fixed keys and dies with its matrix
    assert _named_outside("_memo", {"matrices.py", "rowgraph.py"}) == []


def _memo_keys(path: Path) -> tuple[set[str], list[str]]:
    """The keys path reads or writes in a matrix memo, as _memo[key],
    memo[key] or a .get(key) on either, and file:line of each such site
    whose key is not a string literal."""
    keys, odd = set(), []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Subscript):
            holder, key = node.value, node.slice
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "get" and node.args):
            holder, key = node.func.value, node.args[0]
        else:
            continue
        if getattr(holder, "attr", None) != "_memo" and getattr(holder, "id", None) != "memo":
            continue
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            keys.add(key.value)
        else:
            odd.append(f"{path.name}:{node.lineno}")
    return keys, odd


def test_memo_keys_are_documented():
    # the matrices module docstring holds the memo's fixed key list: every
    # key the two memo modules use is named there, in quotes
    doc = ast.get_docstring(ast.parse((SRC / "matrices.py").read_text()))
    keys, odd = set(), []
    for name in ("matrices.py", "rowgraph.py"):
        found, bad = _memo_keys(SRC / name)
        keys |= found
        odd += bad
    assert odd == []
    assert {"ints", "rank_det", "plain", "wrap", "windows", "cols"} <= keys
    assert sorted(k for k in keys if f'"{k}"' not in doc) == []


# the raw-entry row checks behind the traceability postcondition, and the
# kernel and memo names they must not use
RAW_ROW_CHECKS = {"_null_connected_raw", "_vanishes_fn", "null_connected",
                  "is_square_traceable", "_rows_traceable"}
KERNEL_NAMES = {"_memo", "_scan_masks", "null_masks", "row_null_masks",
                "_int_rows", "_projective_classes"}


def test_row_checks_read_raw_entries_only():
    # traceable_ordering checks its witness on raw entries, so that a fault
    # in the mask kernel or in the memo cannot pass its own check; the rule
    # covers the rowgraph functions the checks name, transitively
    tree = ast.parse((SRC / "rowgraph.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert RAW_ROW_CHECKS <= set(functions)
    todo, seen, found = sorted(RAW_ROW_CHECKS), set(), []
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(functions[name]):
            names = {getattr(node, "id", None), getattr(node, "attr", None),
                     getattr(node, "value", None)}
            found += [f"{name}:{node.lineno} {bad}" for bad in names & KERNEL_NAMES]
            todo += [other for other in names if other in functions]
    assert sorted(found) == []


def test_only_blocks_names_a_track_plan():
    # a track's plan is derived from the track alone, in one module, so no
    # other caller can hand it one that does not fit
    assert _named_outside("_plan", {"blocks.py"}) == []


def test_only_fields_and_blocks_trust_a_scalar_value():
    # Scalar._of takes its value as already canonical, unchecked; only
    # track_sum hands it one, so no other caller can make a Scalar that
    # compares unequal to its own canonical form
    assert _named_outside("_of", {"fields.py", "blocks.py"}) == []


def _own_nodes(loop: ast.AST):
    """The nodes inside a loop that no nested loop holds."""
    todo = list(ast.iter_child_nodes(loop))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.For, ast.While)):
            todo += ast.iter_child_nodes(node)


def _is_degree_test(node: ast.AST) -> bool:
    """Whether node reads `<mask>.bit_count() < 2`: a vertex with fewer
    than two pool neighbours, which can only end the path."""
    return (
        isinstance(node, ast.Compare)
        and [type(op) for op in node.ops] == [ast.Lt]
        and getattr(node.comparators[0], "value", None) == 2
        and isinstance(node.left, ast.Call)
        and getattr(node.left.func, "attr", None) == "bit_count"
    )


def test_search_states_its_pruning_test_once():
    # the search's pruning test is one ends loop and one _reaches call, both
    # in _search: a restart or any other path that re-tests states on its
    # own, in _search or in a helper, would be a second copy of the test
    tree = ast.parse((SRC / "hamilton.py").read_text())
    search = next(n for n in tree.body if getattr(n, "name", None) == "_search")

    def pruning(root):
        calls = [n for n in ast.walk(root) if isinstance(n, ast.Call)
                 and getattr(n.func, "id", None) == "_reaches"]
        loops = [n for n in ast.walk(root) if isinstance(n, (ast.For, ast.While))
                 and any(map(_is_degree_test, _own_nodes(n)))]
        return len(calls), len(loops)

    assert pruning(search) == (1, 1)
    assert pruning(tree) == (1, 1)


def _extends_a_string(node: ast.AST) -> bool:
    """Whether node calls with a state whose first field is `used | bit`: a
    partial string extended by one more row."""
    return (
        isinstance(node, ast.Call)
        and len(node.args) == 1
        and isinstance(node.args[0], ast.Tuple)
        and isinstance(node.args[0].elts[0], ast.BinOp)
        and isinstance(node.args[0].elts[0].op, ast.BitOr)
    )


def test_track_walk_extends_strings_in_one_loop():
    # both halves of the meet-in-the-middle track walk come from _walk, whose
    # one loop states the block rule and the ascending cut once: a second
    # loop that extends partial strings, in complete_tracks or a helper,
    # would be a near-copy of the rule to keep in step; the join checks the
    # junction pair, the one pair that neither walk sees
    tree = ast.parse((SRC / "blocks.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    loops = [(name, loop) for name, fn in functions.items() for loop in ast.walk(fn)
             if isinstance(loop, (ast.For, ast.While))
             and any(map(_extends_a_string, _own_nodes(loop)))]
    assert [name for name, _ in loops] == ["_walk"]
    rules = [ast.unparse(node) for node in ast.walk(functions["_walk"])
             if isinstance(node, ast.Compare)]
    assert rules == ["b != last", "b < 0", "r > rows[-1]"]
    calls = [node for node in ast.walk(functions["complete_tracks"])
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_walk"]
    assert len(calls) == 2


def test_one_scan_for_every_field_and_one_writer_of_column_masks():
    # the null masks of every field come from one kernel on the column
    # masks, with no fork by field in it: a second scan function would be a
    # near-copy to keep in step; and the masks are built in one place, so
    # no caller keeps a second recipe for them: only matrices writes
    # "cols" or names the byte table the masks are read through
    tree = ast.parse((SRC / "rowgraph.py").read_text())
    scans = [node for node in tree.body
             if isinstance(node, ast.FunctionDef) and "scan" in node.name]
    assert [node.name for node in scans] == ["_scan_masks"]
    assert not [node for node in ast.walk(scans[0])
                if getattr(node, "id", None) == "FieldKind"
                or getattr(node, "attr", None) == "kind"]
    writers, namers = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load)
                    and getattr(node.slice, "value", None) == "cols"):
                writers.add(path.name)
            if "_BINARY_DIGITS" in (getattr(node, "id", None), getattr(node, "name", None),
                                    getattr(node, "attr", None)):
                namers.add(path.name)
    assert writers == {"matrices.py"}
    assert namers == {"matrices.py"}


def test_value_classes_state_their_fields_once():
    # a value class names its fields in __slots__ alone: Value derives the
    # field tuple, the slot setters, equality, hashing, repr and pickling
    # from them, so none of these is written out in a subclass
    found, classes = [], {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef):
                classes[node.name] = path.name, node
            elif (isinstance(node, ast.Attribute) and node.attr == "__setattr__"
                  and getattr(node.value, "id", None) == "object"):
                found.append(f"{path.name}:{node.lineno} object.__setattr__")
    values, size = {"Value"}, 0
    while size < len(values):
        size = len(values)
        values |= {name for name, (_, node) in classes.items()
                   if any(getattr(base, "id", None) in values for base in node.bases)}
    assert len(values) == 14  # Value and its 13 subclasses
    derived = {"_key", "__eq__", "__hash__", "__repr__", "__reduce__"}
    for name in values - {"Value"}:
        file, node = classes[name]
        found += [f"{file}:{item.lineno} {name}.{item.name}" for item in node.body
                  if isinstance(item, ast.FunctionDef) and item.name in derived]
    assert sorted(found) == []


# seeded output each script must print for the arguments below
SCRIPT_OUTPUT = {
    "completeness_table.py": (
        "n\\q          2          3\n"
        "-------------------------\n"
        "2     1.000000   1.000000\n"
        "3     0.400000   0.600000\n"
    ),
    "hamiltonicity_sweep.py": "all 20 samples traceable\n",
}


@pytest.mark.parametrize("script", sorted(SCRIPT_OUTPUT))
def test_scripts_run(script):
    # both scripts drive sample_gl through run_experiment
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script),
         "--sizes", "2", "3", "--orders", "2", "3", "--trials", "5"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert SCRIPT_OUTPUT[script] in done.stdout
