"""Static checks on the package source, read with the standard library's ``ast``."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import trideal

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "trideal"
README = PACKAGE.parent.parent / "README.md"
SOURCES = sorted(PACKAGE.glob("*.py"))
# __init__.py imports names only to re-export them
MODULES = [path for path in SOURCES if path.name != "__init__.py"]
# the modules whose public names the package re-exports
LIBRARY = ("bijections", "counting", "enumeration", "laurent", "model")


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, with the line of their import."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [alias.asname or alias.name for alias in node.names if alias.name != "*"]
        else:
            continue
        unused += [f"{name} (line {node.lineno})" for name in names if name not in read]
    return unused


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Private module-level functions, classes and constants that no source reads.

    A name counts as read when any source loads it by name or as an attribute.
    """
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            private = [d for d in defined if d.startswith("_") and not d.startswith("__")]
            unread += [f"{d} ({name} line {node.lineno})" for d in private if d not in read]
    return unread


def imported_names(source: str) -> set[str]:
    """Every module and name a source's imports mention, split at the dots."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(part for alias in node.names for part in alias.name.split("."))
    return names - {""}


def package_imports(source: str) -> set[str]:
    """The package's modules a source imports, relatively or as ``trideal.<module>``."""
    targets = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            targets += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = "trideal." * bool(node.level) + (node.module or "")
            if module.rstrip(".") == "trideal":
                targets += [f"trideal.{alias.name}" for alias in node.names]
            else:
                targets.append(module)
    return {target.split(".")[1] for target in targets if target.startswith("trideal.")}


def function_reads(source: str) -> dict[str, set[str]]:
    """The names, bare or as attributes, that each module-level function reads."""
    return {
        node.name: {
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))
        }
        for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef)
    }


def names_reached(source: str, entries: tuple[str, ...]) -> set[str]:
    """Names read by the module-level functions ``entries`` and every one they read in turn."""
    reads = function_reads(source)
    reached, pending = set(), list(entries)
    while pending:
        name = pending.pop()
        if name not in reached:
            reached.add(name)
            pending += reads.get(name, ())
    return reached


def test_finds_an_unused_import():
    source = "import csv\nimport os.path\nfrom x import a, b as c\nos.sep\nc()\n"
    assert unused_imports(source) == ["csv (line 1)", "a (line 3)"]


def test_finds_an_unread_private_name():
    sources = {
        "a.py": "__all__ = []\n_LIMIT = 3\n_A, _B = 1, 2\ndef _kept():\n    return _A\n"
        "def _dead():\n    return _LIMIT\nclass _Gone:\n    pass\n",
        "b.py": "from . import a\na._kept()\n",
    }
    assert unread_private_names(sources) == [
        "_B (a.py line 3)",
        "_dead (a.py line 6)",
        "_Gone (a.py line 8)",
    ]


# a time or memory figure: a number with its unit, or the machine it ran on
FIGURE = re.compile(r"\d\s?(?:[mµ]?s|[KMG]i?B)\b|vCPU")


def test_finds_a_time_or_memory_figure():
    figures = ["~0.1 s", "2 ms", "3 µs", "44 MB", "2-vCPU VM"]
    counts = ["n = 5 steps", "38.7 M output bits", "O(n**2) shift-adds"]
    assert [text for text in figures + counts if FIGURE.search(text)] == figures


def test_finds_imports_and_names_read_through_helpers():
    source = (
        "from . import counting\nfrom .model import Card as C\nimport os.path\n"
        "def walk():\n    return step()\ndef step():\n    return base\ndef other():\n    return y\n"
    )
    assert imported_names(source) == {"counting", "model", "Card", "os", "path"}
    assert names_reached(source, ("walk",)) == {"walk", "step", "base"}


def test_finds_the_package_modules_a_source_imports():
    source = (
        "from __future__ import annotations\nimport os.path\nfrom . import a, b\n"
        "from .c.d import e\nimport trideal.f\nfrom trideal import g\nfrom trideal.h import i\n"
    )
    assert package_imports(source) == {"a", "b", "c", "f", "g", "h"}


def test_every_module_is_checked():
    assert {"cli.py", "enumeration.py", "model.py"} <= {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_every_private_name_is_read_by_the_package():
    # tests may reach private helpers, but a helper only tests read is dead code
    sources = {path.name: path.read_text() for path in SOURCES}
    assert unread_private_names(sources) == []


def test_the_package_reexports_each_module_list_and_names_nothing_itself():
    owners = {
        name: module
        for module in map(importlib.import_module, (f"trideal.{m}" for m in LIBRARY))
        for name in module.__all__
    }
    assert trideal.__all__ == sorted(owners)
    assert all(getattr(trideal, name) is getattr(owners[name], name) for name in owners)
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imports = [
        f"from {'.' * node.level}{node.module or ''} import {alias.name}"
        if isinstance(node, ast.ImportFrom)
        else f"import {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    expected = [f"from . import {m}" for m in LIBRARY] + [f"from .{m} import *" for m in LIBRARY]
    assert sorted(imports) == sorted(expected)


def test_the_cli_starts_without_the_introspection_modules():
    # -S skips site, so only what ``import trideal.cli`` pulls in is counted
    slow = ("dataclasses", "inspect", "ast", "dis", "tokenize", "argparse", "gettext", "locale")
    script = f"import sys, trideal.cli; print(sorted(set({slow!r}) & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    result = subprocess.run(
        [sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout == "[]\n"


def test_a_well_formed_command_runs_without_argparse_and_help_still_loads_it():
    # the strict parser takes ``ct --n 3``; --help is argparse's alone
    script = (
        "import contextlib, io, sys\n"
        "from trideal.cli import main\n"
        "parsing = {'argparse', 'gettext', 'locale'}\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    code = main(['ct', '--n', '3'])\n"
        "print(code, repr(out.getvalue()), sorted(parsing & set(sys.modules)))\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):\n"
        "    main(['--help'])\n"
        "print('argparse' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    result = subprocess.run(
        [sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout == "0 '93\\n' []\nTrue\n"


def test_the_cli_starts_without_compiling_the_parsers_patterns():
    # no CLI command parses a card token or a deal, so importing it compiles none of the
    # three patterns; re.compile and re.fullmatch both compile through re._compile, which
    # sees a pattern on every call, cached or not
    script = (
        "import re\n"
        "seen, compile = [], re._compile\n"
        "re._compile = lambda pattern, flags: seen.append(pattern) or compile(pattern, flags)\n"
        "import trideal.cli\n"
        "at_import = set(seen)\n"
        "from trideal import cli, model\n"
        "patterns = {model._INT, model._TOKEN, model._DEAL}\n"
        "model.deal_from_text('S={1};R=[g1];G=[b1];B=[r1]', 1)\n"
        "cli._parse_denoms('1')\n"
        "print(len(patterns), sorted(patterns & at_import), patterns <= set(seen))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    result = subprocess.run(
        [sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout == "3 [] True\n"


def test_laurent_has_one_walk_that_both_powers_step_through():
    # the steps by the base are taken in _walk alone, so no second loop over them
    # (a fixed-width one, say) can survive beside it
    tree = ast.parse((PACKAGE / "laurent.py").read_text())
    calls = {
        node.name: {
            call.func.id
            for call in ast.walk(node)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
        }
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }
    steps = {"_step", "_widen"}
    assert steps <= set(calls)
    assert [name for name, called in calls.items() if called & steps] == ["_walk"]
    assert "_walk" in calls["_unfold"] and "_walk" in calls["constant_terms"]
    assert "_unfold" in calls["base_power"] and "_unfold" in calls["base_power_text"]


def test_the_constant_term_never_goes_through_the_factorization():
    # factor1 * factor2 would turn the walk into rhs_sum: the walk writes the
    # base's stencil out itself, so it reads no closed form from counting and
    # never the polynomials of the identity
    source = (PACKAGE / "laurent.py").read_text()
    assert "counting" not in imported_names(source)
    powers = ("constant_terms", "sequence_term", "base_power", "base_power_text")
    reached = names_reached(source, powers)
    assert "_step" in function_reads(source)["_walk"]
    assert {"_walk", "_step"} <= reached
    assert "identity_polynomials" not in reached


def test_the_deal_rule_is_written_once_in_the_model_and_the_base_reads_it():
    # the routings are built from the rule in model alone; the oracle and the
    # constant term's base both read that table, never a copy of their own
    writers = [
        path.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        for name in ast.walk(target)
        if isinstance(name, ast.Name) and name.id == "_ROUTES"
    ]
    assert writers == ["model.py"]
    assert "_ROUTES" in function_reads((PACKAGE / "laurent.py").read_text())["identity_polynomials"]
    assert "_ROUTES" in imported_names((PACKAGE / "enumeration.py").read_text())


def test_one_module_owns_the_deal_key_and_reads_its_holdings_off_the_rule():
    # enumeration alone packs and reads a key, through one holdings table built
    # from the rule; bijections keeps set algebra on holdings and no code bit
    definers = sorted(
        f"{path.stem}.{node.name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name in ("_deal_key", "_key_sets")
    )
    assert definers == ["enumeration._deal_key", "enumeration._key_sets"]
    tables = [
        ast.unparse(node.value)
        for node in ast.parse((PACKAGE / "enumeration.py").read_text()).body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "_HOLDINGS"
    ]
    assert len(tables) == 1 and "_ROUTES" in tables[0]
    source = (PACKAGE / "bijections.py").read_text()
    assert [token for token in ("_ROUTES", "_HOLDINGS", "^") if token in source] == []


# Each route to the count reads the deal model and nothing else of the package,
# so none can borrow another's count; the bijections read the oracle's deals too.
ROUTE_IMPORTS = {
    "model": set(),
    "enumeration": {"model"},
    "counting": {"model"},
    "laurent": {"model"},
    "bijections": {"model", "enumeration"},
}

# Within counting, the names each closed form's entry points must never reach:
# the lhs reads Franel sums and the rhs central binomials, with no shared walk.
COUNTING_ROUTES = {
    ("lhs_terms", "lhs_sum"): {"_central_terms", "rhs_terms", "rhs_sum"},
    ("rhs_terms", "rhs_sum"): {"_franel_terms", "_binomial_transform"},
}


@pytest.mark.parametrize("module, imports", ROUTE_IMPORTS.items(), ids=list(ROUTE_IMPORTS))
def test_each_route_imports_only_the_model(module, imports):
    assert package_imports((PACKAGE / f"{module}.py").read_text()) == imports


@pytest.mark.parametrize(
    "entries, unreached", COUNTING_ROUTES.items(), ids=["lhs", "rhs"]
)
def test_the_closed_forms_reach_no_part_of_each_other(entries, unreached):
    source = (PACKAGE / "counting.py").read_text()
    assert set(entries) <= set(function_reads(source))
    assert not names_reached(source, entries) & unreached


def test_counting_adds_its_transforms_and_multiplies_only_its_cubes_and_rhs():
    # the binomial transform is additions alone; products go through mul only
    # where a Franel sum cubes its half row and where rhs weights C(n, k)**2
    reads = function_reads((PACKAGE / "counting.py").read_text())

    def readers(name):
        return sorted(function for function, read in reads.items() if name in read)

    assert readers("_binomial_transform") == ["_red_prefix_terms", "lhs_terms"]
    assert readers("mul") == ["_franel_terms", "rhs_terms"]


def test_the_oracle_has_one_join_loop_that_every_consumer_reads():
    # code tuples are joined in _joins alone, behind the join groups, so no
    # second enumeration loop (a per-deal one, say) can survive beside it
    reads = {
        f"{module}.{function}": read
        for module in ("enumeration", "cli")
        for function, read in function_reads((PACKAGE / f"{module}.py").read_text()).items()
    }

    def readers(name):
        return sorted(function for function, read in reads.items() if name in read)

    assert readers("product") == ["enumeration._loads"]
    assert readers("_loads") == ["enumeration._joins"]
    assert readers("_joins") == ["enumeration._join_groups"]
    assert readers("_join_groups") == [
        "cli.cmd_enumerate",
        "cli.cmd_table",
        "enumeration._histograms",
        "enumeration._keys",
        "enumeration._routings",
        "enumeration.count_deals",
    ]
    # the renderer reads the groups it is given, a head and a tail part at a time
    assert readers("_lines") == ["cli.cmd_enumerate"]
    assert readers("_hand_parts") == ["cli.cmd_table", "enumeration._lines"]


def test_a_join_lists_each_tail_group_once_so_no_reader_names_one_by_its_first_tail():
    # _joins numbers the groups its heads meet, so readers index them and keep
    # no memo keyed by a group's first tail; one helper counts a join's deals,
    # so cli passes the join groups on and never looks inside one
    assert not [path.name for path in SOURCES if "tails[0]" in path.read_text()]
    reads = {
        f"{module}.{function}": read
        for module in ("enumeration", "cli")
        for function, read in function_reads((PACKAGE / f"{module}.py").read_text()).items()
    }
    readers = sorted(function for function, read in reads.items() if "_deal_total" in read)
    assert readers == ["cli.cmd_enumerate", "enumeration.count_deals"]


def test_the_cli_has_one_roundtrip_walk_that_both_audits_share():
    # a failing deal is rebuilt and named in _audit alone, so no second
    # roundtrip loop (one per bijection, say) can survive beside it
    reads = function_reads((PACKAGE / "cli.py").read_text())

    def readers(name):
        return sorted(function for function, read in reads.items() if name in read)

    assert readers("deal_to_text") == readers("_deal") == ["_audit"]
    assert readers("_audit") == ["_audit_full_deck", "_audit_red_set"]


def setter_calls(node: ast.AST) -> int:
    """How many ``object.__setattr__`` calls lie within a node."""
    calls = (n for n in ast.walk(node) if isinstance(n, ast.Call))
    return sum(ast.unparse(call.func) == "object.__setattr__" for call in calls)


def test_a_deal_and_its_key_convert_in_one_step_and_one_setter_freezes_the_fields():
    # bijections turns a key into a Deal through the oracle's _deal and packs
    # a Deal's holdings into its key through the oracle's _deal_key, so it
    # takes no routing codes
    imported = [
        alias.name
        for node in ast.parse((PACKAGE / "bijections.py").read_text()).body
        if isinstance(node, ast.ImportFrom) and node.module == "enumeration"
        for alias in node.names
    ]
    assert sorted(imported) == ["_deal", "_deal_key", "_denoms", "_key_sets", "subsets_lex"]
    # Card sets its two fields; every other value sets n and its sets through _Value._set
    methods = {
        f"{node.name}.{method.name}": method
        for node in ast.parse((PACKAGE / "model.py").read_text()).body
        if isinstance(node, ast.ClassDef)
        for method in node.body
        if isinstance(method, ast.FunctionDef)
    }
    setters = sorted(name for name, method in methods.items() if setter_calls(method))
    assert setters == ["Card.__init__", "_Value._set"]
    everywhere = sum(setter_calls(ast.parse(path.read_text())) for path in SOURCES)
    assert everywhere == sum(map(setter_calls, methods.values()))


def test_only_main_turns_an_error_into_a_usage_line():
    # every range and guard is checked in the library, which raises; main alone
    # prints the error line, so no handler can grow a second check in its own words
    reads = function_reads((PACKAGE / "cli.py").read_text())
    assert sorted(function for function, read in reads.items() if "_usage" in read) == ["main"]


def test_one_function_writes_the_n_check_and_every_range_check_reads_within():
    # n >= 0 is checked by model._require_nonneg alone, and each denomination
    # range check calls model._within, so a float or bool stops at every one;
    # the streams' "not within" message is written by model._require_within alone
    writers = [
        f"{path.stem}.{node.name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and "need n >= 0" in ast.unparse(node)
    ]
    assert writers == ["model._require_nonneg"]
    assert sum(path.read_text().count("need n >= 0") for path in SOURCES) == 1
    reads = {
        f"{path.stem}.{function}": read
        for path in MODULES
        for function, read in function_reads(path.read_text()).items()
    }

    def readers(name):
        return sorted(function for function, read in reads.items() if name in read)

    checks = ["bijections._check_full_deck", "bijections._check_red_set", "model.validate_deal"]
    streams = ["bijections._red_set_masks", "enumeration._join_groups"]
    assert readers("_within") == sorted([*checks, "model._require_within"])
    assert readers("_require_within") == streams
    assert sum(path.read_text().count("not within 1..") for path in SOURCES) == 1
    # the streams read range for their deck; no check builds a 1..n universe
    assert not set(checks) & set(readers("range"))
    users = {function.split(".")[0] for function in readers("_require_nonneg")}
    assert users == {"bijections", "counting", "enumeration", "laurent"}


def test_no_source_or_readme_line_states_a_time_or_memory_figure():
    # no committed benchmark backs such a figure, so costs are stated as their order
    lines = [
        f"{path.name}:{number}: {line.strip()}"
        for path in [*SOURCES, README]
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if FIGURE.search(line)
    ]
    assert lines == []


def main_block(path: Path) -> str:
    """The body of a source's ``if __name__ == "__main__":`` block."""
    tree = ast.parse(path.read_text())
    [block] = [node for node in tree.body if ast.unparse(node).startswith("if __name__ ==")]
    return "\n".join(map(ast.unparse, block.body))


def test_every_process_ends_through_run_and_only_run_calls_os_exit():
    # run is the one place that skips teardown, and each way to start a process reaches it
    exits = [
        f"{path.stem}.{getattr(statement, 'name', '<module>')}"
        for path in SOURCES
        for statement in ast.parse(path.read_text()).body
        for node in ast.walk(statement)
        if isinstance(node, ast.Attribute) and ast.unparse(node) == "os._exit"
    ]
    assert exits == ["cli.run"]
    assert main_block(PACKAGE / "__main__.py") == main_block(PACKAGE / "cli.py") == "run()"
    pyproject = (PACKAGE.parent.parent / "pyproject.toml").read_text()
    assert re.search(r'^\[project\.scripts\]\ntrideal = "trideal\.cli:run"$', pyproject, re.M)
