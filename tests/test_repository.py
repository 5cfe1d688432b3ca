"""Checks over the repository as a whole: where each name is imported from,
the shape of the two registries, the one builder of S_n's words, and the
benchmark's own output checks."""
import ast
import importlib
import subprocess
import sys
from pathlib import Path

import snfair.permutations
import snfair.representations
import snfair.verify

ROOT = Path(__file__).resolve().parent.parent


def _snfair_imports():
    """(file, line, module, name) of every ``from snfair... import name`` in
    the package, the tests, the demos and the tools, with the package's
    relative imports resolved."""
    found = []
    for top in ("src", "tests", "demos", "tools"):
        for path in sorted((ROOT / top).rglob("*.py")):
            package = ".".join(path.relative_to(ROOT / "src").parent.parts) if top == "src" else ""
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.ImportFrom):
                    continue
                module = node.module or ""
                if node.level:
                    base = package.rsplit(".", node.level - 1)[0]
                    module = f"{base}.{module}" if module else base
                if module == "snfair" or module.startswith("snfair."):
                    for alias in node.names:
                        if alias.name != "*":
                            found.append((path.relative_to(ROOT), node.lineno, module, alias.name))
    return found


def test_each_name_is_imported_from_the_module_that_defines_it():
    # The package re-exports nothing, so no module should pass a name
    # through: a class or function is imported from where it is defined.
    imports = _snfair_imports()
    assert any(path.parts[0] == "src" for path, *_ in imports)
    passed_through = []
    for path, line, module, name in imports:
        owner = getattr(getattr(importlib.import_module(module), name), "__module__", None)
        if owner is not None and owner != module:
            passed_through.append(f"{path}:{line} imports {name} from {module}, not {owner}")
    assert passed_through == []


def _tree(module):
    return ast.parse(Path(module.__file__).read_text())


def _top_level_names(tree):
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def test_each_registry_is_one_table():
    # verify.SUITES holds each suite's cases and smallest n, and _young
    # holds each shape's corner blocks, which _coset_matrices passes on.
    verify = _tree(snfair.verify)
    assert not {"SMALLEST_N", "_CASES"} & _top_level_names(verify)
    imported = {
        alias.name
        for node in ast.walk(verify)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert "partial" not in imported
    representations = _tree(snfair.representations)
    assert "_corners" not in _top_level_names(representations)
    (coset_matrices,) = [
        node
        for node in representations.body
        if isinstance(node, ast.FunctionDef) and node.name == "_coset_matrices"
    ]
    called = {
        node.func.id
        for node in ast.walk(coset_matrices)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    assert "_young" in called and "dimension" not in called


def test_one_loop_builds_the_words_of_s_n():
    # word_blocks' prefix-and-relabel loop writes every word; each table
    # group_matrix caches is that walk, gathered by words.
    functions = {
        node.name: node
        for node in _tree(snfair.permutations).body
        if isinstance(node, ast.FunctionDef)
    }
    table = list(ast.walk(functions["group_matrix"]))
    assert not [node for node in table if isinstance(node, (ast.For, ast.While, ast.comprehension))]
    assert "words" in {
        node.func.id
        for node in table
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    walk = ast.walk(functions["word_blocks"])
    assert len([node for node in walk if isinstance(node, (ast.Yield, ast.YieldFrom))]) == 1


def test_benchmark_self_test_passes():
    # Real commands at small n against perfbench/checks.py, which must
    # accept every genuine output and reject every corrupted copy.
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "self-test passed" in done.stdout
