"""Guard: every public module-level name (function, class, constant) and
every public method in `src/deskseq` has a caller or reader in the program
itself, not only in the tests.

A name counts as used when it appears as a word on some line of
`src/deskseq/*.py` or `perfbench/*.py` other than its own definition line.
A helper only the tests need belongs in the tests.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "deskseq"


def _public_definitions():
    """(file, line number, name) of each public top-level function, class or
    assigned name and each public method of a top-level class."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            nodes = [node]
            if isinstance(node, ast.ClassDef):
                nodes += node.body
            for n in nodes:
                if (isinstance(n, (ast.FunctionDef, ast.ClassDef))
                        and not n.name.startswith("_")):
                    yield path, n.lineno, n.name
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            for t in targets:
                for name in ast.walk(t):  # `A = B = ...` and `A, B = ...` too
                    if isinstance(name, ast.Name) and not name.id.startswith("_"):
                        yield path, node.lineno, name.id


def _program_lines():
    paths = sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    return [(path, n, line) for path in paths
            for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)]


def test_every_public_name_is_used_by_the_program():
    lines = _program_lines()
    unused = []
    for path, lineno, name in _public_definitions():
        word = re.compile(rf"\b{re.escape(name)}\b")
        if not any(word.search(line) for p, n, line in lines if (p, n) != (path, lineno)):
            unused.append(f"{path.name}:{lineno} {name}")
    assert not unused, f"public names only the tests use (move them to the tests): {unused}"
