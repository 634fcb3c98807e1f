"""Guard: every public module-level name (function, class, constant) and
every public method in `src/deskseq` has a caller or reader in the program
itself, not only in the tests.

The program is `src/deskseq/*.py` and `perfbench/*.py`, read as code with
`ast`: comments, and words inside docstrings, do not count.  A name counts
as used through
- a method: an attribute access `x.name`;
- a top-level name: a load of it in its own module, an import of it, or an
  attribute access `module.name`;
- any name: a string constant equal to it (`getattr(module, name)` tables).
A local variable of the same name elsewhere is no use.  A helper only the
tests need belongs in the tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "deskseq"


def _public_definitions():
    """(module path, line number, name, is a method) of each public top-level
    function, class or assigned name and each public method of a top-level
    class."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield path, node.lineno, node.name, False
            if isinstance(node, ast.ClassDef):
                for n in node.body:
                    if isinstance(n, ast.FunctionDef) and not n.name.startswith("_"):
                        yield path, n.lineno, n.name, True
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            for t in targets:
                for name in ast.walk(t):  # `A = B = ...` and `A, B = ...` too
                    if isinstance(name, ast.Name) and not name.id.startswith("_"):
                        yield path, node.lineno, name.id, False


def _program_uses():
    """Per program file, the names it loads, and over all files the names
    imported, accessed as attributes or spelled by a string constant."""
    loads, shared = {}, {"import": set(), "attr": set(), "str": set()}
    paths = sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    for path in paths:
        loads[path] = set()
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                loads[path].add(n.id)
            elif isinstance(n, ast.alias):
                shared["import"].add(n.name.rsplit(".", 1)[-1])
            elif isinstance(n, ast.Attribute):
                shared["attr"].add(n.attr)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                shared["str"].add(n.value)
    return loads, shared


def test_every_public_name_is_used_by_the_program():
    loads, shared = _program_uses()
    unused = [f"{path.name}:{lineno} {name}"
              for path, lineno, name, method in _public_definitions()
              if not (name in shared["attr"] or name in shared["str"] if method
                      else name in loads[path] or any(name in v for v in shared.values()))]
    assert not unused, f"public names only the tests use (move them to the tests): {unused}"
