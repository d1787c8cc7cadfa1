"""Every public module-level function or class of the library, and every
public method or property of its classes, is used by the program itself.

A definition in src/elorantd/*.py counts as used when a non-test file of
src/ or perfbench/ references its name outside the definition: as a Name,
an Attribute, an import alias, or an identifier string (perfbench names
the functions it wraps by string).  Dunder methods are exempt.  Helpers
that only tests call belong in tests/ (brute-force references in
tests/oracles.py).
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
IDENTIFIER = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _names(node: ast.AST) -> set[str]:
    out: set[str] = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.update(n.name.split("."))
            if n.asname:
                out.add(n.asname)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            if IDENTIFIER.fullmatch(n.value):
                out.update(n.value.split("."))
    return out


def _references(stmt: ast.stmt) -> set[str]:
    if isinstance(stmt, ast.ClassDef):
        found = set().union(*(_names(n) for n in [*stmt.decorator_list, *stmt.bases,
                                                  *stmt.keywords]))
        for member in stmt.body:
            found |= _references(member)
    else:
        found = _names(stmt)
    if isinstance(stmt, DEFINITIONS):
        found.discard(stmt.name)
    return found


def references(tree: ast.Module) -> set[str]:
    """Names a module references; a definition's own name inside its body
    (recursion, a class naming itself, a method calling itself) does not
    count."""
    return set().union(*(_references(stmt) for stmt in tree.body))


def program_files(root: Path) -> list[Path]:
    files = [*(root / "src").rglob("*.py"), *(root / "perfbench").rglob("*.py")]
    return sorted(f for f in files
                  if not f.name.startswith("test_") and f.name != "conftest.py")


def public_definitions(root: Path) -> dict[str, str]:
    """Public module-level function and class names -> defining module."""
    found = {}
    for path in sorted((root / "src" / "elorantd").glob("*.py")):
        for stmt in _parse(path).body:
            if isinstance(stmt, DEFINITIONS) and not stmt.name.startswith("_"):
                found[stmt.name] = path.stem
    return found


def public_members(root: Path) -> dict[str, str]:
    """'Class.member' for the public methods and properties of library
    classes -> defining module."""
    found = {}
    for path in sorted((root / "src" / "elorantd").glob("*.py")):
        for stmt in _parse(path).body:
            if isinstance(stmt, ast.ClassDef):
                for member in stmt.body:
                    if (isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not member.name.startswith("_")):
                        found[f"{stmt.name}.{member.name}"] = path.stem
    return found


def unreferenced(root: Path, defined: dict[str, str]) -> list[str]:
    used: set[str] = set()
    for path in program_files(root):
        used |= references(_parse(path))
    return sorted(f"{module}.{name}" for name, module in defined.items()
                  if name.rpartition(".")[2] not in used)


def test_every_public_library_name_is_used_outside_the_tests():
    defined = public_definitions(ROOT)
    assert {"train", "select_sigmas", "ols_oracle", "WlrAgrnnModel"} <= set(defined)
    assert unreferenced(ROOT, defined) == []


def test_every_public_library_member_is_used_outside_the_tests():
    members = public_members(ROOT)
    assert {"WlrAgrnnModel.predict_batch", "GridSpec.nearest_cell",
            "EpochHour.from_hours"} <= set(members)
    assert not any(name.rpartition(".")[2].startswith("__") for name in members)
    assert unreferenced(ROOT, members) == []


def test_a_name_used_only_in_its_own_definition_is_flagged():
    tree = ast.parse(
        "def loop(n):\n    return loop(n - 1) if n else 0\n"
        "class Box:\n    def copy(self) -> 'Box':\n        return Box()\n"
        "def used():\n    return 1\n"
        "TARGETS = ('elorantd.mod', 'used')\n"
        "class Grid:\n"
        "    def spin(self):\n        return self.spin()\n"
        "    def size(self):\n        return self.area()\n"
        "    def area(self):\n        return 1\n"
    )
    assert {"loop", "Box", "spin", "size"}.isdisjoint(references(tree))
    assert {"used", "area"} <= references(tree)
