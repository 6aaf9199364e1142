"""`src/twodst` holds only what something other than the tests runs.

Every function, class and method defined in the package, except dunders
and the public names of `twodst.__all__`, must be named somewhere in the
package itself (`__init__.py` aside, since it only re-exports), in the
benchmark (`perfbench/`, its tests aside) or in `scripts/`. A name counts
when it appears as a variable, an attribute, an import, or a string
constant that is an identifier: the benchmark's tracer names the calls it
wraps as strings. Code that only tests reach belongs in `tests/oracles.py`.
"""

import ast
from pathlib import Path

import twodst

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "twodst"


def _definitions(module: ast.Module) -> list[tuple[str, str, bool]]:
    """(qualified name, name, top level) of every function and class,
    methods and nested definitions included."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out.append((prefix + child.name, child.name, not prefix))
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(module, "")
    return out


def _names_used(module: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(module):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rpartition(".")[2])
            used.add(node.asname)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                used.add(node.value)
    return used


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def test_every_definition_is_used_outside_the_tests():
    users = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    users += [p for p in sorted((ROOT / "perfbench").rglob("*.py"))
              if not p.name.startswith("test_")]
    users += sorted((ROOT / "scripts").rglob("*.py"))
    used = set().union(*(_names_used(_parse(p)) for p in users))

    public = set(twodst.__all__)
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualified, name, top in _definitions(_parse(path)):
            dunder = name.startswith("__") and name.endswith("__")
            if dunder or (top and name in public) or name in used:
                continue
            unused.append(f"{path.stem}.{qualified}")
    assert unused == [], f"defined in src/twodst but reached only by the tests: {unused}"
