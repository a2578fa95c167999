"""Every name a package module imports at module level is used in that module:
read as a Name in its code or inside a quoted annotation such as
"Threshold | float".  A mention in a docstring or comment does not count.

Every private name the package defines, a module-level function, class or
constant whose name starts with one underscore, or such a method of a
module-level class, is read somewhere in the package: as a Name, an
attribute or an imported name."""

import ast
import unittest
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "garbagegame"


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name bound by a module-level import, with its line; __future__ imports bind none."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            names.update({(a.asname or a.name).split(".")[0]: node.lineno for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update({a.asname or a.name: node.lineno for a in node.names})
    return names


def used_names(tree: ast.Module) -> set[str]:
    """The Names read anywhere in the module, including those of quoted annotations."""
    annotations = [n.annotation for n in ast.walk(tree) if isinstance(n, (ast.arg, ast.AnnAssign))]
    annotations += [n.returns for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    quoted = [ast.parse(a.value, mode="eval") for a in annotations if isinstance(a, ast.Constant) and isinstance(a.value, str)]
    return {n.id for root in (tree, *quoted) for n in ast.walk(root) if isinstance(n, ast.Name)}


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Each private module-level function, class and constant, and each private method
    of a module-level class, with its line."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs[node.name] = node.lineno
        if isinstance(node, ast.ClassDef):
            defs.update({f.name: f.lineno for f in node.body if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))})
        targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
        defs.update({t.id: node.lineno for t in targets if isinstance(t, ast.Name)})
    return {name: line for name, line in defs.items() if is_private(name)}


def read_names(tree: ast.Module) -> set[str]:
    """The names the module reads: as a Name or an attribute (not assigned to), or imports by name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
    return names


class TestImportsAreUsed(unittest.TestCase):

    def test_every_module_level_import_is_used(self):
        modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
        self.assertIn(PACKAGE / "cli.py", modules)
        for path in modules:
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            used = used_names(tree)
            unused = [f"{name} (line {line})" for name, line in imported_names(tree).items() if name not in used]
            self.assertEqual(unused, [], msg=path.name)

    def test_the_package_exports_what_it_imports(self):
        # from garbagegame import * must bind every name __init__ imports, and only those
        tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
        (exported,) = [ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                       and [getattr(t, "id", None) for t in node.targets] == ["__all__"]]
        self.assertEqual(len(exported), len(set(exported)))
        self.assertEqual(set(exported), set(imported_names(tree)))

    def test_a_quoted_annotation_counts_and_a_docstring_does_not(self):
        tree = ast.parse('from m import A, B, C\n\ndef f(x: "A | float") -> "list[B]":\n    """C"""\n')
        self.assertEqual(used_names(tree), {"A", "B", "float", "list"})


class TestPrivateNamesAreRead(unittest.TestCase):

    def test_every_private_definition_is_read(self):
        trees = {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in sorted(PACKAGE.glob("*.py"))}
        read = set().union(*map(read_names, trees.values()))
        defined = [(module, name, line) for module, tree in trees.items() for name, line in private_definitions(tree).items()]
        self.assertGreater(len(defined), 40)
        self.assertEqual([f"{module}:{line} {name}" for module, name, line in defined if name not in read], [])

    def test_a_definition_or_an_assignment_is_not_a_read(self):
        tree = ast.parse("import m\nfrom m import _a\n_B = 1\n\ndef _unused():\n    m._c = _d\n\n"
                         "class _K:\n    def _e(self):\n        return self._f\n    def __len__(self):\n        return 0\n")
        self.assertEqual(private_definitions(tree), {"_B": 3, "_unused": 5, "_K": 8, "_e": 9})
        self.assertEqual(read_names(tree) & {"_a", "_B", "_unused", "_K", "_c", "_d", "_e", "_f"}, {"_a", "_d", "_f"})


if __name__ == "__main__":
    unittest.main()
