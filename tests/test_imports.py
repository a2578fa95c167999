"""Every name a package module imports at module level is used in that module:
read as a Name in its code or inside a quoted annotation such as
"Threshold | float".  A mention in a docstring or comment does not count."""

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


if __name__ == "__main__":
    unittest.main()
