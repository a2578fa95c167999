"""The benchmark's tracer wraps package functions by (module, attribute) name;
a renamed or removed function would only show when the benchmark runs.  This
reads perfbench/spans.py without importing it as a package module and checks
that every traced name still resolves to a callable."""

import importlib
import runpy
import unittest
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


class TestTracerTargets(unittest.TestCase):

    def test_every_target_is_a_package_callable(self):
        spans = runpy.run_path(str(SPANS), run_name="perfbench_spans")  # compiles from source; writes no cache
        targets = [pair for pairs in spans["TARGETS"].values() for pair in pairs]
        self.assertIn(("cli", "random_connected_graph"), targets)
        self.assertIn(("dynamics", "effective_edges"), targets)
        for module_name, attr in targets:
            self.assertIn(module_name, spans["MODULES"])
            module = importlib.import_module(f"garbagegame.{module_name}")
            self.assertTrue(callable(getattr(module, attr, None)), msg=f"garbagegame.{module_name}.{attr}")


if __name__ == "__main__":
    unittest.main()
