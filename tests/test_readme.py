"""The README's examples run and print what the README says they print.

The Python quick start is executed and every line it prints is compared with
the "# ..." comment line that follows its print call; the simulate and
spectral command examples are run through cli.main and compared with the
JSON block that follows each.  Every value must match the README text
exactly, except lambda2, which comes from LAPACK and is compared within
1e-10.
"""

import contextlib
import io
import re
import shlex
import unittest
from pathlib import Path

from garbagegame import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w+)\n(.*?)^```$", README, flags=re.M | re.S)
LAMBDA2_TOL = 1e-10


def printed_lines(code):
    """The expected output of a code block: each '# ...' line right after a print call."""
    lines = code.splitlines()
    return [b[2:] for a, b in zip(lines, lines[1:]) if a.startswith("print(") and b.startswith("# ")]


def command_examples(name):
    """(argv, expected JSON text) for each README example of one subcommand."""
    out = []
    for (lang, body), (next_lang, next_body) in zip(BLOCKS, BLOCKS[1:]):
        words = shlex.split(body)
        if lang == "sh" and words[:2] == ["garbagegame", name] and next_lang == "json":
            out.append((words[1:], next_body.strip()))
    return out


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue().strip()


class TestReadme(unittest.TestCase):

    def assert_lambda2_close(self, got, want, msg):
        self.assertLessEqual(abs(float(got) - float(want)), LAMBDA2_TOL, msg=msg)

    def test_quick_start(self):
        (code,) = [body for lang, body in BLOCKS if lang == "python"]
        want = printed_lines(code)
        self.assertEqual(len(want), 3)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            exec(compile(code, "README.md", "exec"), {})
        got = buf.getvalue().splitlines()
        self.assertEqual(len(got), len(want))
        self.assertEqual(got[:2], want[:2])
        # cheeger_check's line: lambda2 first, then the exact fields
        (got_l2, *got_rest), (want_l2, *want_rest) = got[2].split(), want[2].split()
        self.assert_lambda2_close(got_l2, want_l2, "quick start lambda2")
        self.assertEqual(got_rest, want_rest)

    def test_simulate_example(self):
        examples = command_examples("simulate")
        self.assertEqual(len(examples), 1)
        for argv, want in examples:
            self.assertEqual(run_cli(argv), (0, want), msg=argv)

    def test_spectral_example(self):
        examples = command_examples("spectral")
        self.assertEqual(len(examples), 1)
        pattern = re.compile(r'"lambda2": ([^,]+)')
        for argv, want in examples:
            code, got = run_cli(argv)
            self.assertEqual(code, 0, msg=argv)
            self.assert_lambda2_close(pattern.search(got).group(1), pattern.search(want).group(1), argv)
            self.assertEqual(pattern.sub("", got), pattern.sub("", want), msg=argv)


if __name__ == "__main__":
    unittest.main()
