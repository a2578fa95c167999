"""Golden-bytes gate: the sha256 of fixed CLI outputs.

The digests were recorded from the pure-Python step and energy loops that
preceded the vectorized kernel.  Any change to the arithmetic order of the
step, the energy or the serialization changes these bytes, so a refactor
that is meant to be output-preserving must keep every digest.
"""

import contextlib
import hashlib
import io
import os
import tempfile
import unittest

from garbagegame.cli import VERIFY_SUITES, main

# name -> (argv, sha256 of stdout summary, sha256 of --out CSV)
SIMULATE_GOLDEN = {
    "cycle_locked": (
        ["simulate", "--generate", "cycle:12", "--init-random", "uniform:0:100", "--epsilon", "10",
         "--max-steps", "400", "--seed", "5", "--validate"],
        "e97ddb6d170f3d75a1997bd46e8d63df95867f4f8a9158023914de28999502a7",
        "a01c3983d866531a72f6c87c9cacec4c37050f07f152e8e19db08a0892efc9cf",
    ),
    "complete_inf": (
        ["simulate", "--generate", "complete:6", "--init", "1,2,3,4,5,30", "--epsilon", "inf"],
        "9867ef5f7a86f6b3d3814f10f5015f430c713c5b0531118e26e5103dd829fe3d",
        "36c88686e34e78167997a186bebe73aa695d6f54fa34f4f818a77e251bb75a8c",
    ),
    "erdos_renyi": (
        ["simulate", "--generate", "erdos_renyi:40:0.15", "--init-random", "uniform:0:50",
         "--epsilon", "15", "--max-steps", "250", "--seed", "7"],
        "8d5483145d6a005536ca8f6bded2d27896211f6d2fe2ccab008d077533c1d467",
        "35724b7506cad5c4b3f1ecf093b1a081b6206a2972ffb28e201e05d8f7ecd885",
    ),
    "star_init": (
        ["simulate", "--generate", "star:6", "--init", "9,0,1,2,3,40", "--epsilon", "8",
         "--max-steps", "300"],
        "159d46b41d3af856882145c6be96f422920937ceb588686e516a62b9efe2820f",
        "8435d610ba358344f283fc2ca38a432e1cc684d41fce328a4d137bae97cc96bd",
    ),
    "cycle_trivializes": (
        ["simulate", "--generate", "cycle:6", "--init", "0,2,4,6,8,10", "--epsilon", "8"],
        "ae38567853896e9c899532c185d0780839fa5d1c34307093559b519f42d44e57",
        "098e3b33f4b1260e9e306d1b5d79bf5a3604c8b7af9779e20db13167626af406",
    ),
    "path_period_two": (
        ["simulate", "--generate", "path:3", "--init", "0,1,5", "--epsilon", "2", "--max-steps", "5000",
         "--validate"],
        "e599a625cd4c86fbf3df42332b9c0cbde7ad61e8b596c4e575908e389109ca6a",
        "5152a51d444abfe9e6c69627e126c78f42c2a59f1084991d7d8486e5410b35e3",
    ),
}

# name -> (argv, sha256 of stdout report)
VERIFY_GOLDEN = {
    "mixed_sizes": (
        ["verify", "--suite", "lyapunov", "--trials", "12", "--sizes", "3:30", "--seed", "11"],
        "b26297ac844d3c5bd3a2995b5472e4a9f69e6aea0fa69a4e1bbd83aad15627db",
    ),
    "large_dense": (
        ["verify", "--suite", "lyapunov", "--trials", "6", "--sizes", "80:80", "--seed", "0"],
        "86c500842b67d33d8d4b14538fb6698865d5c7ce5a7051f51b51f4a8d880106c",
    ),
}

# suite -> sha256 of `verify --suite <suite>` stdout at default flags (100 trials, sizes 3:10, seed 0)
VERIFY_DEFAULTS_GOLDEN = {
    "conservation": "97f7092a7266cee3007e545a591c54fa7e244dbd314950e139c6ad012e2ad01a",
    "lyapunov": "f530b18bbdece722eb63feae1e8f4664e4d7b07c251b02032d85f5b3f94954ee",
    "triviality": "9df2dab19e3e2b2f6d785cd13d6a4399711f4025b8e785182fd1a2b86d1e11d7",
    "hull": "7b512ca99464690ed45f71a8bb3d2fea5b8820beac09e7c8f26c9ab07393b6b6",
    "equivalence": "3dc1863658084c999d54279e644c218303ad26f2dde203f3904b33dd5cd60aed",
    "cheeger": "b6aa8d3a9d134c0ca3ddfd74fbad005bcd395e4f1a21add7123061faa48dec3e",
    "displacement": "2ed8dce35e212f9b0c972b501525d170dd8213fc5201e9a87f80a7b29b6b7fac",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_main(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


class TestGoldenBytes(unittest.TestCase):

    def test_simulate_summary_and_csv(self):
        for name, (argv, summary_digest, csv_digest) in SIMULATE_GOLDEN.items():
            with self.subTest(name), tempfile.TemporaryDirectory() as tmp:
                path = os.path.join(tmp, "trajectory.csv")
                code, out = run_main(argv + ["--out", path])
                self.assertEqual(code, 0)
                self.assertEqual(sha256(out.encode()), summary_digest)
                with open(path, "rb") as fh:
                    self.assertEqual(sha256(fh.read()), csv_digest)

    def test_verify_lyapunov_report(self):
        for name, (argv, digest) in VERIFY_GOLDEN.items():
            with self.subTest(name):
                code, out = run_main(argv)
                self.assertEqual(code, 0)
                self.assertEqual(sha256(out.encode()), digest)

    def test_verify_every_suite_at_default_flags(self):
        self.assertEqual(tuple(VERIFY_DEFAULTS_GOLDEN), VERIFY_SUITES)
        for suite, digest in VERIFY_DEFAULTS_GOLDEN.items():
            with self.subTest(suite):
                code, out = run_main(["verify", "--suite", suite])
                self.assertEqual(code, 0)
                self.assertEqual(sha256(out.encode()), digest)


if __name__ == "__main__":
    unittest.main()
