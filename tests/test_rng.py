import math
import unittest

import numpy as np

from garbagegame import rng as rng_module
from garbagegame.rng import SplitMix64, Xoshiro256StarStar, derive_seed

from fresh_python import run_python


class TestSplitMix64(unittest.TestCase):

    def test_reference_vectors_seed_zero(self):
        # first outputs of the reference C implementation for seed 0
        sm = SplitMix64(0)
        self.assertEqual(sm.next_uint64(), 0xE220A8397B1DCDAF)
        self.assertEqual(sm.next_uint64(), 0x6E789E6AA1B965F4)
        self.assertEqual(sm.next_uint64(), 0x06C45D188009454F)

    def test_reference_vectors_seed_1234567(self):
        sm = SplitMix64(1234567)
        self.assertEqual(sm.next_uint64(), 6457827717110365317)
        self.assertEqual(sm.next_uint64(), 3203168211198807973)
        self.assertEqual(sm.next_uint64(), 9817491932198370423)

    def test_seed_is_masked_to_64_bits(self):
        a = SplitMix64(2**64 + 5)
        b = SplitMix64(5)
        self.assertEqual(a.next_uint64(), b.next_uint64())


class TestXoshiro(unittest.TestCase):

    def test_deterministic_stream(self):
        a = Xoshiro256StarStar(99)
        b = Xoshiro256StarStar(99)
        self.assertEqual([a.next_uint64() for _ in range(20)],
                         [b.next_uint64() for _ in range(20)])

    def test_distinct_seeds_distinct_streams(self):
        a = Xoshiro256StarStar(1)
        b = Xoshiro256StarStar(2)
        self.assertNotEqual([a.next_uint64() for _ in range(4)],
                            [b.next_uint64() for _ in range(4)])

    def test_random_unit_interval(self):
        rng = Xoshiro256StarStar(7)
        draws = [rng.random() for _ in range(5000)]
        self.assertTrue(all(0.0 <= d < 1.0 for d in draws))
        # crude uniformity check, mean of U(0,1) is 1/2
        self.assertAlmostEqual(sum(draws) / len(draws), 0.5, delta=0.02)

    def test_uniform_bounds(self):
        rng = Xoshiro256StarStar(11)
        for _ in range(1000):
            v = rng.uniform(2.0, 5.0)
            self.assertTrue(2.0 <= v < 5.0)

    def test_randrange(self):
        rng = Xoshiro256StarStar(13)
        seen = set()
        for _ in range(2000):
            k = rng.randrange(6)
            self.assertTrue(0 <= k < 6)
            seen.add(k)
        self.assertEqual(seen, {0, 1, 2, 3, 4, 5})

    def test_outputs_are_64_bit(self):
        rng = Xoshiro256StarStar(3)
        for _ in range(100):
            v = rng.next_uint64()
            self.assertTrue(0 <= v < 2**64)


class TestBelow(unittest.TestCase):
    """``below`` against the scalar stream of a twin generator."""

    # small counts, the square 49 and its neighbours, 7 * 8 and a prime
    COUNTS = (0, 1, 2, 3, 48, 49, 50, 56, 97)
    # (seed, scalar draws made before below), and p inside, at and beyond the ends of [0, 1)
    STARTS = ((0, 0), (99, 1), (2**64 - 1, 7))
    PS = (0.0, 1.0, 0.3, 2.0**-60, 1.0 - 2.0**-53, -0.5, 1.5, math.nan)

    def check(self, seed, count, ps, skip=0):
        twin = Xoshiro256StarStar(seed)
        for _ in range(skip):
            twin.random()
        draws = [twin.random() for _ in range(count)]
        after = [twin.next_uint64() for _ in range(4)]
        for p in ps:
            rng = Xoshiro256StarStar(seed)
            for _ in range(skip):
                rng.random()
            mask = rng.below(count, p)
            self.assertEqual(mask.dtype, np.bool_)
            # array_equal: a list assertEqual diffs all of a failing 499500-draw mask for minutes
            want = np.array([d < p for d in draws], dtype=bool)
            self.assertEqual(mask.shape, want.shape, msg=(seed, count, p))
            self.assertTrue(np.array_equal(mask, want), msg=(seed, count, p, np.flatnonzero(mask != want)[:5]))
            self.assertEqual([rng.next_uint64() for _ in range(4)], after, msg=(seed, count, p))
        return draws

    def test_lane_boundaries(self):
        for seed in (0, 1, 99, 2**64 - 1):
            for count in self.COUNTS:
                self.check(seed, count, (0.0, 0.3, 1.0))
        self.check(0, np.int64(97), (0.3,))  # any integer type counts

    def test_mid_stream_start(self):
        for skip in (1, 5):
            for count in (1, 50, 1000):
                self.check(17, count, (0.0, 0.3, 1.0), skip=skip)

    def test_full_er_threshold_count(self):
        # 1000 * 999 / 2 pairs: the Erdos-Renyi graph of the er_threshold workload
        self.check(0, 499500, (0.0, 0.3, 1.0))

    def test_every_count_p_and_start_against_the_scalar_twin(self):
        # every lane length and lane count up to 300 draws, and each side of every power of two
        # up to 2^16, where the lane length and the number of doubling passes change
        counts = sorted(set(range(301)) | {2**k + d for k in range(1, 17) for d in (-1, 0, 1)})
        for seed, skip in self.STARTS:
            draws_twin, outputs_twin = Xoshiro256StarStar(seed), Xoshiro256StarStar(seed)
            for _ in range(skip):
                draws_twin.random()
                outputs_twin.random()
            draws = np.array([draws_twin.random() for _ in range(counts[-1])])
            outputs = [outputs_twin.next_uint64() for _ in range(counts[-1] + 4)]
            for count in counts:
                for p in self.PS:
                    rng = Xoshiro256StarStar(seed)
                    for _ in range(skip):
                        rng.random()
                    mask = rng.below(count, p)
                    self.assertEqual(mask.dtype, np.bool_)
                    self.assertTrue(np.array_equal(mask, draws[:count] < p), msg=(seed, skip, count, p))
                    self.assertEqual([rng.next_uint64() for _ in range(4)], outputs[count : count + 4],
                                     msg=(seed, skip, count, p))

    def test_jump_cache_across_counts(self):
        # the ladder's rungs are built once and shared: later counts, larger or
        # smaller, reuse the rung arrays already built, which are read-only
        counts, p = (50, 97, 3160, 50), 0.3
        for seed in (0, 99):
            twin = Xoshiro256StarStar(seed)
            rng = Xoshiro256StarStar(seed)
            for k, count in enumerate(counts):
                want = [twin.random() < p for _ in range(count)]
                self.assertEqual(rng.below(count, p).tolist(), want, msg=(seed, count))
                if k == 0:
                    built = dict(rng_module._LADDER)
            self.assertEqual([rng.next_uint64() for _ in range(4)], [twin.next_uint64() for _ in range(4)])
        ladder = rng_module._LADDER
        self.assertTrue(set(range(1, 12)) <= set(ladder))  # 50 draws jump by rungs 1..5, 3160 by 4..11
        for e, rung in built.items():
            self.assertIs(ladder[e], rung)
        for rung in ladder.values():
            self.assertFalse(rung.flags.writeable)
        with self.assertRaises(ValueError):
            ladder[1][0, 0, 0] = 0

    def run_fresh(self, code, *args):
        proc = run_python("-c", code, *map(str, args))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return proc.stdout.split("\n")

    FRESH = """
import hashlib, sys
from garbagegame import rng
for count in map(int, sys.argv[1:]):
    g = rng.Xoshiro256StarStar(count)
    mask = g.below(count, 0.3)
    print(count, hashlib.sha256(mask.tobytes()).hexdigest(), g.next_uint64())
print(sorted(rng._LADDER) == list(range(19)), sum(rung.nbytes for rung in rng._LADDER.values()))
"""

    def test_masks_do_not_depend_on_the_rungs_already_cached(self):
        # the benchmark-sized counts (the certify graphs' 120 and 3160 pairs, the
        # er_threshold graph's 499500), each in a fresh interpreter, in both orders
        ascending = self.run_fresh(self.FRESH, 120, 3160, 499500)
        descending = self.run_fresh(self.FRESH, 499500, 3160, 120)
        self.assertEqual(sorted(ascending[:3]), sorted(descending[:3]))
        single = [self.run_fresh(self.FRESH, count)[0] for count in (120, 3160)]
        self.assertEqual(single, ascending[:2])
        # the ladder holds rungs 0..18 at 8 KB each: a rung per doubling of the
        # 499500 draws, with no per-count or per-length tables
        self.assertEqual(ascending[3], "True 155648")
        self.assertEqual(descending[3], "True 155648")

    def test_tie_reads_false(self):
        # a draw equal to p is not below it; the next double above the draw is,
        # which a bound rounded down rather than up would miss
        draws = self.check(5, 56, ())
        for k in (0, 23, 55):
            for p in (draws[k], math.nextafter(draws[k], math.inf)):
                rng = Xoshiro256StarStar(5)
                mask = rng.below(56, p)
                self.assertEqual(mask[k], p > draws[k])
                self.assertEqual(mask.tolist(), [d < p for d in draws])


class TestDeriveSeed(unittest.TestCase):

    def test_index_zero_matches_splitmix_stream(self):
        # derive_seed(s, k) is the (k+1)-th output of splitmix64 seeded with s
        sm = SplitMix64(0)
        self.assertEqual(derive_seed(0, 0), sm.next_uint64())
        self.assertEqual(derive_seed(0, 1), sm.next_uint64())

    def test_distinct_indices(self):
        seeds = {derive_seed(42, i) for i in range(1000)}
        self.assertEqual(len(seeds), 1000)

    def test_range(self):
        for i in range(50):
            self.assertTrue(0 <= derive_seed(123456789, i) < 2**64)


if __name__ == "__main__":
    unittest.main()
