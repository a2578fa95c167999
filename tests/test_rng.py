import unittest

import numpy as np

from garbagegame.rng import SplitMix64, Xoshiro256StarStar, derive_seed


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

    # lane and tail boundaries (k^2 - 1, k^2, k^2 + 1 and k(k + 1) for k = 7) and a prime
    COUNTS = (0, 1, 2, 3, 48, 49, 50, 56, 97)

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
            self.assertEqual(mask.tolist(), [d < p for d in draws], msg=(seed, count, p))
            self.assertEqual([rng.next_uint64() for _ in range(4)], after, msg=(seed, count, p))
        return draws

    def test_lane_boundaries(self):
        for seed in (0, 1, 99, 2**64 - 1):
            for count in self.COUNTS:
                self.check(seed, count, (0.0, 0.3, 1.0))

    def test_mid_stream_start(self):
        for skip in (1, 5):
            for count in (1, 50, 1000):
                self.check(17, count, (0.0, 0.3, 1.0), skip=skip)

    def test_full_er_threshold_count(self):
        # 1000 * 999 / 2 pairs: the Erdos-Renyi graph of the er_threshold workload
        self.check(0, 499500, (0.0, 0.3, 1.0))

    def test_tie_reads_false(self):
        draws = self.check(5, 56, ())
        for k in (0, 23, 55):
            rng = Xoshiro256StarStar(5)
            mask = rng.below(56, draws[k])
            self.assertFalse(mask[k])
            self.assertEqual(mask.tolist(), [d < draws[k] for d in draws])


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
