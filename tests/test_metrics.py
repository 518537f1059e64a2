import numpy as np
import pytest

from vswu.metrics import (_pooled_surface_distances, asd, boundary_pixels, dsc, hd95,
                          pair_row, sens_spec, summarize)

from oracles import (boundary_pixels_loop, confusion_counts,
                     kdtree_surface_distances, surface_distances_allpairs)


def random_mask_pair(seed, h=32, w=32):
    rng = np.random.default_rng(seed)
    # blobby masks: threshold smoothed noise so boundaries are interesting
    def blob():
        base = rng.random((h, w))
        sm = base.copy()
        for _ in range(2):
            sm = (sm + np.roll(sm, 1, 0) + np.roll(sm, -1, 0)
                  + np.roll(sm, 1, 1) + np.roll(sm, -1, 1)) / 5.0
        return sm > np.quantile(sm, 0.7)

    return blob(), blob()


class TestDsc:
    def test_identical_nonempty(self):
        m = np.zeros((8, 8), bool)
        m[2:5, 2:5] = True
        assert dsc(m, m) == 1.0

    def test_disjoint(self):
        a = np.zeros((8, 8), bool)
        b = np.zeros((8, 8), bool)
        a[0, 0] = True
        b[7, 7] = True
        assert dsc(a, b) == 0.0

    def test_hand_case_half(self):
        a = np.zeros((4, 4), bool)
        b = np.zeros((4, 4), bool)
        a[0, 0] = a[0, 1] = True
        b[0, 1] = b[0, 2] = True
        assert dsc(a, b) == 0.5

    def test_both_empty_is_one(self):
        assert dsc(np.zeros((4, 4), bool), np.zeros((4, 4), bool)) == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="differ"):
            dsc(np.zeros((4, 4), bool), np.zeros((4, 5), bool))


class TestSurfaceDistances:
    def test_identical_zero(self):
        m = np.zeros((10, 10), bool)
        m[3:7, 2:8] = True
        assert hd95(m, m) == 0.0
        assert asd(m, m) == 0.0

    def test_single_pixels_3_4_5(self):
        a = np.zeros((8, 8), bool)
        b = np.zeros((8, 8), bool)
        a[0, 0] = True
        b[3, 4] = True
        assert hd95(a, b) == 5.0
        assert asd(a, b) == 5.0

    def test_shifted_square_unit_distance(self):
        a = np.zeros((10, 10), bool)
        b = np.zeros((10, 10), bool)
        a[2:6, 2:6] = True
        b[2:6, 3:7] = True
        pooled = surface_distances_allpairs(a, b)
        assert hd95(a, b) == pytest.approx(np.percentile(pooled, 95), abs=1e-9)
        assert hd95(a, b) == 1.0

    def test_empty_mask_undefined(self):
        m = np.zeros((6, 6), bool)
        n = np.zeros((6, 6), bool)
        n[2, 2] = True
        assert hd95(m, n) is None
        assert asd(n, m) is None

    def test_symmetry(self):
        for seed in range(5):
            a, b = random_mask_pair(seed)
            if not a.any() or not b.any():
                continue
            assert hd95(a, b) == hd95(b, a)
            assert asd(a, b) == asd(b, a)

    def test_boundary_extraction_matches_loop(self):
        for seed in range(5):
            a, _ = random_mask_pair(seed, 16, 16)
            fast = {tuple(p) for p in boundary_pixels(a)}
            slow = set(boundary_pixels_loop(a))
            assert fast == slow

    def test_border_pixels_are_boundary(self):
        m = np.ones((5, 5), bool)
        pts = {tuple(p) for p in boundary_pixels(m)}
        assert (0, 2) in pts and (2, 0) in pts and (4, 4) in pts
        assert (2, 2) not in pts


class TestSensSpec:
    def test_perfect(self):
        m = np.zeros((6, 6), bool)
        m[1:4, 1:4] = True
        assert sens_spec(m, m) == (1.0, 1.0)

    def test_all_ones_prediction(self):
        gt = np.zeros((4, 4), bool)
        gt[:2] = True
        s, p = sens_spec(np.ones((4, 4), bool), gt)
        assert s == 1.0 and p == 0.0

    def test_all_zero_prediction(self):
        gt = np.zeros((4, 4), bool)
        gt[0, 0] = True
        s, p = sens_spec(np.zeros((4, 4), bool), gt)
        assert s == 0.0 and p == 1.0

    def test_empty_denominator_fallback(self):
        empty = np.zeros((4, 4), bool)
        s, p = sens_spec(empty, empty)
        assert s == 1.0 and p == 1.0


def test_fifty_seeded_pairs_match_bruteforce():
    """DSC/sensitivity/specificity exact, HD95/ASD within 1e-9 of the
    all-pairs oracle, on 50 seeded 32x32 mask pairs."""
    for seed in range(50):
        a, b = random_mask_pair(seed)
        tp, fp, tn, fn = confusion_counts(a, b)
        denom = (a.sum() + b.sum())
        expected_dsc = 1.0 if denom == 0 else 2.0 * tp / denom
        assert dsc(a, b) == expected_dsc
        s, p = sens_spec(a, b)
        assert s == (tp / (tp + fn) if tp + fn else 1.0)
        assert p == (tn / (tn + fp) if tn + fp else 1.0)

        pooled = surface_distances_allpairs(a, b)
        if pooled is None:
            assert hd95(a, b) is None and asd(a, b) is None
        else:
            assert abs(hd95(a, b) - np.percentile(pooled, 95)) <= 1e-9
            assert abs(asd(a, b) - pooled.mean()) <= 1e-9


def _distance_cases():
    """Mask pairs for the KD-tree comparison: (name, a, b)."""
    gen = np.random.default_rng(20261020)
    for seed in range(20):
        yield (f"blob{seed}", *random_mask_pair(seed + 2000))
    for i in range(6):
        yield (f"speckle{i}", gen.random((48, 48)) < 0.3, gen.random((48, 48)) < 0.3)
    yield ("32x64", *random_mask_pair(7, 32, 64))
    yield ("64x32", *random_mask_pair(8, 64, 32))
    dot = np.zeros((16, 16), bool)
    dot[5, 9] = True
    blob, _ = random_mask_pair(9, 16, 16)
    yield ("single pixel", dot, blob)
    yield ("single pixel both", dot, np.roll(dot, (4, -7), (0, 1)))
    full = np.ones((12, 20), bool)
    edge = np.zeros((12, 20), bool)
    edge[:, :3] = True
    edge[-2:] = True
    yield ("border touching", full, edge)
    # boundaries that leave whole columns empty: two thin far-apart bars
    # and a ring around a wide hole
    bars = np.zeros((20, 30), bool)
    bars[2:18, 1] = bars[2:18, 27:29] = True
    ring = np.zeros((20, 30), bool)
    ring[3:17, 4:26] = True
    ring[5:15, 6:24] = False
    yield ("empty columns", bars, ring)
    yield ("empty columns swapped", ring, bars)


def test_surface_distances_equal_kdtree_bit_for_bit():
    """The column-gap scan returns the KD-tree's pooled distances exactly:
    same values in the same order, so HD95 and ASD cannot move."""
    for name, a, b in _distance_cases():
        got = _pooled_surface_distances(a, b)
        want = kdtree_surface_distances(a, b)
        assert got is not None and want is not None, name
        assert got.dtype == want.dtype == np.float64, name
        assert np.array_equal(got, want), name


def test_asd_bounded_by_hd95_and_max():
    for seed in range(50):
        a, b = random_mask_pair(seed + 1000)
        pooled = surface_distances_allpairs(a, b)
        if pooled is None:
            continue
        assert asd(a, b) <= hd95(a, b) + 1e-12
        assert hd95(a, b) <= pooled.max() + 1e-12


def test_dilation_never_increases_specificity(rng):
    gt = np.zeros((24, 24), bool)
    gt[8:16, 8:16] = True
    pred = gt.copy()
    last_spec = sens_spec(pred, gt)[1]
    for _ in range(4):
        grown = (np.roll(pred, 1, 0) | np.roll(pred, -1, 0)
                 | np.roll(pred, 1, 1) | np.roll(pred, -1, 1) | pred)
        spec = sens_spec(grown, gt)[1]
        assert spec <= last_spec + 1e-12
        pred, last_spec = grown, spec


def test_report_aggregation_flags_undefined():
    a = np.zeros((8, 8), bool)
    b = np.zeros((8, 8), bool)
    c = np.zeros((8, 8), bool)
    c[2:4, 2:4] = True
    # per snippet, one row per channel: bolus, then pharynx
    doc = summarize([(pair_row(a, b), pair_row(c, c)), (pair_row(c, c), pair_row(c, c))],
                    params=10, flops=20)
    bolus = doc["channels"]["bolus"]
    assert bolus["n_pairs"] == 2 and bolus["n_distance_undefined"] == 1
    assert bolus["dsc"] == 1.0  # empty-empty counts 1.0, identical counts 1.0
    assert bolus["hd95"] == 0.0  # only the defined pair aggregates
    assert doc["channels"]["pharynx"]["n_distance_undefined"] == 0
    assert doc["model"] == {"params": 10, "flops": 20}
    assert "flop_convention" in doc["notes"]
    # every pair undefined: no distance mean at all
    undefined = summarize([(pair_row(a, b), pair_row(c, a))] * 3, params=0, flops=0)
    for ch in undefined["channels"].values():
        assert ch["hd95"] is None and ch["asd"] is None
        assert ch["n_distance_undefined"] == ch["n_pairs"] == 3
