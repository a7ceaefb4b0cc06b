import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from msfm.errors import FormatError
from msfm.features import (
    DESCRIPTOR_DIM,
    FeatureSet,
    FeatureStore,
    load_features,
    quantize_scale_levels,
    scale_coverage,
    select_top_scale,
    write_features,
)


def make_set(n, rng=None, image_id=0, width=1024, height=768, scales=None):
    rng = rng or np.random.default_rng(0)
    xy = rng.uniform(0, [width - 1e-3, height - 1e-3], size=(n, 2))
    if scales is None:
        scales = rng.uniform(1.0, 30.0, size=n)
    descs = rng.integers(0, 256, size=(n, DESCRIPTOR_DIM), dtype=np.uint8)
    return FeatureSet.from_arrays(image_id, width, height, xy, scales,
                                  rng.uniform(0, 2 * np.pi, size=n), descs)


class TestLoadStore:
    def test_empty_file_roundtrip(self, tmp_path):
        fs = make_set(0)
        path = tmp_path / "empty.msft"
        write_features(fs, path)
        loaded = load_features(path)
        assert len(loaded) == 0
        assert loaded.coarse_count == 0

    def test_sort_contract(self, tmp_path):
        fs = make_set(3, scales=np.array([1.6, 4.0, 2.2]))
        expected = np.array([4.0, 2.2, 1.6], dtype=np.float32)
        assert np.array_equal(fs.scale, expected)

    def test_roundtrip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(42)
        fs = make_set(10_000, rng)
        path = tmp_path / "big.msft"
        write_features(fs, path)
        loaded = load_features(path)
        assert np.array_equal(loaded.descriptors, fs.descriptors)
        assert np.array_equal(loaded.xy, fs.xy)
        assert np.array_equal(loaded.scale, fs.scale)
        assert np.array_equal(loaded.orientation, fs.orientation)
        assert (loaded.image_id, loaded.width, loaded.height) == (0, 1024, 768)
        # second write reproduces the bytes exactly
        path2 = tmp_path / "big2.msft"
        write_features(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.msft"
        path.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(FormatError, match="byte 0"):
            load_features(path)

    def test_truncated_payload(self, tmp_path):
        fs = make_set(5)
        path = tmp_path / "trunc.msft"
        write_features(fs, path)
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        with pytest.raises(FormatError, match="byte"):
            load_features(path)

    def test_image_id_below_2_31(self, tmp_path):
        # refs pack image << 32 | feature into an int64; 2^31 would wrap negative
        path = tmp_path / "big.msft"
        write_features(make_set(3, image_id=2 ** 31 - 1), path)
        assert load_features(path).image_id == 2 ** 31 - 1
        write_features(make_set(3, image_id=2 ** 31), path)
        with pytest.raises(FormatError, match="byte 8"):
            load_features(path)

    def test_out_of_bounds_feature(self, tmp_path):
        fs = make_set(3)
        fs.xy[1, 0] = 5000.0
        path = tmp_path / "oob.msft"
        write_features(fs, path)
        with pytest.raises(FormatError, match="record 1"):
            load_features(path)

    def test_store_load_dir(self, tmp_path):
        for i in range(3):
            write_features(make_set(10, image_id=i), tmp_path / f"img_{i}.msft")
        store = FeatureStore.load_dir(tmp_path)
        assert store.image_ids() == [0, 1, 2]
        assert len(store[1]) == 10


class TestSelectTopScale:
    def test_exact_20_percent(self):
        fs = make_set(1000)
        assert select_top_scale(fs, 20).coarse_count == 200

    def test_small_set_uses_all(self):
        fs = make_set(999)
        assert select_top_scale(fs, 20).coarse_count == 999

    def test_eta_100(self):
        fs = make_set(1500)
        assert select_top_scale(fs, 100).coarse_count == 1500

    def test_eta_out_of_range(self):
        fs = make_set(10)
        with pytest.raises(ValueError):
            select_top_scale(fs, 0)
        with pytest.raises(ValueError):
            select_top_scale(fs, 101)

    def test_ceil_rounding(self):
        fs = make_set(1001)
        assert select_top_scale(fs, 20).coarse_count == 201

    @given(st.integers(min_value=1000, max_value=3000),
           st.floats(min_value=1.0, max_value=99.0),
           st.floats(min_value=1.0, max_value=99.0))
    @settings(max_examples=25, deadline=None)
    def test_tier_monotone_in_eta(self, n, eta1, eta2):
        fs = make_set(n)
        lo, hi = sorted([eta1, eta2])
        c1 = select_top_scale(fs, lo).coarse_count
        c2 = select_top_scale(fs, hi).coarse_count
        assert c1 <= c2  # prefix tiers, so subset follows from the counts

    def test_tier_scale_dominates_rest(self):
        fs = select_top_scale(make_set(2000), 20)
        tier = fs.scale[: fs.coarse_count]
        rest = fs.scale[fs.coarse_count:]
        assert tier.min() >= rest.max()


class TestScaleCoverage:
    def test_single_level(self):
        fs = make_set(1200, scales=np.full(1200, 3.2))
        assert scale_coverage(fs, 20) == 1.0

    def test_full_coverage_when_tier_spans_all(self):
        # two levels, alternating: the 50% tier still holds both
        scales = np.where(np.arange(2000) % 2 == 0, 1.6, 3.2)
        fs = make_set(2000, scales=scales)
        assert scale_coverage(fs, 60) == 1.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            scale_coverage(make_set(0), 20)

    def test_geometric_population_exceeds_90_percent(self):
        # level n holds twice the features of level n+1, over 24 levels
        counts = [2 ** max(13 - lv, 0) for lv in range(24)]
        scales = np.concatenate([
            np.full(c, 1.6 * 2.0 ** (lv / 3.0), dtype=np.float32)
            for lv, c in enumerate(counts)
        ])
        fs = make_set(len(scales), scales=scales)
        # independent expectation computed straight from the constructed counts
        n = len(scales)
        tier_count = int(np.ceil(0.20 * n))
        remaining = tier_count
        spanned = set()
        for lv in reversed(range(24)):
            if remaining <= 0:
                break
            spanned.add(lv)
            remaining -= counts[lv]
        expected = len(spanned) / 24.0
        got = scale_coverage(fs, 20)
        assert got == pytest.approx(expected)
        assert got > 0.9

    def test_quantization_matches_levels(self):
        levels = np.array([0, 1, 5, 23])
        scales = 1.6 * 2.0 ** (levels / 3.0)
        assert quantize_scale_levels(scales).tolist() == levels.tolist()
