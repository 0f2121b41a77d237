import numpy as np
import pytest

from promptseg.dataio import (
    PALETTE,
    SegmentationSample,
    SyntheticTaskSpec,
    apply_affine,
    augment,
    cubic_kernel,
    generate_dataset,
    load_dataset,
    resize_bicubic,
    save_dataset,
)
from promptseg.tensor import ConfigError, ShapeError


def default_spec(**kw):
    base = dict(n_classes=2, image_size=32,
                samples_per_split={"train": 16, "val": 8, "test": 8},
                seed=5, align=4)
    base.update(kw)
    return SyntheticTaskSpec(**base)


class TestSampleContract:
    def test_mask_shape_validated(self):
        with pytest.raises(ShapeError):
            SegmentationSample(image=np.zeros((3, 8, 8)), phrase="x",
                               mask=np.zeros((4, 4)), class_id=0)

    def test_phrase_nonempty(self):
        with pytest.raises(ValueError):
            SegmentationSample(image=np.zeros((3, 8, 8)), phrase="",
                               mask=np.zeros((8, 8)), class_id=0)


class TestGenerate:
    def test_n_classes_range(self):
        with pytest.raises(ConfigError):
            default_spec(n_classes=1)
        with pytest.raises(ConfigError):
            default_spec(n_classes=len(PALETTE) + 1)

    def test_align_at_most_image_size(self):
        with pytest.raises(ConfigError, match="align 33 exceeds image_size 32"):
            default_spec(align=33)
        for split in generate_dataset(default_spec(align=32)).values():
            for s in split:
                assert s.mask.shape == (32, 32)

    def test_deterministic(self):
        a = generate_dataset(default_spec())
        b = generate_dataset(default_spec())
        for split in a:
            for sa, sb in zip(a[split], b[split]):
                assert np.array_equal(sa.image, sb.image)
                assert np.array_equal(sa.mask, sb.mask)
                assert sa.phrase == sb.phrase

    def test_masks_nonempty_and_binary(self):
        ds = generate_dataset(default_spec())
        for split in ds.values():
            for s in split:
                assert s.mask.sum() > 0
                assert set(np.unique(s.mask)) <= {0, 1}
                assert s.image.min() >= 0.0 and s.image.max() <= 1.0

    def test_phrase_names_class(self):
        ds = generate_dataset(default_spec())
        for s in ds["train"]:
            assert s.phrase == PALETTE[s.class_id][0]

    def test_class_histogram_uniform(self):
        spec = default_spec(n_classes=4,
                            samples_per_split={"train": 1000})
        ds = generate_dataset(spec)
        counts = np.bincount([s.class_id for s in ds["train"]], minlength=4)
        assert np.all(np.abs(counts - 250) <= 25)  # within ±10%

    def test_splits_differ(self):
        ds = generate_dataset(default_spec())
        assert not np.array_equal(ds["train"][0].image, ds["val"][0].image)


class TestBicubic:
    def test_identity_when_same_size(self):
        rng = np.random.default_rng(0)
        img = rng.random((3, 8, 8))
        out = resize_bicubic(img, 8)
        assert np.allclose(out, img, atol=1e-12)

    def test_constant_preserved(self):
        img = np.full((3, 6, 6), 0.37)
        out = resize_bicubic(img, 12)
        assert np.allclose(out, 0.37, atol=1e-12)

    def test_target_minimum(self):
        with pytest.raises(ConfigError):
            resize_bicubic(np.zeros((3, 8, 8)), 3)

    def test_degenerate_input(self):
        with pytest.raises(ShapeError):
            resize_bicubic(np.zeros((3, 1, 8)), 8)

    def test_matches_standalone_scalar_evaluator(self):
        """Oracle: an independently coded pointwise bicubic evaluation of a ramp."""
        n_in, n_out = 8, 20
        row = np.linspace(0.0, 1.0, n_in)
        img = np.tile(row, (n_in, 1))
        out = resize_bicubic(img[None], n_out)[0]

        def scalar_bicubic(samples, x):
            # clamped 4-tap Catmull-Rom at a single continuous coordinate
            i0 = int(np.floor(x))
            acc = 0.0
            for k in range(-1, 3):
                idx = min(max(i0 + k, 0), len(samples) - 1)
                acc += samples[idx] * cubic_kernel(k - (x - i0))
            return acc

        scale = n_in / n_out
        for j in range(n_out):
            x = (j + 0.5) * scale - 0.5
            expected = scalar_bicubic(row, x)
            assert abs(out[0, j] - expected) < 1e-9
        # separable: every output row of the ramp image is identical
        assert np.allclose(out, out[0], atol=1e-12)

    def test_kernel_partition_of_unity(self):
        # at any phase the four Catmull-Rom taps sum to 1
        for frac in np.linspace(0.0, 1.0, 11):
            total = sum(cubic_kernel(k - frac) for k in range(-1, 3))
            assert abs(total - 1.0) < 1e-12


class TestAugment:
    def _sample(self):
        ds = generate_dataset(default_spec())
        return ds["train"][0]

    def test_identity_transform(self):
        s = self._sample()
        out = apply_affine(s, scale=1.0, tx=0.0, ty=0.0, rot_deg=0.0,
                           brightness=0.0, contrast=1.0)
        assert np.allclose(out.image, s.image, atol=1e-12)
        assert np.array_equal(out.mask, s.mask)

    def test_mask_stays_binary(self):
        s = self._sample()
        rng = np.random.default_rng(1)
        for _ in range(10):
            out = augment(s, rng)
            assert set(np.unique(out.mask)) <= {0, 1}
            assert out.image.min() >= 0.0 and out.image.max() <= 1.0

    def test_translation_moves_centroid(self):
        s = self._sample()
        w = s.image.shape[-1]
        shift = max(1, int(0.01 * w) or 1)
        out = apply_affine(s, scale=1.0, tx=float(shift), ty=0.0, rot_deg=0.0,
                           brightness=0.0, contrast=1.0)
        before = np.argwhere(s.mask).mean(axis=0)
        after = np.argwhere(out.mask).mean(axis=0)
        assert abs((after[1] - before[1]) - shift) <= 1.0
        assert abs(after[0] - before[0]) <= 1.0

    def test_jitter_ranges(self):
        # draw parameters by reproducing augment()'s rng consumption
        rng = np.random.default_rng(2)
        s = self._sample()
        size = s.image.shape[-1]
        for _ in range(200):
            scale = 1.0 + rng.uniform(-0.02, 0.02)
            tx = rng.uniform(-0.02, 0.02) * size
            ty = rng.uniform(-0.02, 0.02) * size
            rot = rng.uniform(-5.0, 5.0)
            brightness = rng.uniform(-0.10, 0.10)
            contrast = 1.0 + rng.uniform(-0.10, 0.10)
            assert 0.98 <= scale <= 1.02
            assert abs(tx) <= 0.02 * size and abs(ty) <= 0.02 * size
            assert abs(rot) <= 5.0
            assert abs(brightness) <= 0.10
            assert 0.90 <= contrast <= 1.10

    def test_photometric_only_touches_image(self):
        s = self._sample()
        out = apply_affine(s, scale=1.0, tx=0.0, ty=0.0, rot_deg=0.0,
                           brightness=0.05, contrast=1.1)
        assert np.array_equal(out.mask, s.mask)
        assert not np.allclose(out.image, s.image)


class TestPersistence:
    def test_round_trip_masks_exact_images_quantized(self, tmp_path):
        ds = generate_dataset(default_spec(samples_per_split={"train": 4, "val": 2, "test": 2}))
        save_dataset(tmp_path / "ds", ds)
        loaded = load_dataset(tmp_path / "ds")
        assert sorted(loaded) == ["test", "train", "val"]
        for split in ds:
            assert len(loaded[split]) == len(ds[split])
            for a, b in zip(ds[split], loaded[split]):
                assert np.array_equal(a.mask, b.mask)
                assert a.phrase == b.phrase
                assert a.class_id == b.class_id
                # 16-bit quantization error bound
                assert np.max(np.abs(a.image - b.image)) <= 0.5 / 65535 + 1e-12

    def test_loaded_fixture_round_trips_bit_exactly(self, tmp_path):
        # saving what was loaded reproduces identical files
        ds = generate_dataset(default_spec(samples_per_split={"train": 2, "val": 1, "test": 1}))
        save_dataset(tmp_path / "a", ds)
        first = load_dataset(tmp_path / "a")
        save_dataset(tmp_path / "b", first)
        second = load_dataset(tmp_path / "b")
        for a, b in zip(first["train"], second["train"]):
            assert a.image.tobytes() == b.image.tobytes()
            assert np.array_equal(a.mask, b.mask)
