import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vswu import rng as vrng
from vswu.dataset import (BOLUS_PATTERN, FRAME_PATTERN, PHARYNX_PATTERN,
                          Snippet, SynthConfig, augment, bolus_center,
                          ellipse_mask, frame_progress, load_manifest,
                          synth_generate, window_snippets, with_center_noise)
from vswu.pgm import read_pgm, write_pgm


def small_cfg(**kw):
    base = dict(num_sequences=3, frames_per_sequence=14, h=32, w=32, seed=7,
                noise_sigma=0.0, absent_fraction=0.2)
    base.update(kw)
    return SynthConfig(**base)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("synth")
    manifest = synth_generate(small_cfg(), root)
    return root, manifest


class TestSynth:
    def test_determinism_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        synth_generate(small_cfg(), a)
        synth_generate(small_cfg(), b)
        for p in sorted(a.rglob("*")):
            if p.is_file():
                q = b / p.relative_to(a)
                assert q.read_bytes() == p.read_bytes(), p.name

    def test_masks_match_analytic_ellipse(self, dataset):
        root, manifest = dataset
        cfg = small_cfg()
        entry = manifest.sequences[0]
        geo = entry.geometry
        absent = geo["absent_frames"]
        for f in (absent, cfg.frames_per_sequence - 1):
            mask = read_pgm(root / entry.name / (BOLUS_PATTERN % f)) > 127
            u = frame_progress(f, cfg.frames_per_sequence, absent, geo["speed"])
            cy, cx = bolus_center(geo["bolus"], geo["corridor"], cfg, u)
            expected = ellipse_mask(cy, cx, geo["bolus"]["ra"], geo["bolus"]["rb"],
                                    cfg.h, cfg.w)
            assert (mask == expected).all()

    def test_leading_absence(self, dataset):
        root, manifest = dataset
        # absent_fraction 0.2 of 14 frames -> frames 0..1 have empty bolus
        n_absent = int(0.2 * 14)
        for entry in manifest.sequences:
            for f in range(14):
                mask = read_pgm(root / entry.name / (BOLUS_PATTERN % f))
                if f < n_absent:
                    assert mask.max() == 0, f"frame {f} should have no bolus"
                else:
                    assert mask.max() > 0

    def test_manifest_roundtrip_and_splits(self, dataset):
        root, manifest = dataset
        loaded = load_manifest(root)
        assert [s.name for s in loaded.sequences] == [s.name for s in manifest.sequences]
        splits = {s.split for s in loaded.sequences}
        assert splits == {"train", "val", "test"}

    def test_missing_file_detected(self, tmp_path):
        synth_generate(small_cfg(), tmp_path)
        victim = tmp_path / "seq_000" / (FRAME_PATTERN % 3)
        victim.unlink()
        with pytest.raises(FileNotFoundError):
            load_manifest(tmp_path)

    def test_divisibility_validated(self, tmp_path):
        with pytest.raises(ValueError, match="divisible by 16"):
            synth_generate(small_cfg(h=30), tmp_path)
        with pytest.raises(ValueError, match="at least 13"):
            synth_generate(small_cfg(frames_per_sequence=8), tmp_path)

    @pytest.mark.parametrize("field", ["h", "w"])
    def test_zero_size_frame_rejected(self, tmp_path, field):
        with pytest.raises(ValueError, match=f"{field} must be at least 16"):
            synth_generate(small_cfg(**{field: 0}), tmp_path)


class TestPgm:
    def test_roundtrip_exact(self, tmp_path, rng):
        img = (rng.random((24, 17)) * 255).astype(np.uint8)
        write_pgm(tmp_path / "x.pgm", img)
        back = read_pgm(tmp_path / "x.pgm")
        assert (back == img).all()

    def test_frame_quantization_roundtrip(self, dataset):
        # write-then-load reproduces the 8-bit quantized pixel values exactly
        root, manifest = dataset
        entry = manifest.sequences[0]
        raw = read_pgm(root / entry.name / (FRAME_PATTERN % 5))
        loaded = raw.astype(np.float32) / 255.0
        requantized = np.rint(loaded * 255).astype(np.uint8)
        assert (requantized == raw).all()

    def test_rejects_non_pgm(self, tmp_path):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
        with pytest.raises(ValueError, match="P5"):
            read_pgm(bad)

    def test_every_truncation_rejected_naming_the_file(self, tmp_path, rng):
        img = (rng.random((3, 4)) * 255).astype(np.uint8)
        full = tmp_path / "full.pgm"
        write_pgm(full, img)
        raw = full.read_bytes()
        bad = tmp_path / "bad.pgm"
        for cut in range(len(raw)):
            bad.write_bytes(raw[:cut])
            with pytest.raises(ValueError, match=re.escape(str(bad))):
                read_pgm(bad)


def frame_positions(snippets):
    """Each snippet's frames as the ``center_index`` of the snippet whose
    center is that very array: overlapping windows share one array per
    frame, and an array that is no snippet's center is a KeyError."""
    center_of = {id(s.frames[len(s.frames) // 2]): s.center_index for s in snippets}
    assert len(center_of) == len(snippets)
    return [[center_of[id(f)] for f in s.frames] for s in snippets]


class TestWindowing:
    def test_one_snippet_per_frame_with_replication(self, dataset):
        _, manifest = dataset
        snippets = window_snippets(manifest, 5, splits=("train",))
        per_seq = [s for s in snippets if s.sequence == manifest.sequences[0].name]
        assert len(per_seq) == 14
        positions = frame_positions(per_seq)
        assert positions[0] == [0, 0, 0, 1, 2]
        assert positions[-1] == [11, 12, 13, 13, 13]

    def test_seven_frames_t5_counts(self, tmp_path):
        manifest = synth_generate(small_cfg(num_sequences=1, frames_per_sequence=14),
                                  tmp_path)
        snippets = window_snippets(manifest, 5)
        assert len(snippets) == 14

    def test_center_label_matches_center_frame(self, dataset):
        root, manifest = dataset
        snippets = window_snippets(manifest, 3, splits=("val",))
        s = snippets[5]
        gt = read_pgm(root / s.sequence / (BOLUS_PATTERN % s.center_index)) > 127
        assert (s.label[0].astype(bool) == gt).all()
        c = s.center_index
        seq = [x for x in snippets if x.sequence == s.sequence]
        assert frame_positions(seq)[c] == [c - 1, c, c + 1]
        image = read_pgm(root / s.sequence / (FRAME_PATTERN % c))
        assert (s.frames[1][0] == image.astype(np.float32) / 255.0).all()

    def test_t13_full_coverage_no_replication(self, tmp_path):
        manifest = synth_generate(small_cfg(num_sequences=1, frames_per_sequence=13),
                                  tmp_path)
        snippets = window_snippets(manifest, 13)
        assert frame_positions(snippets)[6] == list(range(13))

    def test_even_t_rejected(self, dataset):
        _, manifest = dataset
        with pytest.raises(ValueError, match="odd"):
            window_snippets(manifest, 4)

    def test_off_grid_t_warns(self, dataset):
        _, manifest = dataset
        with pytest.warns(UserWarning, match="grid"):
            snippets = window_snippets(manifest, 1, splits=("val",))
        assert all(len(s.frames) == 1 for s in snippets)




class TestManifestErrors:
    SEQ = '{"name": "seq_000", "frames": %s, "split": "train"}'

    @pytest.mark.parametrize("text,field", [
        ('{"h": 32, "w": 32, "seed": 7}', "missing field 'sequences'"),
        ('{"h": 32, "w": 32, "seed": 7, "sequences": [%s]}' % (SEQ % '"3"'),
         "field 'sequences[0].frames' must be int"),
        ('{"h": 32, "w": 32, "seed": 7, "sequences": [%s]}' % (SEQ % "true"),
         "field 'sequences[0].frames' must be int"),
        ('{"h": 32, "w": 32, "seed": 7, "sequences": [%s]}' % (SEQ % "-3"),
         "field 'sequences[0].frames' must be at least 1"),
        ('{"h": 32, "seed": 7, "sequences": []}', "missing field 'w'"),
        ('{"h": 32, "w": 32, "seed": 7, "sequences": [3]}',
         "field 'sequences[0]' must be an object"),
        ('{"h": 32, "w": 32, "seed": 7, "sequences": []', "not valid JSON"),
        ('[]', "expected a JSON object"),
        ('{"h": 32, "w": 32, "seed": 7, "sequences": [%s]}'
         % SEQ.replace("seq_000", "../data/seq_003") % "1",
         "field 'sequences[0].name' must be a path inside the dataset root"),
        ('{"h": 32, "w": 32, "seed": 7, "sequences": [%s]}'
         % SEQ.replace("seq_000", "/data/seq_000") % "1",
         "field 'sequences[0].name' must be a path inside the dataset root"),
    ], ids=["no-sequences", "frames-string", "frames-bool", "frames-negative", "no-w",
            "sequence-not-object", "malformed", "not-an-object", "name-dotdot",
            "name-absolute"])
    def test_bad_manifest_names_file_and_field(self, tmp_path, text, field):
        path = tmp_path / "manifest.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}: {field}")):
            load_manifest(tmp_path)

    @pytest.mark.parametrize("pattern", [FRAME_PATTERN, BOLUS_PATTERN, PHARYNX_PATTERN],
                             ids=["frame", "bolus-mask", "pharynx-mask"])
    def test_image_of_another_size_names_file_and_sizes(self, tmp_path, pattern):
        manifest = synth_generate(small_cfg(num_sequences=1, frames_per_sequence=13),
                                  tmp_path)
        victim = tmp_path / "seq_000" / (pattern % 4)
        write_pgm(victim, np.zeros((16, 32), np.uint8))
        with pytest.raises(ValueError, match=re.escape(
                f"{victim}: image is 16x32, but the manifest gives 32x32")):
            window_snippets(manifest, 3)

def make_snippet(rng, t=3, h=32, w=32, binary_label=True):
    frames = [rng.random((1, h, w)).astype(np.float32) for _ in range(t)]
    label = (rng.random((2, h, w)) > 0.6).astype(np.float32)
    return Snippet(frames=frames, label=label, sequence="synthetic", center_index=1)


class TestAugment:
    def test_identity_when_no_flip_no_rotation(self, rng):
        s = make_snippet(rng)

        class FixedGen:
            def random(self):
                return 0.9  # no flip

            def uniform(self, lo, hi):
                return 0.0  # zero rotation

        out = augment(s, FixedGen())
        for fa, fb in zip(out.frames, s.frames):
            assert (fa == fb).all()
        assert (out.label == s.label).all()

    def test_flip_is_involution(self, rng):
        s = make_snippet(rng)

        class FlipOnly:
            def random(self):
                return 0.0  # flip

            def uniform(self, lo, hi):
                return 0.0

        once = augment(s, FlipOnly())
        twice = augment(once, FlipOnly())
        for fa, fb in zip(twice.frames, s.frames):
            assert (fa == fb).all()
        assert (twice.label == s.label).all()

    @pytest.mark.parametrize("seed", range(20))
    def test_labels_stay_binary_and_shapes_fixed(self, seed):
        rng = np.random.default_rng(seed)
        s = make_snippet(rng)
        out = augment(s, vrng.generator(seed, "aug-test"))
        assert out.label.shape == s.label.shape
        assert np.isin(out.label, (0.0, 1.0)).all()
        for fa, fb in zip(out.frames, s.frames):
            assert fa.shape == fb.shape
            assert fa.min() >= 0.0 and fa.max() <= 1.0

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_property_binary_labels_over_seeded_draws(self, seed):
        rng = np.random.default_rng(seed)
        s = make_snippet(rng, h=16, w=16)
        out = augment(s, vrng.generator(seed, "aug-prop"))
        assert np.isin(out.label, (0.0, 1.0)).all()
        assert out.label.shape == (2, 16, 16)

    def test_temporal_consistency_marker_grid(self):
        # identical marker frames must stay identical under one snippet transform
        marker = np.zeros((1, 32, 32), dtype=np.float32)
        marker[0, ::4, :] = 1.0
        marker[0, :, ::4] = 0.5
        frames = [marker.copy() for _ in range(5)]
        label = np.zeros((2, 32, 32), dtype=np.float32)
        label[:, 8:20, 8:20] = 1.0
        s = Snippet(frames=frames, label=label, sequence="m", center_index=2)
        out = augment(s, vrng.generator(3, "marker"))
        base = out.frames[0]
        for f in out.frames[1:]:
            assert (f == base).all()

    def test_rotation_angle_bounded(self):
        # angles land in [-15, 15] by construction; spot-check the draw
        gen = vrng.generator(0, "angle")
        for _ in range(100):
            gen.random()
            assert abs(gen.uniform(-15.0, 15.0)) <= 15.0


class TestCenterNoise:
    def test_only_center_frame_changes(self, rng):
        s = make_snippet(rng, t=5)
        s2 = with_center_noise([s], sigma=0.3, seed=9)[0]
        for i, (fa, fb) in enumerate(zip(s2.frames, s.frames)):
            if i == 2:
                assert not (fa == fb).all()
            else:
                assert (fa == fb).all()
        assert (s2.label == s.label).all()

    def test_deterministic(self, rng):
        s = make_snippet(rng, t=3)
        a = with_center_noise([s], 0.2, seed=4)[0]
        b = with_center_noise([s], 0.2, seed=4)[0]
        assert (a.frames[1] == b.frames[1]).all()

    def test_sigma_zero_is_identity(self, rng):
        s = make_snippet(rng)
        assert with_center_noise([s], 0.0, seed=1)[0] is s
