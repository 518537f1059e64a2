import os
import re
import struct

import numpy as np
import pytest

from conftest import held_bytes
from vswu import training
from vswu.backbone import BackboneConfig
from vswu.dataset import SynthConfig, synth_generate, window_snippets
from vswu.decoder import DecoderConfig
from vswu.model import ModelConfig, SnippetSegmenter
from vswu.swin import SwinConfig
from vswu.tensor import Tensor
from vswu.training import (MAGIC, VERSION, Checkpoint, TrainConfig, _write_blob,
                           apply_freeze, fit, load_checkpoint, save_checkpoint)


def train_model_config(t=3):
    return ModelConfig(
        h=32, w=32, t=t,
        backbone=BackboneConfig(stage_channels=(2, 4, 6, 8), blocks_per_stage=2),
        swin=SwinConfig(embed_dim=8, depths=(2,), heads=(2,), window_size=(2,)),
        decoder=DecoderConfig(stage_channels=(8, 6, 4, 4)))


@pytest.fixture(scope="module")
def tiny_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("train-data")
    manifest = synth_generate(
        SynthConfig(num_sequences=4, frames_per_sequence=13, h=32, w=32, seed=3,
                    noise_sigma=0.02), root)
    train = window_snippets(manifest, 3, splits=("train",))
    val = window_snippets(manifest, 3, splits=("val",))
    return train, val


def quick_cfg(**kw):
    base = dict(batch_size=2, lr0=1e-3, max_epochs=2, seed=11, augment=False)
    base.update(kw)
    return TrainConfig(**base)


class TestFit:
    def test_log_and_best_checkpoint(self, tiny_data):
        train, val = tiny_data
        model = SnippetSegmenter(train_model_config(), seed=11)
        log, best = fit(model, train[:8], val[:4], quick_cfg())
        assert len(log) == 2
        assert {"epoch", "train_loss", "val_loss", "lr", "val_dsc"} <= set(log[0])
        assert isinstance(best, Checkpoint)
        # the checkpoint format stores scalars as float32
        assert best.best_val_loss == pytest.approx(min(r["val_loss"] for r in log),
                                                   rel=1e-6)
        best_row = min(log, key=lambda r: r["val_loss"])
        assert best.best_val_loss == float(np.float32(best_row["val_loss"]))
        assert best.epoch == best_row["epoch"] and best.seed == 11

    def test_determinism_bit_identical(self, tiny_data):
        train, val = tiny_data

        def run():
            model = SnippetSegmenter(train_model_config(), seed=11)
            log, best = fit(model, train[:8], val[:4], quick_cfg(augment=True))
            return log, best

        log1, best1 = run()
        log2, best2 = run()
        assert log1 == log2
        for name in best1.params:
            assert (best1.params[name] == best2.params[name]).all()

    def test_empty_streams_rejected(self, tiny_data):
        train, val = tiny_data
        model = SnippetSegmenter(train_model_config(), seed=11)
        with pytest.raises(ValueError, match="non-empty"):
            fit(model, [], val, quick_cfg())

    def test_every_component_frozen_rejected_before_forking(self, tiny_data, monkeypatch):
        train, val = tiny_data
        model = apply_freeze(SnippetSegmenter(train_model_config(), seed=11), "abcde")

        def never(*args):
            raise AssertionError("fit pinned BLAS threads or forked")

        monkeypatch.setattr(training, "one_blas_thread", never)
        monkeypatch.setattr(os, "fork", never)
        with pytest.raises(ValueError, match="no trainable parameter"):
            fit(model, train[:4], val[:2], quick_cfg())

    def test_lr_trace_never_increases(self, tiny_data):
        train, val = tiny_data
        model = SnippetSegmenter(train_model_config(), seed=11)
        log, _ = fit(model, train[:6], val[:3],
                     quick_cfg(max_epochs=4, plateau_epochs=2))
        lrs = [row["lr"] for row in log]
        assert all(b <= a for a, b in zip(lrs, lrs[1:]))

    def test_early_stop_on_dsc(self, tiny_data):
        train, val = tiny_data
        model = SnippetSegmenter(train_model_config(), seed=11)
        log, _ = fit(model, train[:8], val[:4],
                     quick_cfg(max_epochs=50, stop_at_val_dsc=0.0))
        assert len(log) == 1

    def test_config_validation(self):
        with pytest.raises(ValueError, match="lr0"):
            TrainConfig(lr0=-1.0).validate()
        with pytest.raises(ValueError, match="lr_decay"):
            TrainConfig(lr_decay=1.5).validate()


class TestFreeze:
    def test_frozen_component_bit_identical_after_steps(self, tiny_data):
        train, val = tiny_data
        model = SnippetSegmenter(train_model_config(), seed=12)
        apply_freeze(model, {"a"})
        before = {n: p.data.copy() for n, p in model.named_parameters()}
        fit(model, train[:8], val[:4], quick_cfg())
        for n, p in model.named_parameters():
            if n.startswith("a."):
                assert (p.data == before[n]).all(), n
            elif n.startswith(("d.", "e.")):
                assert not (p.data == before[n]).all(), n

    def test_freeze_abc_trains_only_de(self, tiny_data):
        train, val = tiny_data
        model = SnippetSegmenter(train_model_config(), seed=13)
        apply_freeze(model, {"a", "b", "c"})
        before = {n: p.data.copy() for n, p in model.named_parameters()}
        fit(model, train[:6], val[:3], quick_cfg(max_epochs=1))
        for n, p in model.named_parameters():
            frozen = n.split(".", 1)[0] in {"a", "b", "c"}
            unchanged = (p.data == before[n]).all()
            assert unchanged == frozen, n

    def test_empty_freeze_trains_everything(self, tiny_data):
        train, val = tiny_data
        model = SnippetSegmenter(train_model_config(), seed=14)
        apply_freeze(model, set())
        assert all(p.requires_grad for _, p in model.named_parameters())

    def test_unknown_letter_rejected(self):
        model = SnippetSegmenter(train_model_config(), seed=15)
        with pytest.raises(ValueError, match="unknown"):
            apply_freeze(model, {"z"})


def write_blobs(path, blobs):
    """A version-1 checkpoint file of ``blobs``, ``(name, array)`` pairs."""
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(blobs)))
        for name, arr in blobs:
            _write_blob(fh, name, arr)
    return path


class TestCheckpoint:
    def test_round_trip_bit_exact_forward(self, tmp_path, rng):
        model = SnippetSegmenter(train_model_config(), seed=16)
        frames = [Tensor(rng.random((1, 32, 32)).astype(np.float32))
                  for _ in range(3)]
        before = model.forward(frames).probs.data.copy()
        save_checkpoint(tmp_path / "m.ckpt", model, epoch=3, best_val=0.5, seed=16)

        fresh = SnippetSegmenter(train_model_config(), seed=99)
        ck = load_checkpoint(tmp_path / "m.ckpt")
        ck.apply(fresh)
        after = fresh.forward(frames).probs.data
        assert (after == before).all()
        assert ck.epoch == 3 and ck.seed == 16

    def test_load_and_apply_peak_is_one_checkpoint(self, tmp_path):
        """Blobs are read straight into their arrays and ``apply`` copies
        them into the model's own, so loading a default-model checkpoint
        holds at most about the file's size above the model."""
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, SnippetSegmenter(ModelConfig(), seed=23), seed=23)
        model = SnippetSegmenter(ModelConfig(), seed=None)
        arrays = {n: p.data for n, p in model.named_parameters()}
        _, _, peak = held_bytes(lambda: load_checkpoint(path).apply(model))
        assert peak <= 1.1 * path.stat().st_size
        ck = load_checkpoint(path)
        ck.apply(model)
        for n, p in model.named_parameters():
            assert p.data is arrays[n] and np.array_equal(p.data, ck.params[n])
            assert not np.shares_memory(p.data, ck.params[n])

    def test_corrupt_magic_rejected(self, tmp_path):
        model = SnippetSegmenter(train_model_config(), seed=20)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, seed=20)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_non_utf8_blob_name_rejected(self, tmp_path):
        model = SnippetSegmenter(train_model_config(), seed=20)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, seed=20)
        raw = bytearray(path.read_bytes())
        raw[14] = 0xFF  # first byte of the first blob name, after the u16 length
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*UTF-8"):
            load_checkpoint(path)

    def test_shape_conflict_rejected(self, tmp_path):
        model = SnippetSegmenter(train_model_config(), seed=21)
        save_checkpoint(tmp_path / "m.ckpt", model, seed=21)
        other_cfg = train_model_config()
        other_cfg.backbone.stage_channels = (3, 5, 7, 9)
        other = SnippetSegmenter(other_cfg, seed=21)
        with pytest.raises(ValueError, match="shape conflict"):
            load_checkpoint(tmp_path / "m.ckpt").apply(other)

    def test_format_layout(self, tmp_path):
        model = SnippetSegmenter(train_model_config(), seed=22)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, seed=22)
        raw = path.read_bytes()
        assert raw[:4] == b"VSWU"
        assert int.from_bytes(raw[4:8], "little") == 1
        n_blobs = int.from_bytes(raw[8:12], "little")
        n_params = sum(1 for _ in model.named_parameters())
        assert n_blobs == n_params + 3  # + opt.epoch, opt.best_val, rng.seed

    def test_every_truncation_and_trailing_byte_rejected(self, tmp_path):
        full = write_blobs(tmp_path / "full.ckpt",
                           [("a.w", np.arange(6, dtype=np.float32).reshape(2, 3)),
                            ("opt.epoch", np.array(2.0, dtype=np.float32)),
                            ("rng.seed", np.ones(4, dtype=np.float32))])
        ck = load_checkpoint(full)
        assert ck.params["a.w"].tolist() == [[0, 1, 2], [3, 4, 5]] and ck.epoch == 2
        assert ck.best_val_loss == float("inf") and ck.seed == 1 + 2**16 + 2**32 + 2**48
        raw = full.read_bytes()
        bad = tmp_path / "bad.ckpt"
        for cut in range(len(raw)):
            bad.write_bytes(raw[:cut])
            with pytest.raises(ValueError, match=re.escape(str(bad))):
                load_checkpoint(bad)
        bad.write_bytes(raw + b"\0")
        with pytest.raises(ValueError, match=re.escape(str(bad)) + ".*trailing"):
            load_checkpoint(bad)

    @pytest.mark.parametrize("name,values,match", [
        ("opt.best_val", [0.5, 0.25], "'opt.best_val' holds 2 values, not 1"),
        ("rng.seed", [1, 2, 3], "'rng.seed' holds 3 values, not 4"),
        ("opt.momentum", [0.9], "unknown checkpoint blob 'opt.momentum'"),
        ("opt.epoch", [np.nan], "epoch [nan] must be whole"),
        ("opt.epoch", [2.5], "epoch [2.5] must be whole"),
        ("rng.seed", [1, 2, 3, 2**16], "seed limbs [1.0, 2.0, 3.0, 65536.0] must be whole"),
        ("rng.seed", [np.inf, 0, 0, 0], "seed limbs [inf, 0.0, 0.0, 0.0] must be whole"),
    ])
    def test_bad_metadata_blob_rejected(self, tmp_path, name, values, match):
        """Metadata is read as the file loads, so a blob of another size
        than the writer's, of an unknown name or of values the writer never
        stores fails there, naming the file."""
        path = write_blobs(tmp_path / "m.ckpt", [("a.w", np.zeros(2, dtype=np.float32)),
                                                (name, np.array(values, dtype=np.float32))])
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*" + re.escape(match)):
            load_checkpoint(path)

    def test_oversized_dims_rejected_before_allocating(self, tmp_path):
        """Values are read into an array allocated from the blob's dims, so
        dims the file cannot hold must fail before that allocation."""
        path = tmp_path / "huge.ckpt"
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<II", VERSION, 1))
            fh.write(struct.pack("<H", 3) + b"a.w" + struct.pack("<B", 4))
            fh.write(struct.pack("<4I", *[2**32 - 1] * 4))
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*truncated.*'a.w'"):
            load_checkpoint(path)

    def test_gradient_flow_tcm_vs_bypass(self, rng):
        """With blending enabled the neighbour frames receive gradient;
        under bypass they receive exactly none."""
        from vswu import tensor as T
        from vswu.losses import combined_loss

        label = (rng.random((2, 32, 32)) > 0.5).astype(np.float32)

        cfg = train_model_config()
        model = SnippetSegmenter(cfg, seed=24)
        for i in range(3):
            model.tcm.slots[i].gate.data = np.array([0.3], dtype=np.float32)
        frames = [Tensor(rng.random((1, 32, 32)).astype(np.float32),
                         requires_grad=True) for _ in range(3)]
        out = model.forward(frames)
        T.backward(combined_loss(out.probs, label))
        assert frames[0].grad is not None and np.abs(frames[0].grad).max() > 0

        bypass_cfg = train_model_config()
        bypass_cfg.tcm.enabled = False
        bypass = SnippetSegmenter(bypass_cfg, seed=24)
        frames2 = [Tensor(rng.random((1, 32, 32)).astype(np.float32),
                          requires_grad=True) for _ in range(3)]
        out2 = bypass.forward(frames2)
        T.backward(combined_loss(out2.probs, label))
        assert frames2[0].grad is None and frames2[2].grad is None
        assert frames2[1].grad is not None
