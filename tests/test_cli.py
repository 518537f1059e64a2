import functools
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from vswu import cli, costs, parallel
from vswu.gradcam import gradcam
from vswu.gradcheck import KERNEL_CASES
from vswu.dataset import SynthConfig, load_manifest, window_snippets
from vswu.metrics import CHANNEL_NAMES, asd, dsc, hd95, sens_spec
from vswu.model import ModelConfig, SnippetSegmenter
from vswu.pgm import read_pgm, write_pgm
from vswu.training import TrainConfig, load_checkpoint, save_checkpoint


TINY = [
    "--dataset.num_sequences", "4",
    "--dataset.frames_per_sequence", "14",
    "--dataset.h", "32", "--dataset.w", "32",
    "--model.t", "3",
    "--model.backbone_channels", "[2,4,6,8]",
    "--model.embed_dim", "8",
    "--model.depths", "[2,2]",
    "--model.heads", "[2,2]",
    "--model.window_size", "[2,2]",
    "--model.decoder_channels", "[8,6,4,4]",
    "--train.max_epochs", "1",
]


def run(args):
    return cli.main(args)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    ws = tmp_path_factory.mktemp("cli")
    data = ws / "data"
    rc = run(["synth", "--out", str(ws / "synth-run"),
              "--dataset.root", str(data)] + TINY)
    assert rc == 0
    # the checkpoint that the eval, gradcam and transfer tests start from
    rc = run(["train", "--out", str(ws / "train-run"), "--dataset.root", str(data)] + TINY)
    assert rc == 0
    return ws, data


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        rc = run(["synth", "--out", str(tmp_path), "--no.such.key", "1"])
        assert rc == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            run(["frobnicate"])

    def test_resolved_json_written_and_reusable(self, workspace, tmp_path):
        ws, data = workspace
        resolved = ws / "synth-run" / "resolved.json"
        assert resolved.exists()
        doc = json.loads(resolved.read_text())
        assert doc["command"] == "synth"
        assert doc["dataset"]["num_sequences"] == 4
        # re-running from resolved.json reproduces the dataset bit for bit
        data2 = tmp_path / "data2"
        rc = run(["synth", "--config", str(resolved), "--out", str(tmp_path / "r"),
                  "--dataset.root", str(data2)])
        assert rc == 0
        for p in sorted(data.rglob("*.pgm")):
            q = data2 / p.relative_to(data)
            assert q.read_bytes() == p.read_bytes()

    def test_equals_form_override(self, tmp_path):
        rc = run(["cost", "--out", str(tmp_path / "c"), "--model.embed_dim=16",
                  "--model.heads", "[2,2]", "--model.window_size", "[2,2]"])
        assert rc == 0

    def test_missing_value_rejected(self, tmp_path, capsys):
        rc = run(["synth", "--out", str(tmp_path), "--dataset.h"])
        assert rc == 2
        assert "missing its value" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["true", "false", "auto"])
    def test_merge_between_stages_override(self, tmp_path, value):
        # window 2 in stage 1 tiles the 2x2 grid a forced merge leaves at 64x64
        rc = run(["cost", "--out", str(tmp_path), "--model.merge_between_stages", value,
                  "--model.window_size", "[4,2]"])
        assert rc == 0
        doc = json.loads((tmp_path / "resolved.json").read_text())
        assert doc["model"]["merge_between_stages"] == {"true": True, "false": False,
                                                        "auto": "auto"}[value]

    def test_merge_between_stages_other_value_rejected(self, tmp_path, capsys):
        rc = run(["cost", "--out", str(tmp_path), "--model.merge_between_stages", "yes"])
        assert rc == 2
        assert "merge_between_stages" in capsys.readouterr().err

    @pytest.mark.parametrize("args,field", [
        (["--model.embed_dim", "6", "--model.heads", "[2,4]"], "heads[1]=4"),
        (["--model.window_size", "[3,3]"], "window_size[0]=3"),
        (["--model.merge_between_stages", "true"], "window_size[1]=4"),
        (["--model.heads", "[0,4]"], "model.heads must be positive"),
    ])
    def test_unrunnable_encoder_rejected(self, tmp_path, capsys, args, field):
        rc = run(["cost", "--out", str(tmp_path / "c")] + args)
        assert rc == 2
        assert field in capsys.readouterr().err
        # train refuses before it reads the (missing) dataset
        rc = run(["train", "--out", str(tmp_path / "t"),
                  "--dataset.root", str(tmp_path / "nope")] + args)
        assert rc == 2
        assert field in capsys.readouterr().err

    def test_bad_model_config_rejected_before_data(self, tmp_path, capsys):
        # the dataset does not exist: reading it would exit 1
        rc = run(["train", "--out", str(tmp_path / "x"), "--model.t", "4",
                  "--dataset.root", str(tmp_path / "nope")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "t must be odd" in err and "got 4" in err

    def test_defaults_are_the_dataclass_defaults(self):
        cfg = cli.resolve_config(None, [])
        assert cli.model_config_from(cfg) == ModelConfig()
        assert cli.train_config_from(cfg) == TrainConfig(seed=cfg["seed"])
        synth = SynthConfig()
        shared = [f.name for f in fields(SynthConfig) if f.name in cfg["dataset"]]
        assert {k: cfg["dataset"][k] for k in shared} == {k: getattr(synth, k)
                                                         for k in shared}
        assert sorted(shared) == sorted(cli.SYNTH_KEYS)

    @pytest.mark.parametrize("key,value,attr", [
        ("t", 7, "t"),
        ("backbone_channels", [8, 16, 32, 64], "backbone.stage_channels"),
        ("blocks_per_stage", 3, "backbone.blocks_per_stage"),
        ("tcm_enabled", False, "tcm.enabled"),
        ("tcm_reduction", 2, "tcm.reduction"),
        ("tcm_include_center", False, "tcm.include_center"),
        ("tcm_tied_neighbors", True, "tcm.tied_neighbors"),
        ("embed_dim", 32, "swin.embed_dim"),
        ("depths", [4, 2], "swin.depths"),
        ("heads", [2, 8], "swin.heads"),
        ("window_size", [2, 2], "swin.window_size"),
        ("mlp_ratio", 5, "swin.mlp_ratio"),
        ("patch_size", 2, "swin.patch_size"),
        ("merge_between_stages", True, "swin.merge_between_stages"),
        ("decoder_channels", [64, 48, 24, 12], "decoder.stage_channels"),
        ("tsc_enabled", False, "decoder.tsc_enabled"),
        ("skips_enabled", False, "decoder.skips_enabled"),
    ])
    def test_each_model_key_sets_its_own_attribute(self, key, value, attr):
        # at 128x128 (an 8x8 token grid) each value is valid on its own
        cfg = cli.resolve_config(None, [("dataset.h", "128"), ("dataset.w", "128"),
                                        (f"model.{key}", json.dumps(value))])
        want = ModelConfig(h=128, w=128)
        *owner, field = attr.split(".")
        setattr(functools.reduce(getattr, owner, want), field,
                tuple(value) if isinstance(value, list) else value)
        assert cli.model_config_from(cfg) == want


class TestCommands:
    def test_train_eval_gradcam_round_trip(self, workspace):
        ws, data = workspace
        out = ws / "train-run"
        assert (out / "log.csv").exists()
        assert (out / "checkpoints" / "best.ckpt").exists()
        assert (out / "checkpoints" / "final.ckpt").exists()

        rc = run(["eval", "--out", str(out), "--dataset.root", str(data)] + TINY)
        assert rc == 0
        report = json.loads((out / "reports" / "metrics.json").read_text())
        assert set(report["channels"]) == {"bolus", "pharynx"}
        assert report["model"]["params"] > 0
        maps = list((out / "maps").glob("pred_*.pgm"))
        assert maps

        rc = run(["gradcam", "--out", str(out), "--dataset.root", str(data),
                  "--gradcam.count", "2"] + TINY)
        assert rc == 0
        cams = list((out / "maps").glob("gradcam_ch0_*.pgm"))
        assert len(cams) == 2
        cam = read_pgm(cams[0])
        assert cam.shape == (2, 2)  # 32/16 grid

    def test_eval_report_holds_per_snippet_means(self, workspace, tmp_path):
        """metrics.json holds, per channel, the means over the split's
        snippets of each mask pair's metrics, here computed from ``predict``
        one snippet at a time."""
        ws, data = workspace
        ck = ws / "train-run" / "checkpoints" / "best.ckpt"
        rc = run(["eval", "--out", str(tmp_path), "--dataset.root", str(data),
                  "--eval.checkpoint", str(ck), "--eval.save_maps", "false"] + TINY)
        assert rc == 0
        doc = json.loads((tmp_path / "reports" / "metrics.json").read_text())
        model = SnippetSegmenter(cli.model_config_from(
            json.loads((tmp_path / "resolved.json").read_text())), seed=None)
        load_checkpoint(ck).apply(model)
        snippets = window_snippets(load_manifest(data), 3, splits=("test",))
        probs = [model.predict(s.frames) for s in snippets]
        for c, name in enumerate(CHANNEL_NAMES):
            pairs = [(p[c] >= 0.5, s.label[c] >= 0.5) for p, s in zip(probs, snippets)]
            dist = [(hd95(*pair), asd(*pair)) for pair in pairs]
            defined = [d for d in dist if d[0] is not None]
            assert doc["channels"][name] == {
                "dsc": float(np.mean([dsc(*pair) for pair in pairs])),
                "sensitivity": float(np.mean([sens_spec(*pair)[0] for pair in pairs])),
                "specificity": float(np.mean([sens_spec(*pair)[1] for pair in pairs])),
                "hd95": float(np.mean([d[0] for d in defined])) if defined else None,
                "asd": float(np.mean([d[1] for d in defined])) if defined else None,
                "n_pairs": len(pairs), "n_distance_undefined": len(pairs) - len(defined)}
        params, flops = costs.count_params_flops(model)
        assert doc["model"] == {"params": params, "flops": flops}

    def test_train_determinism_checkpoint_hash(self, workspace, tmp_path):
        ws, data = workspace

        def train_once(tag):
            out = tmp_path / tag
            rc = run(["train", "--out", str(out), "--dataset.root", str(data)] + TINY)
            assert rc == 0
            ck = (out / "checkpoints" / "final.ckpt").read_bytes()
            log = (out / "log.csv").read_bytes()
            return hashlib.sha256(ck).hexdigest(), hashlib.sha256(log).hexdigest()

        assert train_once("a") == train_once("b")

    def test_input_dataset_not_mutated(self, workspace, tmp_path):
        ws, data = workspace
        before = {p: p.read_bytes() for p in sorted(data.rglob("*")) if p.is_file()}
        rc = run(["train", "--out", str(tmp_path / "t"), "--dataset.root",
                  str(data)] + TINY)
        assert rc == 0
        after = {p: p.read_bytes() for p in sorted(data.rglob("*")) if p.is_file()}
        assert before == after

    def test_gradcam_leaves_no_parameter_gradient(self, workspace, tmp_path, monkeypatch):
        ws, data = workspace
        models = []

        def spy(model, snippet, channel):
            models.append(model)
            return gradcam(model, snippet, channel)

        monkeypatch.setattr(cli, "gradcam", spy)
        rc = run(["gradcam", "--out", str(tmp_path), "--dataset.root", str(data),
                  "--gradcam.checkpoint", str(ws / "train-run" / "checkpoints" / "best.ckpt"),
                  "--gradcam.count", "3"] + TINY)
        assert rc == 0 and len(models) == 3
        held = [n for n, p in models[0].named_parameters() if p.grad is not None]
        assert held == []

    def test_transfer_freeze_zero_delta(self, workspace, tmp_path):
        ws, data = workspace
        pretrain = ws / "train-run" / "checkpoints" / "best.ckpt"
        out = tmp_path / "transfer"
        rc = run(["transfer", "--out", str(out), "--dataset.root", str(data),
                  "--transfer.init_from", str(pretrain),
                  "--transfer.freeze", "a"] + TINY)
        assert rc == 0
        report = json.loads((out / "reports" / "transfer.json").read_text())
        assert report["frozen"] == ["a"]
        assert report["max_abs_param_delta"]["a"] == 0.0
        assert report["max_abs_param_delta"]["d"] > 0.0

    def test_fuse_staple(self, tmp_path):
        rng = np.random.default_rng(0)
        gt = np.zeros((32, 32), bool)
        gt[8:24, 8:24] = True
        paths = []
        for r in range(3):
            noise = rng.random(gt.shape)
            mask = np.where(gt, noise < 0.9, noise > 0.9)
            p = tmp_path / f"rater{r}.pgm"
            write_pgm(p, mask.astype(np.uint8) * 255)
            paths.append(str(p))
        out = tmp_path / "fuse"
        rc = run(["fuse", "--out", str(out),
                  "--fuse.inputs", json.dumps(paths)])
        assert rc == 0
        fused = read_pgm(out / "fused.pgm") > 127
        assert (fused == gt).mean() > 0.95
        sidecar = json.loads((out / "fused.json").read_text())
        assert len(sidecar["sensitivity"]) == 3
        assert sidecar["converged"]

    def test_fuse_mask_shape_mismatch_names_file(self, tmp_path, capsys):
        paths = []
        for r, size in enumerate((8, 8, 6)):
            p = tmp_path / f"rater{r}.pgm"
            write_pgm(p, np.zeros((size, size), np.uint8))
            paths.append(str(p))
        rc = run(["fuse", "--out", str(tmp_path / "fuse"),
                  "--fuse.inputs", json.dumps(paths)])
        assert rc == 1
        err = capsys.readouterr().err
        assert paths[2] in err and "(6, 6)" in err and "(8, 8)" in err

    def test_fuse_requires_two_inputs(self, tmp_path, capsys):
        rc = run(["fuse", "--out", str(tmp_path)])
        assert rc == 2
        assert "at least two" in capsys.readouterr().err

    def test_cost_report(self, tmp_path):
        out = tmp_path / "cost"
        rc = run(["cost", "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "reports" / "cost.json").read_text())
        assert doc["params_analytic"] == doc["params_runtime"]
        scaling = doc["attention_scaling"]
        assert [row["tokens"] for row in scaling] == [64, 256, 1024]
        assert scaling[1]["windowed_flops"] == 4 * scaling[0]["windowed_flops"]

    def test_missing_dataset_is_runtime_error(self, tmp_path, capsys):
        rc = run(["train", "--out", str(tmp_path / "x"),
                  "--dataset.root", str(tmp_path / "nope")] + TINY)
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_truncated_checkpoint_is_error_naming_file(self, tmp_path, capsys):
        ck = tmp_path / "cut.ckpt"
        ck.write_bytes(b"VSWU\x01\x00\x00")      # cut inside the 12-byte header
        rc = run(["eval", "--out", str(tmp_path / "e"), "--eval.checkpoint", str(ck)]
                 + TINY)
        assert rc == 1
        err = capsys.readouterr().err
        assert str(ck) in err and "truncated" in err

    @pytest.mark.parametrize("saved,loaded,message", [
        ([], ["--model.tcm_enabled", "false"], "parameters the model lacks"),
        (["--model.tcm_enabled", "false"], [], "missing parameter"),
        ([], ["--model.decoder_channels", "[8,6,4,2]"], "shape conflict"),
    ], ids=["extra", "missing", "mis-shaped"])
    def test_checkpoint_not_fitting_model_is_error_naming_file(self, tmp_path, capsys,
                                                               saved, loaded, message):
        ck = tmp_path / "m.ckpt"
        cfg = cli.resolve_config(None, cli._parse_overrides(TINY + saved))
        save_checkpoint(ck, SnippetSegmenter(cli.model_config_from(cfg)))
        rc = run(["eval", "--out", str(tmp_path / "e"), "--eval.checkpoint", str(ck)]
                 + TINY + loaded)
        assert rc == 1
        err = capsys.readouterr().err
        assert str(ck) in err and message in err

    @pytest.mark.parametrize("command", ["eval", "gradcam"])
    def test_split_without_sequences_is_error_naming_manifest(self, workspace, tmp_path,
                                                              capsys, command):
        ws, data = workspace
        ck = ws / "train-run" / "checkpoints" / "best.ckpt"
        rc = run([command, "--out", str(tmp_path / command), "--dataset.root", str(data),
                  f"--{command}.checkpoint", str(ck), f"--{command}.split", "tset"] + TINY)
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{data / 'manifest.json'}: no sequence in split 'tset'" in err
        assert "['test', 'train', 'val']" in err
        assert not (tmp_path / command / "reports").exists()

    @pytest.mark.parametrize("size", ["32", "128"])
    def test_dataset_of_another_size_is_error_naming_manifest(self, tmp_path, capsys,
                                                              size):
        data = tmp_path / "data"
        assert run(["synth", "--out", str(tmp_path / "s"), "--dataset.root", str(data)]
                   + TINY + ["--dataset.h", "64", "--dataset.w", "64"]) == 0
        rc = run(["train", "--out", str(tmp_path / "t"), "--dataset.root", str(data)]
                 + TINY + ["--dataset.h", size, "--dataset.w", size])
        assert rc == 1
        err = capsys.readouterr().err
        assert (f"{data / 'manifest.json'}: the dataset is 64x64, but dataset.h x "
                f"dataset.w is {size}x{size}") in err
        assert not (tmp_path / "t" / "log.csv").exists()

    def test_sweep_t_table_has_six_rows(self, workspace, tmp_path):
        ws, data = workspace
        out = tmp_path / "sweep"
        args = ["sweep-t", "--out", str(out), "--dataset.root", str(data)] + TINY
        # shrink the sweep runtime: 1 epoch per t value already set by TINY
        rc = run(args)
        assert rc == 0
        rows = (out / "reports" / "sweep_t.csv").read_text().strip().splitlines()
        assert rows[0] == "t,val_dsc,best_val_loss,params,flops"
        assert len(rows) == 7
        assert [int(r.split(",")[0]) for r in rows[1:]] == [3, 5, 7, 9, 11, 13]

    def test_ablate_matrix_has_eight_rows(self, workspace, tmp_path):
        ws, data = workspace
        out = tmp_path / "ablate"
        rc = run(["ablate", "--out", str(out), "--dataset.root", str(data)] + TINY)
        assert rc == 0
        rows = (out / "reports" / "ablate.csv").read_text().strip().splitlines()
        assert len(rows) == 9
        # TCM-off rows cost fewer parameters than their TCM-on twins
        table = {tuple(r.split(",")[:3]): int(r.split(",")[4]) for r in rows[1:]}
        assert table[("0", "1", "1")] < table[("1", "1", "1")]

    def test_gradcheck_command(self, tmp_path):
        out = tmp_path / "gc"
        rc = run(["gradcheck", "--out", str(out), "--gradcheck.samples", "1"])
        assert rc == 0
        doc = json.loads((out / "reports" / "gradcheck.json").read_text())
        assert doc["passed"]
        assert set(doc["max_relative_error"]) == set(KERNEL_CASES) | {"composite"}
        assert len(KERNEL_CASES) == 18

    @pytest.mark.parametrize("value", ["nan", "-1", "0", "inf"])
    def test_gradcheck_tolerance_out_of_range_rejected_before_any_check(
            self, tmp_path, capsys, monkeypatch, value):
        def no_check(samples):
            raise AssertionError("a kernel check ran")

        monkeypatch.setattr(cli.gradcheck, "max_errors", no_check)
        rc = run(["gradcheck", "--out", str(tmp_path / "gc"), "--gradcheck.samples", "1",
                  "--gradcheck.tolerance", value])
        assert rc == 2
        assert "error: gradcheck.tolerance must" in capsys.readouterr().err
        assert not (tmp_path / "gc" / "reports").exists()

    def test_transfer_freeze_ignores_commas_and_spaces(self, workspace, tmp_path):
        ws, data = workspace
        out = tmp_path / "transfer"
        rc = run(["transfer", "--out", str(out), "--dataset.root", str(data),
                  "--transfer.init_from", str(ws / "train-run" / "checkpoints" / "best.ckpt"),
                  "--transfer.freeze", "a, b"] + TINY)
        assert rc == 0
        report = json.loads((out / "reports" / "transfer.json").read_text())
        assert report["frozen"] == ["a", "b"]
        assert report["max_abs_param_delta"]["a"] == 0.0
        assert report["max_abs_param_delta"]["b"] == 0.0

    def test_transfer_unknown_freeze_letter_rejected_before_reading(self, tmp_path,
                                                                    capsys):
        # neither the checkpoint nor the dataset exists: reading either exits 1
        rc = run(["transfer", "--out", str(tmp_path / "t"),
                  "--dataset.root", str(tmp_path / "nope"),
                  "--transfer.init_from", str(tmp_path / "nope.ckpt"),
                  "--transfer.freeze", "a,z"] + TINY)
        assert rc == 2
        err = capsys.readouterr().err
        assert "transfer.freeze" in err and "'z'" in err

    @pytest.mark.parametrize("command,key,value", [
        ("gradcheck", "gradcheck.samples", "0"),
        ("gradcam", "gradcam.count", "-1"),
        ("gradcam", "gradcam.count", "0"),
        ("sweep-t", "sweep_t.values", "[]"),
    ])
    def test_count_that_cannot_be_honoured_rejected_before_reading(
            self, tmp_path, capsys, command, key, value):
        # neither the dataset nor a checkpoint exists: reading either exits 1
        out = tmp_path / "o"
        rc = run([command, "--out", str(out), "--dataset.root", str(tmp_path / "nope"),
                  f"--{key}", value] + TINY)
        assert rc == 2
        assert key in capsys.readouterr().err
        assert {p.name for p in out.rglob("*")} <= {"resolved.json"}

    @pytest.mark.parametrize("command,key,value", [
        ("train", "train.lr0", "-1"),
        ("train", "train.lr0", "nan"),
        ("train", "train.batch_size", "0"),
        ("train", "train.max_epochs", "0"),
        ("train", "train.plateau_epochs", "0"),
        ("train", "train.plateau_epochs", "-2"),
        ("train", "train.lr_decay", "nan"),
        ("sweep-t", "train.lr0", "-1"),
        ("ablate", "train.batch_size", "0"),
        ("transfer", "transfer.lr", "-1"),
        ("transfer", "transfer.lr", "nan"),
        ("transfer", "transfer.freeze", "abcde"),
        ("gradcam", "gradcam.channel", "2"),
        ("gradcam", "gradcam.channel", "-1"),
        ("train", "dataset.center_noise_sigma", "nan"),
        ("train", "dataset.center_noise_sigma", "-0.1"),
        ("eval", "dataset.center_noise_sigma", "inf"),
        ("synth", "dataset.num_sequences", "-3"),
        ("synth", "dataset.num_sequences", "0"),
        ("synth", "dataset.absent_fraction", "1.5"),
        ("synth", "dataset.absent_fraction", "1"),
        ("synth", "dataset.absent_fraction", "-0.1"),
        ("synth", "dataset.speed", "-2"),
        ("synth", "dataset.speed", "0"),
        ("synth", "dataset.speed", "inf"),
        ("synth", "dataset.noise_sigma", "nan"),
        ("synth", "dataset.noise_sigma", "inf"),
        ("synth", "dataset.noise_sigma", "-0.1"),
    ])
    def test_setting_out_of_range_rejected_before_reading(self, tmp_path, capsys, command,
                                                         key, value):
        # neither the dataset nor the checkpoint exists: reading either exits 1
        rc = run([command, "--out", str(tmp_path / "o"),
                  "--dataset.root", str(tmp_path / "nope"),
                  "--transfer.init_from", str(tmp_path / "nope.ckpt")]
                 + TINY + [f"--{key}", value])
        assert rc == 2
        assert f"error: {key} must" in capsys.readouterr().err
        written = {p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")}
        assert written <= {"o", "o/resolved.json"}

    def test_resolved_json_round_trips_train_and_transfer(self, workspace, tmp_path):
        # null, "auto", lists and an int under a null-or-number key
        ws, data = workspace
        best = tmp_path / "train" / "checkpoints" / "best.ckpt"
        for command, extra in (("train", ["--train.stop_at_val_dsc", "1"]),
                               ("transfer", ["--transfer.init_from", str(best),
                                             "--transfer.freeze", "a"])):
            args = ["--out", str(tmp_path / command), "--dataset.root", str(data)] \
                + extra + TINY
            assert run([command] + args) == 0
            written = cli.resolve_config(None, cli._parse_overrides(args))
            resolved = tmp_path / command / "resolved.json"
            assert cli.resolve_config(str(resolved), []) == written


class TestConfigErrors:
    @pytest.mark.parametrize("doc,key", [
        ({"model": {"embed_dim": "64"}}, "model.embed_dim"),
        ({"model": {"tcm_enabled": 1}}, "model.tcm_enabled"),
        ({"model": {"t": True}}, "model.t"),
        ({"model": {"depths": [2, "2"]}}, "model.depths[1]"),
        ({"model": {"merge_between_stages": "yes"}}, "model.merge_between_stages"),
        ({"train": {"stop_at_val_dsc": "0.9"}}, "train.stop_at_val_dsc"),
        ({"dataset": 3}, "dataset"),
    ])
    def test_mistyped_value_in_file_names_key_and_file(self, tmp_path, capsys, doc, key):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        rc = run(["cost", "--out", str(tmp_path / "c"), "--config", str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(path) in err and key in err

    def test_file_values_of_compatible_type_accepted(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps({"train": {"lr0": 1, "stop_at_val_dsc": 1},
                                    "model": {"merge_between_stages": False}}))
        cfg = cli.resolve_config(str(path), [])
        assert cfg["train"]["lr0"] == 1 and cfg["model"]["merge_between_stages"] is False

    def test_file_not_an_object_rejected(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        rc = run(["cost", "--out", str(tmp_path / "c"), "--config", str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(path) in err and "object" in err

    def test_malformed_file_names_file(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"model":\n')
        rc = run(["cost", "--out", str(tmp_path / "c"), "--config", str(path)])
        assert rc == 2
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("key,raw", [
        ("model.embed_dim", "abc"),
        ("train.lr0", "fast"),
        ("model.depths", "[2,"),
        ("model.depths", "[2, 2.5]"),
        ("model.tcm_enabled", "maybe"),
        ("train.stop_at_val_dsc", "abc"),
    ])
    def test_unparsable_override_names_key(self, tmp_path, capsys, key, raw):
        rc = run(["cost", "--out", str(tmp_path / "c"), f"--{key}", raw])
        assert rc == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("raw,value", [("0.9", 0.9), ("1", 1), ("null", None)])
    def test_null_default_override_takes_number_or_null(self, raw, value):
        cfg = cli.resolve_config(None, [("train.stop_at_val_dsc", raw)])
        assert cfg["train"]["stop_at_val_dsc"] == value

    @pytest.mark.parametrize("raw,key", [
        ("[1,2]", "fuse.inputs[0]"),
        ('[{"a":1},2]', "fuse.inputs[0]"),
        ('["a.pgm",3]', "fuse.inputs[1]"),
    ])
    def test_non_string_fuse_input_rejected_before_reading(self, tmp_path, capsys, raw,
                                                           key):
        rc = run(["fuse", "--out", str(tmp_path / "f"), "--fuse.inputs", raw])
        assert rc == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("dataset.h", "0"), ("dataset.w", "8"), ("dataset.frames_per_sequence", "8"),
    ])
    def test_bad_synth_setting_is_config_error(self, tmp_path, capsys, key, value):
        root = tmp_path / "data"
        rc = run(["synth", "--out", str(tmp_path / "s"), "--dataset.root", str(root),
                  f"--{key}", value])
        assert rc == 2
        assert f"error: {key} must be at least" in capsys.readouterr().err
        assert not root.exists()

    @pytest.mark.parametrize("args,key", [
        (["--dataset.h", "0"], "dataset.h"),
        (["--dataset.h", "40"], "dataset.h"),
        (["--dataset.w", "0"], "dataset.w"),
        (["--dataset.h", "0", "--dataset.w", "0"], "dataset.h"),
        (["--model.t", "4"], "model.t"),
        (["--model.backbone_channels", "[1,1,2,3]"], "model.backbone_channels"),
        (["--model.blocks_per_stage", "0"], "model.blocks_per_stage"),
        (["--model.tcm_reduction", "0"], "model.tcm_reduction"),
        (["--model.tcm_reduction", "-4"], "model.tcm_reduction"),
        (["--model.depths", "[3,2]"], "model.depths"),
        (["--model.decoder_channels", "[0,1,2,3]"], "model.decoder_channels"),
        (["--model.decoder_channels", "[-1,1,2,3]"], "model.decoder_channels"),
    ])
    def test_bad_model_setting_names_field(self, tmp_path, capsys, args, key):
        rc = run(["cost", "--out", str(tmp_path / "c")] + args)
        assert rc == 2
        assert f"error: {key} must" in capsys.readouterr().err


def test_import_loads_no_scipy():
    """The package runs on numpy alone: a fresh interpreter that imports
    the CLI has no scipy module loaded."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import vswu.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0].startswith('scipy')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.strip() == "[]"


def train_in_shell(data, out, prefix="", extra=()):
    """The last line printed by ``vswu train`` run as ``sh -c`` command
    ``prefix`` then ``exec`` of the train command."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    train = [sys.executable, "-m", "vswu.cli", "train", "--out", str(out),
             "--dataset.root", str(data), *TINY, *extra]
    proc = subprocess.run(["sh", "-c", prefix + "exec " + shlex.join(train)],
                          capture_output=True, text=True, check=True, env=env)
    return proc.stdout.strip().splitlines()[-1]


def test_train_prints_peak_resident_memory(workspace, tmp_path):
    """``vswu train`` ends with its own peak resident set and, when a worker
    computed half of each batch, the worker's, both in kB."""
    _, data = workspace
    line = train_in_shell(data, tmp_path / "t")
    m = re.fullmatch(r"train: peak RSS (\d+) kB(?:, worker (\d+) kB)?", line)
    assert m is not None, line
    assert int(m[1]) > 0
    if parallel.blas_threads():  # an OpenBLAS the run can pin, so a worker ran
        assert m[2] is not None and int(m[2]) > 0


def test_train_prints_worker_peak_below_an_earlier_program(workspace, tmp_path):
    """The worker's figure is its own peak: a program that ran before in the
    same process and peaked higher, which the children's figure would
    report instead, neither hides nor replaces it."""
    _, data = workspace
    line = train_in_shell(data, tmp_path / "t",
                          f"{shlex.quote(sys.executable)} -c 'x = bytearray(150_000_000)'; ")
    m = re.fullmatch(r"train: peak RSS (\d+) kB(?:, worker (\d+) kB)?", line)
    assert m is not None, line
    if parallel.blas_threads():  # an OpenBLAS the run can pin, so a worker ran
        assert m[2] is not None and 0 < int(m[2]) < 146_000, line


def test_train_prints_no_worker_peak_without_a_worker(workspace, tmp_path):
    """The children's peak survives ``exec``: a program that ran before in
    the same process leaves its peak there.  Batch size 1 runs no worker,
    so no worker figure is printed."""
    _, data = workspace
    line = train_in_shell(data, tmp_path / "t",
                          f"{shlex.quote(sys.executable)} -c 'import numpy'; ",
                          ["--train.batch_size", "1"])
    assert re.fullmatch(r"train: peak RSS \d+ kB", line), line
