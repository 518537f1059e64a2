"""Operator command line: reproducible dataset synthesis, training,
evaluation, sweeps, ablations, transfer runs, label fusion, heatmaps,
gradient checking and cost reports.

Configuration comes from built-in defaults, optionally overlaid with a
JSON config file (--config) and dotted-path command-line overrides
(--key value, e.g. --train.max_epochs 5).  Unknown keys, and values of
another type than the key's default, are rejected.  The fully resolved
configuration is echoed to <out>/resolved.json; re-running from that file
reproduces the outputs bit for bit.
"""

from __future__ import annotations

import argparse
import copy
import functools
import itertools
import json
import math
import resource
import sys
from pathlib import Path

import numpy as np

from . import costs, gradcheck
from .dataset import (SynthConfig, load_manifest, synth_generate,
                      window_snippets, with_center_noise)
from .gradcam import gradcam
from .metrics import CHANNEL_NAMES, pair_row, summarize
from .model import ModelConfig, SnippetSegmenter
from .pgm import read_pgm, write_pgm
from .staple import staple_fuse
from .training import (TrainConfig, apply_freeze, fit, load_checkpoint,
                       save_checkpoint)

# The dataset and train keys are their dataclasses' field names; each model
# key names the ModelConfig attribute it sets.  Their defaults are the
# dataclasses' own.
SYNTH_KEYS = ("num_sequences", "frames_per_sequence", "h", "w", "noise_sigma",
              "absent_fraction", "speed")
TRAIN_KEYS = ("batch_size", "lr0", "plateau_epochs", "lr_decay", "max_epochs", "augment",
              "stop_at_val_dsc")
MODEL_KEYS = {
    "t": "t",
    "backbone_channels": "backbone.stage_channels",
    "blocks_per_stage": "backbone.blocks_per_stage",
    "tcm_enabled": "tcm.enabled", "tcm_reduction": "tcm.reduction",
    "tcm_include_center": "tcm.include_center", "tcm_tied_neighbors": "tcm.tied_neighbors",
    "embed_dim": "swin.embed_dim", "depths": "swin.depths", "heads": "swin.heads",
    "window_size": "swin.window_size", "mlp_ratio": "swin.mlp_ratio",
    "patch_size": "swin.patch_size", "merge_between_stages": "swin.merge_between_stages",
    "decoder_channels": "decoder.stage_channels", "tsc_enabled": "decoder.tsc_enabled",
    "skips_enabled": "decoder.skips_enabled",
}


def _defaults(config, paths: dict[str, str]) -> dict:
    """The value at each key's attribute path in ``config``, tuples as lists."""
    values = {k: functools.reduce(getattr, p.split("."), config) for k, p in paths.items()}
    return {k: list(v) if isinstance(v, tuple) else v for k, v in values.items()}


DEFAULT_CONFIG: dict = {
    "seed": 42,
    "out": "runs/run",
    "dataset": {"root": "data/synth", **_defaults(SynthConfig(), {k: k for k in SYNTH_KEYS}),
                "center_noise_sigma": 0.0},
    "model": _defaults(ModelConfig(), MODEL_KEYS),
    "train": _defaults(TrainConfig(), {k: k for k in TRAIN_KEYS}),
    "eval": {"checkpoint": "", "split": "test", "save_maps": True},
    "transfer": {"init_from": "", "freeze": "", "lr": 1e-4},
    "fuse": {"inputs": [], "output": "fused.pgm"},
    "gradcam": {"checkpoint": "", "channel": 0, "count": 4, "split": "test"},
    "gradcheck": {"samples": 3, "tolerance": 1e-4},
    "sweep_t": {"values": [3, 5, 7, 9, 11, 13]},
    "ablate": {},
    "cost": {},
}


class ConfigError(ValueError):
    pass


# keys that take a boolean or the string "auto"
AUTO_OR_BOOL_KEYS = ("model.merge_between_stages",)


def _check_type(where: str, default, value) -> None:
    """Reject a ``value`` whose type differs from the ``default`` it
    replaces at key ``where``: bool and int are distinct, an int is a
    float, a null default takes null or a number, and a list's items
    follow the default's first item (strings for an empty default)."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if where in AUTO_OR_BOOL_KEYS:
        ok, want = isinstance(value, bool) or value == "auto", "true, false or \"auto\""
    elif isinstance(default, bool):
        ok, want = isinstance(value, bool), "a boolean"
    elif isinstance(default, int):
        ok, want = number and isinstance(value, int), "an integer"
    elif isinstance(default, float):
        ok, want = number, "a number"
    elif default is None:
        ok, want = value is None or number, "null or a number"
    elif isinstance(default, str):
        ok, want = isinstance(value, str), "a string"
    elif isinstance(default, list):
        ok, want = isinstance(value, list), "a list"
    else:
        ok, want = isinstance(value, dict), "an object"
    if not ok:
        raise ConfigError(f"{where} must be {want}, got {value!r}")
    if isinstance(default, list):
        for i, item in enumerate(value):
            _check_type(f"{where}[{i}]", default[0] if default else "", item)


def _merge(base: dict, overlay: dict, path: str = "") -> None:
    for key, value in overlay.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key: {where}")
        _check_type(where, base[key], value)
        if isinstance(base[key], dict):
            _merge(base[key], value, where)
        else:
            base[key] = value


def _coerce_override(dotted: str, current, raw: str):
    """The command-line text ``raw`` parsed for the key whose current value
    is ``current``; text that does not parse is a ConfigError naming the
    key."""
    if dotted in AUTO_OR_BOOL_KEYS:
        return {"true": True, "false": False, "auto": "auto"}.get(raw.lower(), raw)
    if isinstance(current, bool):
        return {"true": True, "1": True, "yes": True,
                "false": False, "0": False, "no": False}.get(raw.lower(), raw)
    if isinstance(current, str):
        return raw
    parse = int if isinstance(current, int) else \
        float if isinstance(current, float) else json.loads
    try:
        return parse(raw)
    except ValueError as exc:
        raise ConfigError(f"{dotted}: cannot parse {raw!r}: {exc}") from exc


def _apply_override(cfg: dict, dotted: str, raw: str) -> None:
    *parents, leaf = dotted.split(".")
    node = cfg
    for p in parents:
        node = node.get(p) if isinstance(node, dict) else None
    if not isinstance(node, dict) or leaf not in node:
        raise ConfigError(f"unknown config key: {dotted}")
    _merge(node, {leaf: _coerce_override(dotted, node[leaf], raw)}, ".".join(parents))


def resolve_config(config_path: str | None, overrides: list[tuple[str, str]]) -> dict:
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if config_path:
        with open(config_path) as fh:
            try:
                doc = json.load(fh)
            except ValueError as exc:
                raise ConfigError(f"{config_path}: not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"{config_path}: expected a JSON object, "
                              f"got {type(doc).__name__}")
        doc.pop("command", None)  # resolved.json echoes are reusable as configs
        try:
            _merge(cfg, doc)
        except ConfigError as exc:
            raise ConfigError(f"{config_path}: {exc}") from exc
    for dotted, raw in overrides:
        _apply_override(cfg, dotted, raw)
    sigma = cfg["dataset"]["center_noise_sigma"]  # no dataclass owns this key
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ConfigError(f"dataset.center_noise_sigma must be finite and at least 0, "
                          f"got {sigma}")
    return cfg


def _validated(config, keys: dict[str, str]):
    """``config`` after its ``validate()``; a bad setting is a ConfigError
    naming its key: ``keys`` maps each attribute path that starts a
    ``validate`` message to the key."""
    try:
        config.validate()
    except ValueError as exc:
        field, rest = str(exc).split(" ", 1)
        raise ConfigError(f"{keys[field]} {rest}") from exc
    return config


def model_config_from(cfg: dict) -> ModelConfig:
    """The model config, validated: a bad setting is a ConfigError naming
    its key before any data is read."""
    mc = ModelConfig(h=cfg["dataset"]["h"], w=cfg["dataset"]["w"])
    for key, path in MODEL_KEYS.items():
        *owner, field = path.split(".")
        value = cfg["model"][key]
        setattr(functools.reduce(getattr, owner, mc), field,
                tuple(value) if isinstance(value, list) else value)
    return _validated(mc, {p: f"model.{k}" for k, p in MODEL_KEYS.items()}
                      | {"h": "dataset.h", "w": "dataset.w"})


def train_config_from(cfg: dict, lr0: float | None = None) -> TrainConfig:
    """The train section as a TrainConfig, validated: a bad setting is a
    ConfigError naming its key before any data is read.  ``lr0``, the
    transfer.lr key, replaces train.lr0."""
    tc = TrainConfig(seed=cfg["seed"], **{k: cfg["train"][k] for k in TRAIN_KEYS})
    keys = {k: f"train.{k}" for k in TRAIN_KEYS}
    if lr0 is not None:
        tc.lr0, keys["lr0"] = lr0, "transfer.lr"
    return _validated(tc, keys)


def _out_dir(cfg: dict) -> Path:
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _echo_resolved(cfg: dict, command: str) -> Path:
    out = _out_dir(cfg)
    doc = dict(cfg)
    doc["command"] = command
    with open(out / "resolved.json", "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
    return out


def _write_report(out: Path, name: str, doc: dict) -> Path:
    """``doc`` as sorted, indented JSON in <out>/reports/<name>."""
    path = out / "reports" / name
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
    return path


def _load_into(model: SnippetSegmenter, path: str) -> None:
    """Load checkpoint ``path`` into ``model``; a misfit is a ValueError naming ``path``."""
    ck = load_checkpoint(path)
    try:
        ck.apply(model)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _load_split_snippets(cfg: dict, split: str):
    """The split's snippets; a split with no sequence or a dataset of
    another size than ``dataset.h``/``dataset.w`` is a ValueError naming
    the manifest."""
    d = cfg["dataset"]
    manifest = load_manifest(d["root"])
    path = manifest.root / "manifest.json"
    if not manifest.split(split):
        have = sorted({s.split for s in manifest.sequences})
        raise ValueError(f"{path}: no sequence in split {split!r}; the manifest has "
                         f"splits {have}")
    if (manifest.h, manifest.w) != (d["h"], d["w"]):
        raise ValueError(f"{path}: the dataset is {manifest.h}x{manifest.w}, but "
                         f"dataset.h x dataset.w is {d['h']}x{d['w']}")
    snippets = window_snippets(manifest, cfg["model"]["t"], splits=(split,))
    return with_center_noise(snippets, d["center_noise_sigma"], cfg["seed"])


# ---- commands ---------------------------------------------------------------


def cmd_synth(cfg: dict) -> int:
    d = cfg["dataset"]
    synth = _validated(SynthConfig(seed=cfg["seed"], **{k: d[k] for k in SYNTH_KEYS}),
                       {k: f"dataset.{k}" for k in SYNTH_KEYS})
    manifest = synth_generate(synth, d["root"])
    _echo_resolved(cfg, "synth")
    counts = {}
    for s in manifest.sequences:
        counts[s.split] = counts.get(s.split, 0) + 1
    print(f"synth: wrote {len(manifest.sequences)} sequences to {d['root']} "
          f"(splits: {counts})")
    return 0


def _train_once(cfg: dict, out: Path):
    train_cfg = train_config_from(cfg)
    model = SnippetSegmenter(model_config_from(cfg), seed=cfg["seed"])
    train = _load_split_snippets(cfg, "train")
    val = _load_split_snippets(cfg, "val")
    log, best = fit(model, train, val, train_cfg, log_path=out / "log.csv")
    ck_dir = out / "checkpoints"
    save_checkpoint(ck_dir / "final.ckpt", model, epoch=len(log),
                    best_val=best.best_val_loss, seed=cfg["seed"])
    best.apply(model)
    save_checkpoint(ck_dir / "best.ckpt", model, epoch=best.epoch,
                    best_val=best.best_val_loss, seed=cfg["seed"])
    return model, log, best


def cmd_train(cfg: dict) -> int:
    out = _echo_resolved(cfg, "train")
    # ru_maxrss, in kB on Linux; the children's figure survives exec, so only
    # a rise is the training worker's (reaped by then, the only child forked)
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    model, log, best = _train_once(cfg, out)
    last = log[-1]
    print(f"train: {len(log)} epochs, best val loss {best.best_val_loss:.5f}, "
          f"final val DSC {last['val_dsc']:.4f}; outputs in {out}")
    worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(f"train: peak RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss} kB"
          + (f", worker {worker} kB" if worker > before else ""))
    return 0


def _evaluate(model: SnippetSegmenter, snippets, out: Path | None,
              save_maps: bool) -> dict:
    # the pairs are scored after the loop: scoring inside it slowed segmentation
    pairs = []
    for i, (s, seg) in enumerate(zip(snippets, model.segment_snippets(snippets))):
        probs = seg.probs.data
        pred = probs >= 0.5
        pairs.append([(pred[c], s.label[c] >= 0.5) for c in range(len(CHANNEL_NAMES))])
        if save_maps and out is not None and i < 16:
            maps_dir = out / "maps"
            maps_dir.mkdir(exist_ok=True)
            for c, name in enumerate(CHANNEL_NAMES):
                write_pgm(maps_dir / f"pred_{name}_{i:04d}.pgm",
                          (probs[c] * 255).astype(np.uint8))
    params, flops = costs.count_params_flops(model)
    return summarize([[pair_row(*pair) for pair in snippet] for snippet in pairs],
                     params, flops)


def cmd_eval(cfg: dict) -> int:
    out = _echo_resolved(cfg, "eval")
    model = SnippetSegmenter(model_config_from(cfg), seed=None)  # loaded below
    ck_path = cfg["eval"]["checkpoint"] or str(out / "checkpoints" / "best.ckpt")
    _load_into(model, ck_path)
    snippets = _load_split_snippets(cfg, cfg["eval"]["split"])
    report = _evaluate(model, snippets, out, cfg["eval"]["save_maps"])
    path = _write_report(out, "metrics.json", report)
    for name, ch in report["channels"].items():
        hd = f"{ch['hd95']:.4f}" if ch["hd95"] is not None else "undefined"
        print(f"eval[{name}]: dsc={ch['dsc']:.4f} hd95={hd} "
              f"sens={ch['sensitivity']:.4f} spec={ch['specificity']:.4f}")
    print(f"eval: report in {path}")
    return 0


def _grid(cfg: dict, command: str, variants: list[tuple[str, dict]], header: str,
          row) -> int:
    """Train one model per variant in <out>/<tag>, score it on the val split
    and write one CSV line per variant to <out>/reports/<command>.csv.

    ``variants`` pairs each tag with its model-config overrides;
    ``row(overrides, mean_val_dsc, best, model)`` formats the CSV line from
    the report's ``model`` section (params and FLOPs).
    """
    out = _echo_resolved(cfg, command)
    subs = []
    for tag, overrides in variants:
        sub = copy.deepcopy(cfg)
        sub["model"].update(overrides)
        model_config_from(sub)  # every variant is checked before any trains
        train_config_from(sub)
        subs.append((tag, overrides, sub))
    lines = []
    for tag, overrides, sub in subs:
        sub_out = out / tag
        sub_out.mkdir(parents=True, exist_ok=True)
        model, _, best = _train_once(sub, sub_out)
        report = _evaluate(model, _load_split_snippets(sub, "val"), None, False)
        mean_dsc = float(np.mean([c["dsc"] for c in report["channels"].values()]))
        lines.append(row(overrides, mean_dsc, best, report["model"]) + "\n")
        print(f"{command}: {tag} val_dsc={mean_dsc:.4f} params={report['model']['params']}")
    table = out / "reports" / f"{command.replace('-', '_')}.csv"
    table.parent.mkdir(exist_ok=True)
    table.write_text(header + "\n" + "".join(lines))
    print(f"{command}: table in {table}")
    return 0


def cmd_sweep_t(cfg: dict) -> int:
    if not cfg["sweep_t"]["values"]:
        raise ConfigError("sweep_t.values must list at least one t, got []")
    return _grid(cfg, "sweep-t", [(f"t{t}", {"t": t}) for t in cfg["sweep_t"]["values"]],
                 "t,val_dsc,best_val_loss,params,flops",
                 lambda o, dsc, best, m: (f"{o['t']},{dsc:.6f},{best.best_val_loss:.6f},"
                                          f"{m['params']},{m['flops']}"))


def cmd_ablate(cfg: dict) -> int:
    keys = ("tcm_enabled", "tsc_enabled", "skips_enabled")
    variants = [(f"tcm{int(a)}_tsc{int(b)}_skips{int(c)}", dict(zip(keys, (a, b, c))))
                for a, b, c in itertools.product((True, False), repeat=3)]
    return _grid(cfg, "ablate", variants, "tcm,tsc,skips,val_dsc,params",
                 lambda o, dsc, best, m: ",".join(str(int(o[k])) for k in keys)
                 + f",{dsc:.6f},{m['params']}")


def cmd_transfer(cfg: dict) -> int:
    out = _echo_resolved(cfg, "transfer")
    tr = cfg["transfer"]
    if not tr["init_from"]:
        raise ConfigError("transfer requires transfer.init_from (a checkpoint path)")
    train_cfg = train_config_from(cfg, lr0=tr["lr"])
    model = SnippetSegmenter(model_config_from(cfg), seed=None)  # loaded below
    # letters a-e; commas and whitespace between them are ignored
    freeze = tuple(x for x in tr["freeze"] if x != "," and not x.isspace())
    try:
        apply_freeze(model, freeze)
    except ValueError as exc:
        raise ConfigError(f"transfer.freeze: {exc}") from exc
    if not any(p.requires_grad for _, p in model.named_parameters()):
        raise ConfigError(f"transfer.freeze must leave a component with parameters to "
                          f"train, got {tr['freeze']!r}")
    _load_into(model, tr["init_from"])
    before = {n: p.data.copy() for n, p in model.named_parameters()}
    train = _load_split_snippets(cfg, "train")
    val = _load_split_snippets(cfg, "val")
    log, best = fit(model, train, val, train_cfg, log_path=out / "log.csv")
    save_checkpoint(out / "checkpoints" / "final.ckpt", model, epoch=len(log),
                    best_val=best.best_val_loss, seed=cfg["seed"])
    deltas = {}
    for n, p in model.named_parameters():
        letter = n.split(".", 1)[0]
        delta = float(np.abs(p.data - before[n]).max())
        deltas[letter] = max(deltas.get(letter, 0.0), delta)
    _write_report(out, "transfer.json",
                  {"frozen": sorted(freeze), "max_abs_param_delta": deltas,
                   "val_loss_start": log[0]["val_loss"],
                   "val_loss_best": best.best_val_loss})
    for letter in sorted(deltas):
        state = "frozen" if letter in freeze else "tuned"
        print(f"transfer: component {letter} ({state}) max param delta "
              f"{deltas[letter]:.3e}")
    return 0


def cmd_fuse(cfg: dict) -> int:
    out = _echo_resolved(cfg, "fuse")
    paths = cfg["fuse"]["inputs"]
    if len(paths) < 2:
        raise ConfigError("fuse requires at least two rater mask paths in fuse.inputs")
    masks = [(read_pgm(p) > 127).astype(np.float64) for p in paths]
    for p, m in zip(paths, masks):
        if m.shape != masks[0].shape:
            raise ValueError(f"{p}: mask shape {m.shape} differs from "
                             f"{paths[0]}'s {masks[0].shape}")
    result = staple_fuse(np.stack(masks))
    fused_path = out / cfg["fuse"]["output"]
    write_pgm(fused_path, result.fused.astype(np.uint8) * 255)
    sidecar = {
        "inputs": list(paths),
        "sensitivity": [float(v) for v in result.sensitivity],
        "specificity": [float(v) for v in result.specificity],
        "iterations": result.iterations,
        "converged": result.converged,
    }
    with open(fused_path.with_suffix(".json"), "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
    print(f"fuse: {len(paths)} raters -> {fused_path} "
          f"(converged={result.converged}, iterations={result.iterations})")
    return 0


def cmd_gradcam(cfg: dict) -> int:
    out = _echo_resolved(cfg, "gradcam")
    g = cfg["gradcam"]
    if g["count"] < 1:
        raise ConfigError(f"gradcam.count must be at least 1, got {g['count']}")
    if g["channel"] not in (0, 1):
        raise ConfigError(f"gradcam.channel must be 0 or 1, got {g['channel']}")
    model = SnippetSegmenter(model_config_from(cfg), seed=None)  # loaded below
    ck_path = g["checkpoint"] or str(out / "checkpoints" / "best.ckpt")
    _load_into(model, ck_path)
    snippets = _load_split_snippets(cfg, g["split"])[: g["count"]]
    maps_dir = out / "maps"
    maps_dir.mkdir(exist_ok=True)
    for i, s in enumerate(snippets):
        cam = gradcam(model, s, g["channel"])
        write_pgm(maps_dir / f"gradcam_ch{g['channel']}_{i:04d}.pgm",
                  (cam * 255).astype(np.uint8))
    print(f"gradcam: wrote {len(snippets)} heatmaps to {maps_dir}")
    return 0


def cmd_gradcheck(cfg: dict) -> int:
    out = _echo_resolved(cfg, "gradcheck")
    samples, tolerance = cfg["gradcheck"]["samples"], cfg["gradcheck"]["tolerance"]
    if samples < 1:
        raise ConfigError(f"gradcheck.samples must be at least 1, got {samples}")
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ConfigError(f"gradcheck.tolerance must be finite and positive, got {tolerance}")
    errors = gradcheck.max_errors(samples)
    report = {"tolerance": tolerance, "max_relative_error": errors,
              "passed": all(v <= tolerance for v in errors.values())}
    _write_report(out, "gradcheck.json", report)
    for name, err in sorted(report["max_relative_error"].items()):
        print(f"gradcheck: {name:12s} max rel err {err:.3e}")
    if not report["passed"]:
        print("error: gradcheck exceeded tolerance", file=sys.stderr)
        return 1
    print(f"gradcheck: all kernels within {report['tolerance']:g}")
    return 0


def cmd_cost(cfg: dict) -> int:
    out = _echo_resolved(cfg, "cost")
    mc = model_config_from(cfg)
    model = SnippetSegmenter(mc, seed=None)  # only parameter counts are read
    params, flops = costs.count_params_flops(model)
    runtime = model.param_count()
    m = cfg["model"]
    scaling = [
        {"tokens": n,
         "windowed_flops": costs.window_attention_flops(
             n, m["window_size"][0], m["embed_dim"], m["heads"][0]),
         "dense_flops": costs.dense_attention_flops(n, m["embed_dim"], m["heads"][0])}
        for n in (64, 256, 1024)
    ]
    doc = {"params_analytic": params, "params_runtime": runtime,
           "flops_forward_snippet": flops,
           "per_component": costs.component_costs(mc),
           "attention_scaling": scaling,
           "flop_convention": "multiply+add counted as 2 operations"}
    _write_report(out, "cost.json", doc)
    print(f"cost: params={params} (runtime {runtime}), forward flops={flops}")
    return 0


HANDLERS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "eval": cmd_eval,
    "sweep-t": cmd_sweep_t,
    "ablate": cmd_ablate,
    "transfer": cmd_transfer,
    "fuse": cmd_fuse,
    "gradcam": cmd_gradcam,
    "gradcheck": cmd_gradcheck,
    "cost": cmd_cost,
}


def _parse_overrides(rest: list[str]) -> list[tuple[str, str]]:
    overrides = []
    i = 0
    while i < len(rest):
        tok = rest[i]
        if not tok.startswith("--"):
            raise ConfigError(f"unexpected argument {tok!r}; overrides look like --key value")
        key = tok[2:]
        if "=" in key:
            key, raw = key.split("=", 1)
        else:
            i += 1
            if i >= len(rest):
                raise ConfigError(f"override {tok} is missing its value")
            raw = rest[i]
        overrides.append((key, raw))
        i += 1
    return overrides


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="vswu",
        description="Spatio-temporal snippet segmentation toolkit")
    parser.add_argument("command", choices=list(HANDLERS))
    parser.add_argument("--config", default=None, help="JSON config file")
    args, rest = parser.parse_known_args(argv)
    try:
        overrides = _parse_overrides(rest)
        cfg = resolve_config(args.config, overrides)
        return HANDLERS[args.command](cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FileNotFoundError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
