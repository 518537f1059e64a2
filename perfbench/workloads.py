"""The benchmark's workloads: set-up from the seed, a closed measurement
loop over the ``vswu`` commands users run, and the output checks.

Every workload drives ``vswu.cli.main`` in this process, one command after
the other (a closed loop with one client).  One operation is one snippet:
for ``train`` a snippet consumed by an optimizer step, for ``eval`` a
center frame segmented.  Throughput is the median over commands of
snippets per second of command wall time.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from vswu import cli
from vswu import rng as vrng
from vswu.dataset import FRAME_PATTERN, load_manifest
from vswu.decoder import SegHead
from vswu.model import SnippetSegmenter
from vswu.pgm import read_pgm
from vswu.training import load_checkpoint, save_checkpoint

HERE = Path(__file__).resolve().parent
# probability maps may differ from the per-snippet reference by float
# summation order only; float32 logits carry ~1e-6 relative error
MAP_ATOL = 1e-4
EXPECTED_TRAIN = HERE / "expected_train.json"


@dataclass(frozen=True)
class Workload:
    name: str
    command: str             # "train" or "eval"
    size: int                # frame height = width
    t: int                   # snippet length
    sequences: int           # synthesized sequences (3 gives one per split)
    frames: int              # frames per sequence
    split: str               # split whose snippets are the operations
    spans: tuple[str, ...]   # trace spans this workload must reach

    def settings(self, seed: int, root: Path) -> list[tuple[str, str]]:
        """Config overrides, as ``vswu <command> --key value`` takes them."""
        pairs = [("seed", seed), ("out", root / "run"), ("dataset.root", root / "data"),
                 ("dataset.num_sequences", self.sequences),
                 ("dataset.frames_per_sequence", self.frames),
                 ("dataset.h", self.size), ("dataset.w", self.size), ("model.t", self.t)]
        if self.command == "train":
            pairs.append(("train.max_epochs", 1))
        else:
            pairs += [("eval.checkpoint", root / "model.ckpt"), ("eval.split", self.split)]
        return [(k, str(v)) for k, v in pairs]

    def argv(self, command: str, seed: int, root: Path) -> list[str]:
        return [command] + [a for k, v in self.settings(seed, root) for a in (f"--{k}", v)]

    def model_config(self, seed: int, root: Path):
        return cli.model_config_from(cli.resolve_config(None, self.settings(seed, root)))


MODEL_SPANS = ("tensor.conv2d", "tensor.matmul", "tensor.softmax",
               "tensor.layer_norm", "tensor.upsample2x", "tensor.concat",
               "backbone", "tcm", "swin", "decoder", "decoder.head",
               "dataset.window_snippets", "pgm.read")

WORKLOADS = {w.name: w for w in (
    Workload("train_t5", "train", 64, 5, sequences=4, frames=13, split="train",
             spans=MODEL_SPANS + ("tensor.backward", "optim.adam_step",
                                  "dataset.augment", "losses.combined_loss",
                                  "training.save_checkpoint")),
    Workload("segment_t5", "eval", 64, 5, sequences=3, frames=48, split="test",
             spans=MODEL_SPANS + ("pgm.write", "metrics.hd95", "metrics.asd",
                                  "training.load_checkpoint")),
)}


def run_cli(argv: list[str]) -> int:
    """One ``vswu`` command in this process, its console output discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


# ---- set-up -------------------------------------------------------------


def set_up(w: Workload, seed: int, root: Path) -> None:
    """Synthesize the dataset and, for ``eval``, the checkpoint it loads.

    The checkpoint is the seeded initialization with every temporal gate
    opened to a seeded value in [0.25, 0.75], so neighbour frames change
    the output and a wrong neighbour shows in the checks.
    """
    if run_cli(w.argv("synth", seed, root)) != 0:
        raise RuntimeError(f"vswu synth failed for {w.name}")
    if w.command != "eval":
        return
    model = SnippetSegmenter(w.model_config(seed, root), seed=seed)
    gen = vrng.generator(seed, "perfbench", "gates")
    for name, p in model.named_parameters():
        if name.endswith(".gate"):
            p.data = gen.uniform(0.25, 0.75, size=p.shape).astype(p.data.dtype)
    save_checkpoint(root / "model.ckpt", model, seed=seed)


def timed_set_up(w: Workload, seed: int, root: Path) -> float:
    t0 = time.perf_counter()
    set_up(w, seed, root)
    return time.perf_counter() - t0


# ---- output checks ------------------------------------------------------


class MapCheck:
    """Checks every probability map the segmentation head emits and keeps a
    fixed sample of them (by output position within a command)."""

    def __init__(self, size: int, sample: list[int]):
        self.size = size
        self.sample = set(sample)
        self.errors: list[str] = []
        self.kept: dict[int, np.ndarray] = {}
        self.count = 0
        self._original = None

    def install(self) -> None:
        check = self
        original = self._original = SegHead.forward

        def forward(head, x):
            out = original(head, x)
            check.observe(out.probs.data)
            return out

        SegHead.forward = forward

    def uninstall(self) -> None:
        SegHead.forward = self._original

    def observe(self, probs: np.ndarray) -> None:
        shape = (2, self.size, self.size)
        if tuple(probs.shape[-3:]) != shape:
            self.errors.append(f"probability map shape {probs.shape}, want {shape}")
            return
        for m in probs.reshape((-1,) + shape):
            if not np.isfinite(m).all():
                self.errors.append(f"non-finite probability map at output {self.count}")
            elif m.min() < 0.0 or m.max() > 1.0:
                self.errors.append(f"probability outside [0,1] at output {self.count}")
            if self.count in self.sample:
                self.kept[self.count] = m.copy()
            self.count += 1


def _sample_positions(n: int) -> list[int]:
    """First two, middle and last outputs: edge replication and interior."""
    return sorted({0, 1, n // 2, n - 1})


def reference_maps(w: Workload, seed: int, root: Path, positions: list[int]):
    """Plain per-snippet ``SnippetSegmenter.predict`` on the same
    checkpoint, with the edge-replicated window built here from the frame
    files rather than by the package's windowing."""
    model = SnippetSegmenter(w.model_config(seed, root), seed=seed)
    load_checkpoint(root / "model.ckpt").apply(model)
    manifest = load_manifest(root / "data")
    frames = []
    for entry in manifest.split(w.split):
        seq = [read_pgm(root / "data" / entry.name / (FRAME_PATTERN % f))
               .astype(np.float32)[None] / 255.0 for f in range(entry.frames)]
        frames.append(seq)
    k = (w.t - 1) // 2
    out = {}
    flat = [(s, c) for s, seq in enumerate(frames) for c in range(len(seq))]
    for pos in positions:
        s, c = flat[pos]
        seq = frames[s]
        window = [seq[min(max(c + d, 0), len(seq) - 1)] for d in range(-k, k + 1)]
        out[pos] = model.predict(window)
    return out


def log_losses(path: Path) -> list[tuple[float, float]]:
    """(train_loss, val_loss) per epoch from a ``vswu train`` log.csv."""
    with open(path, newline="") as fh:
        return [(float(r["train_loss"]), float(r["val_loss"]))
                for r in csv.DictReader(fh)]


def expected_val_loss(seed: int) -> tuple[float | None, float]:
    doc = json.loads(EXPECTED_TRAIN.read_text())
    return doc["final_val_loss"].get(str(seed)), doc["tolerance"]


# ---- the measurement loop -----------------------------------------------


@dataclass
class Outcome:
    setup_seconds: list[float] = field(default_factory=list)
    rates: list[float] = field(default_factory=list)          # untraced commands
    traced_rates: list[float] = field(default_factory=list)   # traced commands
    attempted: int = 0
    failed: int = 0
    traced_ops: int = 0
    errors: list[str] = field(default_factory=list)
    notes: dict = field(default_factory=dict)


def operations(w: Workload, root: Path) -> int:
    return sum(e.frames for e in load_manifest(root / "data").split(w.split))


def measure(w: Workload, seed: int, work: Path, seconds: float,
            recorder=None) -> Outcome:
    """Set up in ``work``, then run the workload's command back to back for
    ``seconds`` after one untimed warm-up command.

    Before every second command the set-up is repeated into a new directory
    and timed: a set-up takes well under a second, and spreading the repeats
    over the run keeps one slow stretch of a shared machine from setting
    them all.  Nothing is deleted (see ``run.py``).  With a recorder, every
    second command runs traced, so the traced and untraced rates come from
    interleaved commands of the same run.  Every command's outputs are checked, the warm-up's too.
    """
    res = Outcome()
    root = work / "setup"
    res.setup_seconds.append(timed_set_up(w, seed, root))
    args = w.argv(w.command, seed, root)
    ops = operations(w, root)
    maps = MapCheck(w.size, _sample_positions(ops)) if w.command == "eval" else None
    kept: list[dict[int, np.ndarray]] = []
    val_losses: list[float] = []
    if maps is not None:
        maps.install()
    try:
        start = None
        i = traced_runs = 0
        while (start is None or time.perf_counter() - start < seconds
               or (recorder is not None and not traced_runs)):
            warm_up = start is None
            traced = recorder is not None and i % 2 == 0 and not warm_up
            traced_runs += traced
            i += 1
            if i % 2:
                res.setup_seconds.append(timed_set_up(w, seed, work / f"spare{i}"))
            if maps is not None:
                maps.count, maps.kept = 0, {}
            if traced:
                recorder.install()
            t0 = time.perf_counter()
            try:
                rc = run_cli(args)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                rc = -1
            finally:
                wall = time.perf_counter() - t0
                if traced:
                    recorder.uninstall()
            res.attempted += ops
            if warm_up:
                start = time.perf_counter()
            if rc != 0:
                res.failed += ops
                res.errors.append(f"command {i} exited with {rc}")
                continue
            if not warm_up:
                (res.traced_rates if traced else res.rates).append(ops / wall)
                res.traced_ops += ops if traced else 0
            if maps is not None:
                if maps.count != ops:
                    res.errors.append(f"command {i}: {maps.count} maps for {ops} frames")
                kept.append(maps.kept)
            else:
                losses = log_losses(root / "run" / "log.csv")
                if not all(math.isfinite(v) for row in losses for v in row):
                    res.errors.append(f"command {i}: non-finite loss in log.csv {losses}")
                val_losses.append(losses[-1][1])
    finally:
        if maps is not None:
            maps.uninstall()
    if maps is not None:
        res.errors += maps.errors
        _check_maps(w, seed, root, kept, sorted(maps.sample), res)
    else:
        _check_train(seed, val_losses, res)
    res.notes["setups"] = len(res.setup_seconds)
    return res


def _check_maps(w, seed, root, kept, positions, res: Outcome) -> None:
    if not kept:
        return
    try:
        ref = reference_maps(w, seed, root, positions)
    except Exception as exc:
        res.errors.append(f"per-snippet reference predict failed: {exc!r}")
        return
    worst = 0.0
    for sample in kept:
        for pos in positions:
            if pos not in sample:
                res.errors.append(f"sampled output {pos} was never produced")
                continue
            worst = max(worst, float(np.abs(sample[pos] - ref[pos]).max()))
    res.notes["max_abs_map_diff_vs_predict"] = worst
    if worst > MAP_ATOL:
        res.errors.append(f"maps differ from per-snippet predict by {worst:.3g} "
                          f"(tolerance {MAP_ATOL})")


def _check_train(seed, val_losses, res: Outcome) -> None:
    if not val_losses:
        return
    if len(set(val_losses)) > 1:
        res.errors.append(f"final validation loss differs between identical "
                          f"commands: {sorted(set(val_losses))}")
    want, tol = expected_val_loss(seed)
    res.notes["final_val_loss"] = val_losses[0]
    res.notes["recorded_final_val_loss"] = want
    if want is None:
        res.notes["final_val_loss_check"] = "seed not recorded; checked finite and repeatable"
    elif abs(val_losses[0] - want) > tol:
        res.errors.append(f"final validation loss {val_losses[0]:.8f} is not within "
                          f"{tol} of the recorded {want:.8f} for seed {seed}")
