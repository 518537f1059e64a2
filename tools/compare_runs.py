"""Run one fixed ``vswu`` command matrix on two git revisions and compare
every output file byte for byte.

    python tools/compare_runs.py BASE [HEAD]

``HEAD`` defaults to ``HEAD``; both are any revision git accepts, and
uncommitted changes are not part of either.  Each revision is checked out
with ``git worktree add --detach`` into a temporary directory, which is
removed afterwards.  The matrix synthesizes a tiny dataset and runs train
(2 epochs, batch sizes 2, 3 and 1), eval on the test split and on the
train split (two 14-frame sequences, so one block of eight snippets spans
both), gradcam, transfer with component a frozen, train, eval and gradcam
with tied neighbour slots and no center slot, sweep-t, ablate, gradcam on
ablate's model without the blender (the one-slot bypass), gradcheck and cost,
a 128x128 synth, 1-epoch train and eval that run the Swin patch merge, a
cost with every model key off its default, a synth and 1-epoch train that
move the remaining dataset and train keys off theirs, and a synth and
1-epoch train on ten sequences, whose two validation sequences make a
validation set that the two training processes split across sequences, all
with a fixed seed and ``OPENBLAS_NUM_THREADS=1``.  Every command runs from a fresh run
directory with relative paths, so even ``resolved.json`` files compare equal.

Prints the identical and the differing files and exits 0 when every file
is identical, 1 on any difference or a file that only one side wrote, and
2 when a command fails.
"""

from __future__ import annotations

import argparse
import contextlib
import filecmp
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TINY = ["--seed", "7", "--dataset.root", "data",
        "--dataset.num_sequences", "4", "--dataset.frames_per_sequence", "14",
        "--dataset.h", "32", "--dataset.w", "32", "--model.t", "3",
        "--model.backbone_channels", "[2,4,6,8]", "--model.embed_dim", "8",
        "--model.depths", "[2,2]", "--model.heads", "[2,2]",
        "--model.window_size", "[2,2]", "--model.decoder_channels", "[8,6,4,4]",
        "--train.max_epochs", "2"]
BEST = "out/train/checkpoints/best.ckpt"
TIED = ["--model.tcm_tied_neighbors", "true", "--model.tcm_include_center", "false"]
# an 8x8 token grid, so the Swin encoder merges between its stages
AT_128 = ["--dataset.root", "data128", "--dataset.h", "128", "--dataset.w", "128"]
# every model key off its default and apart from its siblings' values, so a key
# routed to another attribute changes cost.json; tcm_enabled stays on, since the
# blender's other keys only count while it runs (ablate turns it off)
ALL_MODEL_KEYS = ["--dataset.h", "128", "--dataset.w", "128", "--model.t", "7",
                  "--model.backbone_channels", "[4,8,12,20]", "--model.blocks_per_stage", "3",
                  "--model.tcm_reduction", "5", "--model.tcm_include_center", "false",
                  "--model.tcm_tied_neighbors", "true", "--model.embed_dim", "24",
                  "--model.depths", "[2,4]", "--model.heads", "[3,6]",
                  "--model.window_size", "[4,2]", "--model.mlp_ratio", "6",
                  "--model.patch_size", "2", "--model.merge_between_stages", "true",
                  "--model.decoder_channels", "[40,28,16,10]",
                  "--model.tsc_enabled", "false", "--model.skips_enabled", "false"]
# the dataset and train keys that no other entry moves off their defaults
KNOBS = ["--dataset.root", "data_knobs", "--dataset.noise_sigma", "0.1",
         "--dataset.absent_fraction", "0.3", "--dataset.speed", "1.5"]
TRAIN_KNOBS = ["--dataset.center_noise_sigma", "0.05", "--train.lr0", "2e-3",
               "--train.plateau_epochs", "1", "--train.lr_decay", "0.5",
               "--train.augment", "false"]
# ten sequences: two of them validation sequences
VAL2 = ["--dataset.root", "data_val2", "--dataset.num_sequences", "10"]

# (name, vswu arguments); each writes under out/<name>, later ones read earlier outputs
MATRIX = [
    ("synth", ["synth"] + TINY),
    ("train", ["train"] + TINY),
    ("train_b3", ["train", "--train.batch_size", "3"] + TINY),
    ("train_b1", ["train", "--train.batch_size", "1"] + TINY),
    ("eval", ["eval", "--eval.checkpoint", BEST] + TINY),
    ("eval_train", ["eval", "--eval.checkpoint", BEST, "--eval.split", "train"] + TINY),
    ("gradcam", ["gradcam", "--gradcam.checkpoint", BEST, "--gradcam.count", "2"] + TINY),
    ("transfer", ["transfer", "--transfer.init_from", BEST, "--transfer.freeze", "a"]
     + TINY),
    ("train_tied", ["train"] + TINY + TIED),
    ("eval_tied", ["eval", "--eval.checkpoint", "out/train_tied/checkpoints/best.ckpt"]
     + TINY + TIED),
    ("gradcam_tied", ["gradcam", "--gradcam.checkpoint", "out/train_tied/checkpoints/best.ckpt",
                      "--gradcam.count", "2"] + TINY + TIED),
    ("sweep_t", ["sweep-t", "--sweep_t.values", "[3,5,13]"] + TINY),
    ("ablate", ["ablate", "--train.max_epochs", "1"] + TINY[:-2]),
    ("gradcam_bypass", ["gradcam", "--gradcam.checkpoint",
                        "out/ablate/tcm0_tsc1_skips1/checkpoints/best.ckpt",
                        "--gradcam.count", "2", "--model.tcm_enabled", "false"] + TINY),
    ("gradcheck", ["gradcheck", "--gradcheck.samples", "2"]),
    ("cost", ["cost"]),
    ("cost_128", ["cost", "--dataset.h", "128", "--dataset.w", "128"]),
    ("synth_128", ["synth"] + TINY + AT_128),
    ("train_128", ["train", "--train.max_epochs", "1"] + TINY[:-2] + AT_128),
    ("eval_128", ["eval", "--eval.checkpoint", "out/train_128/checkpoints/best.ckpt"]
     + TINY + AT_128),
    ("cost_all_keys", ["cost"] + ALL_MODEL_KEYS),
    ("synth_knobs", ["synth"] + TINY + KNOBS),
    ("train_knobs", ["train", "--train.max_epochs", "1"] + TINY[:-2] + KNOBS + TRAIN_KNOBS),
    ("synth_val2", ["synth"] + TINY + VAL2),
    ("train_val2", ["train", "--train.max_epochs", "1"] + TINY[:-2] + VAL2),
]


def compare_trees(a: Path, b: Path) -> dict[str, list[str]]:
    """Relative paths of the files under ``a`` and ``b``, sorted into
    ``identical``, ``different``, ``only_a`` and ``only_b``."""
    files_a = {p.relative_to(a).as_posix() for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b).as_posix() for p in b.rglob("*") if p.is_file()}
    both = sorted(files_a & files_b)
    same = [f for f in both if filecmp.cmp(a / f, b / f, shallow=False)]
    return {"identical": same,
            "different": [f for f in both if f not in set(same)],
            "only_a": sorted(files_a - files_b),
            "only_b": sorted(files_b - files_a)}


def report(result: dict[str, list[str]], names: tuple[str, str]) -> int:
    """Print ``result`` and return the exit status: 0 when every file is
    identical, 1 otherwise."""
    for f in result["identical"]:
        print(f"identical  {f}")
    for f in result["different"]:
        print(f"DIFFERENT  {f}")
    for side, key in zip(names, ("only_a", "only_b")):
        for f in result[key]:
            print(f"ONLY IN {side}  {f}")
    bad = sum(len(result[k]) for k in ("different", "only_a", "only_b"))
    print(f"{len(result['identical'])} identical, {len(result['different'])} different, "
          f"{len(result['only_a'])} only in {names[0]}, {len(result['only_b'])} only in "
          f"{names[1]}")
    return 1 if bad else 0


def _git(*args: str) -> None:
    proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"git {' '.join(args)} failed:\n{proc.stderr}")


def run_matrix(tree: Path, run_dir: Path) -> None:
    """Run every command of the matrix with ``tree``'s package from
    ``run_dir``; a failed command raises a RuntimeError with its output."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    run_dir.mkdir(parents=True)
    for name, args in MATRIX:
        argv = [sys.executable, "-m", "vswu.cli", *args, "--out", f"out/{name}"]
        proc = subprocess.run(argv, cwd=run_dir, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{tree.name}: {' '.join(args[:1])} ({name}) exited "
                               f"{proc.returncode}:\n{proc.stdout}{proc.stderr}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base")
    p.add_argument("head", nargs="?", default="HEAD")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="compare-runs-") as tmp:
        tmp = Path(tmp)
        trees = []
        try:
            for side, rev in (("base", args.base), ("head", args.head)):
                tree = tmp / side
                _git("worktree", "add", "--detach", str(tree), rev)
                trees.append(tree)
                run_matrix(tree, tmp / f"run-{side}")
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        finally:
            for tree in trees:
                with contextlib.suppress(RuntimeError):
                    _git("worktree", "remove", "--force", str(tree))
        return report(compare_trees(tmp / "run-base", tmp / "run-head"),
                      (args.base, args.head))


if __name__ == "__main__":
    sys.exit(main())
