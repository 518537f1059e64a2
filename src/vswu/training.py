"""Training loop, component freezing, and the binary checkpoint format.

Checkpoint layout: magic "VSWU", u32 LE version, u32 LE blob count, then
framed blobs: u16 name length, UTF-8 name, u8 rank, rank x u32 LE dims,
raw float32 LE values.  Model parameters come first (names prefixed by
component letter), then the epoch and best validation loss under "opt."
and the seed, as four 16-bit limbs, under "rng.".
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import rng as vrng
from . import tensor as T
from .dataset import Snippet, augment
from .losses import combined_loss
from .metrics import dsc
from .model import COMPONENT_ATTRS, SnippetSegmenter
from .optim import Adam, PlateauScheduler
from .parallel import HalfBatchWorker, non_finite_components, one_blas_thread
from .tensor import Tensor

MAGIC = b"VSWU"
VERSION = 1


@dataclass
class TrainConfig:
    batch_size: int = 2
    lr0: float = 1e-3
    plateau_epochs: int = 20
    lr_decay: float = 0.8
    plateau_threshold: float = 1e-5
    max_epochs: int = 30
    seed: int = 42
    augment: bool = True
    stop_at_val_dsc: float | None = None

    def validate(self):
        """A bad setting is a ValueError whose message starts with the
        field's name."""
        if not (math.isfinite(self.lr0) and self.lr0 > 0):
            raise ValueError(f"lr0 must be finite and positive, got {self.lr0}")
        if not (0 < self.lr_decay < 1):
            raise ValueError(f"lr_decay must lie in (0, 1), got {self.lr_decay}")
        for name in ("batch_size", "plateau_epochs", "max_epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")


@dataclass
class Checkpoint:
    """Model parameters by name, and the epoch, best validation loss
    (float32-rounded, as the file holds it) and seed stored with them."""
    params: dict[str, np.ndarray]
    epoch: int = 0
    best_val_loss: float = float("inf")
    seed: int = 0

    def apply(self, model: SnippetSegmenter) -> None:
        """Copy the stored parameters into every model parameter's array, so
        the model never shares memory with the checkpoint; a missing name, a
        name the model lacks or a shape conflict is a ValueError."""
        params = dict(model.named_parameters())
        extra = sorted(self.params.keys() - params.keys())
        if extra:
            raise ValueError(f"checkpoint has {len(extra)} parameters the model lacks, "
                             f"e.g. {extra[0]!r}")
        for name, p in params.items():
            if name not in self.params:
                raise ValueError(f"checkpoint is missing parameter {name!r}")
            blob = self.params[name]
            if tuple(blob.shape) != tuple(p.shape):
                raise ValueError(f"shape conflict for {name!r}: checkpoint "
                                 f"{blob.shape} vs model {tuple(p.shape)}")
            np.copyto(p.data, blob)


# the metadata blobs after the parameters, each holding the values that a
# checkpoint without it reads as
_META = {"opt.epoch": np.zeros(1, np.float32),
         "opt.best_val": np.full(1, np.inf, np.float32),
         "rng.seed": np.zeros(4, np.float32)}  # 16-bit limbs, lowest first


def _write_blob(fh, name: str, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(arr, dtype="<f4")  # no copy for a float32 array
    encoded = name.encode("utf-8")
    fh.write(struct.pack("<H", len(encoded)))
    fh.write(encoded)
    fh.write(struct.pack("<B", arr.ndim))
    for d in arr.shape:
        fh.write(struct.pack("<I", d))
    fh.write(arr)


def save_checkpoint(path, model: SnippetSegmenter, epoch: int = 0,
                    best_val: float = float("inf"), seed: int = 0) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    blobs: list[tuple[str, np.ndarray]] = [(n, p.data) for n, p in model.named_parameters()]
    limbs = [(seed >> (16 * i)) & 0xFFFF for i in range(4)]
    blobs += [(name, np.array(values, dtype=np.float32))
              for name, values in zip(_META, ([epoch], [best_val], limbs))]
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<I", len(blobs)))
        for name, arr in blobs:
            _write_blob(fh, name, arr)


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint blob by blob, each array straight from the file;
    a short, padded or foreign file, or a metadata blob of an unknown name,
    another size or values the writer never stores, raises a ValueError
    that names ``path``."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        pos = 0

        def read(n: int, what: str, dims=None):
            """The ``n`` bytes at ``pos``; with ``dims``, as a float32 array
            of that shape, allocated only once the file is known to hold it."""
            nonlocal pos
            if pos + n <= size:
                buf = bytearray(n) if dims is None else np.empty(dims, dtype="<f4")
                if fh.readinto(buf) == n:
                    pos += n
                    return buf
            raise ValueError(f"{path}: truncated checkpoint: {what} needs {n} bytes "
                             f"at offset {pos}, the file has {size}")

        magic = bytes(read(4, "magic"))
        if magic != MAGIC:
            raise ValueError(f"{path}: bad checkpoint magic {magic!r}")
        version, count = struct.unpack("<II", read(8, "header"))
        if version != VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        params: dict[str, np.ndarray] = {}
        meta = dict(_META)
        for _ in range(count):
            (nlen,) = struct.unpack("<H", read(2, "blob name length"))
            try:
                name = read(nlen, "blob name").decode("utf-8")
            except UnicodeDecodeError:
                raise ValueError(f"{path}: blob name at offset {pos - nlen} "
                                 "is not UTF-8") from None
            (rank,) = struct.unpack("<B", read(1, f"rank of {name!r}"))
            dims = struct.unpack(f"<{rank}I", read(4 * rank, f"dims of {name!r}"))
            arr = read(4 * math.prod(dims), f"values of {name!r}", dims)
            if name in _META:
                if arr.size != _META[name].size:
                    raise ValueError(f"{path}: checkpoint blob {name!r} holds {arr.size} "
                                     f"values, not {_META[name].size}")
                meta[name] = arr.reshape(-1)
            elif name.startswith(("opt.", "rng.")):
                raise ValueError(f"{path}: unknown checkpoint blob {name!r}")
            else:
                params[name] = arr
    if pos != size:
        raise ValueError(f"{path}: {size - pos} trailing bytes after the last of "
                         f"{count} checkpoint blobs")
    epoch, best_val, limbs = meta.values()
    for what, v, bound in (("epoch", epoch, 2**24), ("seed limbs", limbs, 2**16)):
        if not np.all((v >= 0) & (v < bound) & (v == np.floor(v))):
            raise ValueError(f"{path}: checkpoint {what} {v.tolist()} must be whole "
                             f"numbers from 0 to {bound - 1}")
    return Checkpoint(params, int(epoch[0]), float(best_val[0]),
                      sum(int(v) << (16 * i) for i, v in enumerate(limbs)))


def apply_freeze(model: SnippetSegmenter, freeze_set) -> SnippetSegmenter:
    """Exclude whole components (letters a-e) from gradient flow and
    optimizer state."""
    freeze = set(freeze_set)
    unknown = freeze - set(COMPONENT_ATTRS)
    if unknown:
        raise ValueError(f"unknown freeze letters {sorted(unknown)}; valid: a-e")
    for name, p in model.named_parameters():
        if name.split(".", 1)[0] in freeze:
            p.requires_grad = False
            p.grad = None
    return model


# ---- the epoch loop --------------------------------------------------------


def _val_rows(model: SnippetSegmenter, snippets: list[Snippet]) -> list[tuple[float, ...]]:
    """Per snippet: its loss, then the DSC of each output channel."""
    rows = []
    with T.no_grad():
        for s, out in zip(snippets, model.segment_snippets(snippets)):
            pred = out.probs.data >= 0.5
            rows.append((float(combined_loss(out.probs, s.label).data),
                         *(dsc(pred[c], s.label[c] >= 0.5) for c in range(2))))
    return rows


def _val_metrics(model: SnippetSegmenter, snippets: list[Snippet],
                 worker: HalfBatchWorker | None = None) -> tuple[float, float]:
    """Mean loss and mean DSC over ``snippets``; with ``worker``, whose
    ``validate`` covers the same snippets, it computes the first half."""
    rows = _val_rows(model, snippets) if worker is None else worker.validate(len(snippets))
    return (float(np.mean([r[0] for r in rows])),
            float(np.mean([d for r in rows for d in r[1:]])))


def _scaled_sum(losses: list[Tensor], n: int) -> Tensor:
    """``((l1 + l2) + ...) * (1/n)``, added left to right."""
    total = losses[0]
    for loss in losses[1:]:
        total = total + loss
    return total * (1.0 / n)


def fit(model: SnippetSegmenter, train_snippets: list[Snippet],
        val_snippets: list[Snippet], cfg: TrainConfig,
        log_path=None, worker_peaks: list[int] | None = None
        ) -> tuple[list[dict], Checkpoint]:
    """Run the epoch loop; returns (log rows, best-validation checkpoint).

    Trains ``model`` as given: warm starts and frozen components are the
    caller's (``load_checkpoint(...).apply``, ``apply_freeze``), and a
    model with every parameter frozen is a ValueError.  Deterministic given
    (cfg.seed, data): shuffling, augmentation and initialization all derive
    from the one seed.

    The run holds every loaded OpenBLAS at one thread.  A forked worker
    (:mod:`vswu.parallel`) then takes half of every step: the first
    ``n // 2`` snippets of each ``n``-snippet batch, the fold and the Adam
    step of its half of the trainable parameters, and the first half of
    the validation snippets; this process does the rest.  The results are
    bit-identical to doing it all here.  Without an OpenBLAS thread
    setter, with single-snippet batches or with a single training snippet,
    no worker runs.  A worker's own peak resident set (``ru_maxrss``, kB
    on Linux) is appended to ``worker_peaks`` when it is given.  A
    non-finite loss or gradient stops training with a RuntimeError before
    either process's optimizer step.
    """
    cfg.validate()
    if not train_snippets or not val_snippets:
        raise ValueError("training and validation streams must be non-empty")

    params = dict(model.named_parameters())
    trainable = {name: p for name, p in params.items() if p.requires_grad}
    if not trainable:
        raise ValueError("the model has no trainable parameter: all are frozen")
    scheduler = PlateauScheduler(cfg.lr0, patience=cfg.plateau_epochs,
                                 factor=cfg.lr_decay, threshold=cfg.plateau_threshold)
    log: list[dict] = []
    best_val = float("inf")
    best_state: Checkpoint | None = None
    n = len(train_snippets)

    def half_batch(epoch: int, ids, size: int, fold=None) -> list[np.ndarray]:
        """Loss values of snippets ``ids`` of a ``size``-snippet batch; the
        gradient of their sum over ``size`` goes to ``fold``
        (:func:`tensor.backward`'s default: onto the parameters)."""
        losses = []
        for idx in ids:
            s = train_snippets[idx]
            if cfg.augment:
                s = augment(s, vrng.generator(cfg.seed, "augment", epoch, int(idx)))
            out = model.forward([Tensor(f) for f in s.frames])
            losses.append(combined_loss(out.probs, s.label))
        T.backward(_scaled_sum(losses, size), fold)
        return [loss.data for loss in losses]

    def val_rows(start: int, stop: int) -> list[tuple[float, ...]]:
        return _val_rows(model, val_snippets[start:stop])

    with one_blas_thread() as pinned, \
            (HalfBatchWorker(trainable, half_batch, val_rows,
                             lambda half: Adam(half, lr=cfg.lr0))
             if pinned and cfg.batch_size > 1 and n > 1 else contextlib.nullcontext()) as worker:
        optimizer = Adam(trainable, lr=cfg.lr0) if worker is None else worker.optimizer
        for epoch in range(1, cfg.max_epochs + 1):
            order = vrng.generator(cfg.seed, "shuffle", epoch).permutation(n)
            epoch_losses = []
            for b0 in range(0, n, cfg.batch_size):
                batch_ids = order[b0 : b0 + cfg.batch_size]
                size = len(batch_ids)
                if worker is None:
                    optimizer.zero_grad()
                    values = half_batch(epoch, batch_ids, size)
                    bad = non_finite_components(optimizer.params)
                else:
                    values, bad = worker.batch(epoch, batch_ids, size)
                loss_val = float(_scaled_sum([Tensor(v) for v in values], size).data)
                batch = b0 // cfg.batch_size
                if not np.isfinite(loss_val):
                    raise RuntimeError(f"non-finite loss at epoch {epoch}, batch {batch}")
                if bad:
                    raise RuntimeError(f"non-finite gradient at epoch {epoch}, batch {batch}, "
                                       f"in component(s) {', '.join(bad)}")
                (optimizer if worker is None else worker).step()
                epoch_losses.append(loss_val)

            val_loss, val_dsc = _val_metrics(model, val_snippets, worker)
            lr_used = optimizer.lr
            optimizer.lr = scheduler.step(val_loss)
            row = {"epoch": epoch, "train_loss": float(np.mean(epoch_losses)),
                   "val_loss": val_loss, "lr": lr_used, "val_dsc": val_dsc}
            log.append(row)
            if val_loss < best_val:
                best_val = val_loss
                best_state = Checkpoint({name: p.data.copy() for name, p in params.items()},
                                        epoch, float(np.float32(best_val)), cfg.seed)
            if cfg.stop_at_val_dsc is not None and val_dsc >= cfg.stop_at_val_dsc:
                break
    if worker is not None and worker_peaks is not None:
        worker_peaks.append(worker.peak_kb)

    if log_path is not None:
        write_log_csv(log_path, log)
    assert best_state is not None
    return log, best_state


def write_log_csv(path, log: list[dict]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["epoch", "train_loss", "val_loss",
                                                "lr", "val_dsc"])
        writer.writeheader()
        for row in log:
            writer.writerow({k: (f"{v:.8f}" if isinstance(v, float) else v)
                             for k, v in row.items()})
