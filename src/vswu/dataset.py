"""Synthetic swallow-like video sequences plus snippet windowing and
paired augmentation.

The generator writes sequences in which a bright ellipse (the "bolus")
travels along a randomized smooth path down a static bright corridor (the
"pharynx"), with per-frame ground-truth masks for both structures.  The
ellipse is absent from a configurable leading fraction of each sequence,
and additive Gaussian noise simulates acquisition noise.  Everything is
deterministic given the seed.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import rng as vrng
from .pgm import read_pgm, write_pgm

SNIPPET_LENGTH_GRID = (3, 5, 7, 9, 11, 13)

FRAME_PATTERN = "frame_%05d.pgm"
BOLUS_PATTERN = "bolus_%05d.pgm"
PHARYNX_PATTERN = "pharynx_%05d.pgm"


@dataclass
class SynthConfig:
    num_sequences: int = 14
    frames_per_sequence: int = 20
    h: int = 64
    w: int = 64
    seed: int = 42
    noise_sigma: float = 0.05
    absent_fraction: float = 0.15
    speed: float = 1.0
    background: float = 0.12
    corridor_intensity: float = 0.5
    bolus_intensity: float = 0.92

    def validate(self):
        """A bad setting is a ValueError whose message starts with the
        field's name."""
        for name, size in (("h", self.h), ("w", self.w)):
            if size < 16 or size % 16:
                raise ValueError(f"{name} must be at least 16 and divisible by 16, got {size}")
        if self.frames_per_sequence < 13:
            raise ValueError(f"frames_per_sequence must be at least 13, "
                             f"got {self.frames_per_sequence}")
        if self.num_sequences < 1:
            raise ValueError(f"num_sequences must be at least 1, got {self.num_sequences}")
        if not (0 <= self.absent_fraction < 1):
            raise ValueError(f"absent_fraction must lie in [0, 1), got {self.absent_fraction}")
        if not (math.isfinite(self.speed) and self.speed > 0):
            raise ValueError(f"speed must be finite and positive, got {self.speed}")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError(f"noise_sigma must be finite and at least 0, "
                             f"got {self.noise_sigma}")


@dataclass
class Snippet:
    frames: list[np.ndarray]  # each [1, H, W] float32 in [0, 1]
    label: np.ndarray  # [2, H, W] float32 in {0, 1}: (bolus, pharynx)
    sequence: str = ""
    center_index: int = 0


@dataclass
class SequenceEntry:
    name: str
    frames: int
    split: str
    geometry: dict = field(default_factory=dict)


@dataclass
class DatasetManifest:
    root: Path
    h: int
    w: int
    seed: int
    noise_sigma: float
    sequences: list[SequenceEntry]

    def split(self, tag: str) -> list[SequenceEntry]:
        return [s for s in self.sequences if s.split == tag]


def _corridor_geometry(gen: np.random.Generator, h: int, w: int) -> dict:
    return {
        "center": float(0.5 * w + gen.uniform(-0.08, 0.08) * w),
        "amplitude": float(gen.uniform(0.04, 0.10) * w),
        "phase": float(gen.uniform(0.0, 2.0 * math.pi)),
        "half_width": float(gen.uniform(0.10, 0.14) * w),
    }


def _corridor_mask(geo: dict, h: int, w: int) -> np.ndarray:
    ys = np.arange(h)[:, None]
    xs = np.arange(w)[None, :]
    cx = geo["center"] + geo["amplitude"] * np.sin(2.0 * math.pi * ys / h + geo["phase"])
    return (np.abs(xs - cx) <= geo["half_width"])


def _bolus_geometry(gen: np.random.Generator, cfg: SynthConfig, corridor: dict) -> dict:
    return {
        "ra": float(gen.uniform(0.05, 0.09) * cfg.w),   # semi-axis along x
        "rb": float(gen.uniform(0.06, 0.11) * cfg.h),   # semi-axis along y
        "y0": 0.12 * cfg.h,
        "y1": 0.88 * cfg.h,
        "wobble": float(gen.uniform(0.0, 0.03) * cfg.w),
        "wobble_freq": float(gen.uniform(1.0, 2.5)),
        "wobble_phase": float(gen.uniform(0.0, 2.0 * math.pi)),
    }


def bolus_center(geo: dict, corridor: dict, cfg: SynthConfig, u: float) -> tuple[float, float]:
    """Ellipse center at path progress u in [0, 1] (clamped)."""
    u = min(max(u, 0.0), 1.0)
    cy = geo["y0"] + u * (geo["y1"] - geo["y0"])
    cx = (corridor["center"]
          + corridor["amplitude"] * math.sin(2.0 * math.pi * cy / cfg.h + corridor["phase"])
          + geo["wobble"] * math.sin(2.0 * math.pi * geo["wobble_freq"] * u
                                     + geo["wobble_phase"]))
    return cy, cx


def ellipse_mask(cy: float, cx: float, ra: float, rb: float, h: int, w: int) -> np.ndarray:
    ys = np.arange(h)[:, None]
    xs = np.arange(w)[None, :]
    return ((xs - cx) / ra) ** 2 + ((ys - cy) / rb) ** 2 <= 1.0


def frame_progress(frame: int, n_frames: int, absent: int, speed: float) -> float:
    """Path progress of the bolus at a frame index (negative while absent)."""
    if frame < absent:
        return -1.0
    visible = max(n_frames - absent - 1, 1)
    return min(speed * (frame - absent) / visible, 1.0)


def synth_generate(cfg: SynthConfig, root) -> DatasetManifest:
    """Write a synthetic dataset under ``root`` and return its manifest."""
    cfg.validate()
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)

    n = cfg.num_sequences
    n_train = max(1, min(int(round(0.7 * n)), n - 2)) if n >= 3 else max(1, n - 1)
    n_val = min(max(1, int(round(0.15 * n))), n - n_train) if n > n_train else 0
    splits = ["train"] * n_train + ["val"] * n_val + ["test"] * (n - n_train - n_val)

    sequences = []
    for s in range(n):
        name = f"seq_{s:03d}"
        seq_dir = root / name
        seq_dir.mkdir(exist_ok=True)
        gen = vrng.generator(cfg.seed, "synth", s)
        corridor = _corridor_geometry(gen, cfg.h, cfg.w)
        bolus = _bolus_geometry(gen, cfg, corridor)
        absent = int(cfg.absent_fraction * cfg.frames_per_sequence)
        corridor_m = _corridor_mask(corridor, cfg.h, cfg.w)

        for f in range(cfg.frames_per_sequence):
            img = np.full((cfg.h, cfg.w), cfg.background, dtype=np.float64)
            img[corridor_m] = cfg.corridor_intensity
            u = frame_progress(f, cfg.frames_per_sequence, absent, cfg.speed)
            if u >= 0.0:
                cy, cx = bolus_center(bolus, corridor, cfg, u)
                bolus_m = ellipse_mask(cy, cx, bolus["ra"], bolus["rb"], cfg.h, cfg.w)
            else:
                bolus_m = np.zeros((cfg.h, cfg.w), dtype=bool)
            img[bolus_m] = cfg.bolus_intensity
            if cfg.noise_sigma > 0:
                img = img + gen.normal(0.0, cfg.noise_sigma, size=img.shape)
            img = np.clip(img, 0.0, 1.0)
            write_pgm(seq_dir / (FRAME_PATTERN % f), np.rint(img * 255).astype(np.uint8))
            write_pgm(seq_dir / (BOLUS_PATTERN % f), bolus_m.astype(np.uint8) * 255)
            write_pgm(seq_dir / (PHARYNX_PATTERN % f), corridor_m.astype(np.uint8) * 255)

        sequences.append(SequenceEntry(
            name=name, frames=cfg.frames_per_sequence, split=splits[s],
            geometry={"corridor": corridor, "bolus": bolus, "absent_frames": absent,
                      "speed": cfg.speed}))

    manifest = DatasetManifest(root=root, h=cfg.h, w=cfg.w, seed=cfg.seed,
                               noise_sigma=cfg.noise_sigma, sequences=sequences)
    save_manifest(manifest)
    return manifest


def save_manifest(manifest: DatasetManifest) -> None:
    doc = {
        "h": manifest.h,
        "w": manifest.w,
        "seed": manifest.seed,
        "noise_sigma": manifest.noise_sigma,
        "frame_pattern": FRAME_PATTERN,
        "bolus_pattern": BOLUS_PATTERN,
        "pharynx_pattern": PHARYNX_PATTERN,
        "sequences": [
            {"name": s.name, "frames": s.frames, "split": s.split,
             "geometry": s.geometry}
            for s in manifest.sequences
        ],
    }
    with open(manifest.root / "manifest.json", "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)


def _field(path: Path, node: dict, key: str, kind, where: str = "", default=None):
    """``node[key]`` checked against ``kind``; a missing field without a
    default, or a mistyped one, is a ValueError naming ``path`` and the field."""
    if key not in node:
        if default is None:
            raise ValueError(f"{path}: missing field '{where}{key}'")
        return default
    value = node[key]
    if not isinstance(value, kind) or (isinstance(value, bool) and bool not in kind):
        names = " or ".join(k.__name__ for k in kind)
        raise ValueError(f"{path}: field '{where}{key}' must be {names}, got {value!r}")
    return value


def load_manifest(root) -> DatasetManifest:
    """Load and validate manifest.json: every field present and typed,
    every referenced file present.  A bad manifest raises a ValueError
    naming its path."""
    root = Path(root)
    path = root / "manifest.json"
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    sequences = []
    for i, s in enumerate(_field(path, doc, "sequences", (list,))):
        where = f"sequences[{i}]."
        if not isinstance(s, dict):
            raise ValueError(f"{path}: field 'sequences[{i}]' must be an object, "
                             f"got {s!r}")
        name = _field(path, s, "name", (str,), where)
        if Path(name).is_absolute() or ".." in Path(name).parts:
            raise ValueError(f"{path}: field '{where}name' must be a path inside the "
                             f"dataset root, without '..', got {name!r}")
        frames = _field(path, s, "frames", (int,), where)
        if frames < 1:
            raise ValueError(f"{path}: field '{where}frames' must be at least 1, got {frames}")
        seq_dir = root / name
        for f in range(frames):
            for pattern in (FRAME_PATTERN, BOLUS_PATTERN, PHARYNX_PATTERN):
                p = seq_dir / (pattern % f)
                if not p.exists():
                    raise FileNotFoundError(f"manifest references missing file {p}")
        sequences.append(SequenceEntry(name=name, frames=frames,
                                       split=_field(path, s, "split", (str,), where),
                                       geometry=_field(path, s, "geometry", (dict,),
                                                       where, {})))
    return DatasetManifest(root=root, h=_field(path, doc, "h", (int,)),
                           w=_field(path, doc, "w", (int,)),
                           seed=_field(path, doc, "seed", (int,)),
                           noise_sigma=_field(path, doc, "noise_sigma", (int, float),
                                              default=0.0),
                           sequences=sequences)


def _read_sized(path: Path, manifest: DatasetManifest) -> np.ndarray:
    """A PGM of the manifest's size; another size is a ValueError naming
    the file and both sizes."""
    img = read_pgm(path)
    if img.shape != (manifest.h, manifest.w):
        raise ValueError(f"{path}: image is {img.shape[0]}x{img.shape[1]}, but the "
                         f"manifest gives {manifest.h}x{manifest.w}")
    return img


def _load_sequence(manifest: DatasetManifest, entry: SequenceEntry):
    seq_dir = manifest.root / entry.name
    frames, labels = [], []
    for f in range(entry.frames):
        img = _read_sized(seq_dir / (FRAME_PATTERN % f), manifest).astype(np.float32) / 255.0
        bol = (_read_sized(seq_dir / (BOLUS_PATTERN % f), manifest) > 127).astype(np.float32)
        pha = (_read_sized(seq_dir / (PHARYNX_PATTERN % f), manifest) > 127).astype(np.float32)
        frames.append(img[None])
        labels.append(np.stack([bol, pha]))
    return frames, labels


def window_snippets(manifest: DatasetManifest, t: int,
                    splits: tuple[str, ...] | None = None) -> list[Snippet]:
    """One center-aligned snippet per frame position, edges replicated,
    in (sequence, frame) order.

    The label is the center frame's two-channel ground truth; frames with
    no visible bolus keep an all-zero channel 0.
    """
    if t % 2 == 0:
        raise ValueError(f"snippet length must be odd, got {t}")
    if t not in SNIPPET_LENGTH_GRID:
        warnings.warn(f"snippet length {t} outside the supported grid "
                      f"{SNIPPET_LENGTH_GRID}", stacklevel=2)
    k = (t - 1) // 2
    entries = [e for e in manifest.sequences
               if splits is None or e.split in splits]
    out: list[Snippet] = []
    for entry in entries:
        frames, labels = _load_sequence(manifest, entry)
        n = len(frames)
        for c in range(n):
            window = [frames[min(max(c + d, 0), n - 1)] for d in range(-k, k + 1)]
            out.append(Snippet(frames=window, label=labels[c],
                               sequence=entry.name, center_index=c))
    return out


# ---- paired augmentation ---------------------------------------------------


def _rotate(img: np.ndarray, angle_deg: float, nearest: bool) -> np.ndarray:
    """Rotate about the image center; bilinear or nearest, zero fill."""
    h, w = img.shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    th = math.radians(angle_deg)
    cos, sin = math.cos(th), math.sin(th)
    ys, xs = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    dy, dx = ys - cy, xs - cx
    # inverse map: output pixel pulls from the source rotated by -angle
    sy = cos * dy + sin * dx + cy
    sx = -sin * dy + cos * dx + cx
    if nearest:
        iy = np.rint(sy).astype(int)
        ix = np.rint(sx).astype(int)
        valid = (iy >= 0) & (iy < h) & (ix >= 0) & (ix < w)
        out = np.zeros_like(img)
        out[valid] = img[iy[valid], ix[valid]]
        return out
    y0 = np.floor(sy).astype(int)
    x0 = np.floor(sx).astype(int)
    fy = (sy - y0).astype(img.dtype)
    fx = (sx - x0).astype(img.dtype)
    out = np.zeros_like(img)
    for oy, ox, wgt in ((0, 0, (1 - fy) * (1 - fx)), (0, 1, (1 - fy) * fx),
                        (1, 0, fy * (1 - fx)), (1, 1, fy * fx)):
        yy, xx = y0 + oy, x0 + ox
        valid = (yy >= 0) & (yy < h) & (xx >= 0) & (xx < w)
        out[valid] += wgt[valid] * img[yy[valid], xx[valid]]
    return out


def augment(snippet: Snippet, gen: np.random.Generator,
            max_angle: float = 15.0) -> Snippet:
    """Random horizontal flip plus limited rotation, identical across the
    whole snippet and both label channels; masks stay binary."""
    flip = gen.random() < 0.5
    angle = float(gen.uniform(-max_angle, max_angle))

    def tf(img2d, nearest):
        if flip:
            img2d = img2d[:, ::-1]
        if angle != 0.0:
            img2d = _rotate(np.ascontiguousarray(img2d), angle, nearest=nearest)
        return np.ascontiguousarray(img2d)

    frames = [tf(f[0], nearest=False)[None] for f in snippet.frames]
    label = np.stack([tf(ch, nearest=True) for ch in snippet.label])
    return Snippet(frames=frames, label=label, sequence=snippet.sequence,
                   center_index=snippet.center_index)


def with_center_noise(snippets: list[Snippet], sigma: float, seed: int) -> list[Snippet]:
    """Degrade only the center frame of each snippet with Gaussian noise.

    Deterministic per (sequence, center index), so the same snippet is
    degraded identically across epochs and runs.
    """
    if sigma <= 0:
        return snippets
    out = []
    for s in snippets:
        gen = vrng.generator(seed, "center-noise", s.sequence, s.center_index)
        k = (len(s.frames) - 1) // 2
        frames = list(s.frames)
        img = frames[k][0]
        noisy = np.clip(img + gen.normal(0.0, sigma, size=img.shape), 0.0, 1.0)
        frames[k] = noisy.astype(np.float32)[None]
        out.append(Snippet(frames=frames, label=s.label, sequence=s.sequence,
                           center_index=s.center_index))
    return out
