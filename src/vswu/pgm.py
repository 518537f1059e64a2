"""Binary PGM (P5, maxval 255) read/write for frames, masks and heatmaps."""

from __future__ import annotations

import numpy as np


def write_pgm(path, img: np.ndarray) -> None:
    """Write a 2-d uint8 array as binary PGM."""
    img = np.asarray(img)
    if img.ndim != 2:
        raise ValueError(f"PGM needs a 2-d array, got shape {img.shape}")
    if img.dtype != np.uint8:
        img = np.clip(np.rint(img), 0, 255).astype(np.uint8)
    h, w = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(img.tobytes())


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM into a uint8 array of shape [H, W]."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw.startswith(b"P5"):
        raise ValueError(f"{path}: not a binary PGM (P5) file")
    # header: magic, width, height, maxval; '#' comments allowed
    fields: list[bytes] = []
    pos = 2
    while len(fields) < 3:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if raw[pos : pos + 1] == b"#":
            while pos < len(raw) and raw[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        fields.append(raw[start:pos])
    pos += 1  # single whitespace after maxval
    if not all(f.isdigit() for f in fields):
        raise ValueError(f"{path}: truncated or malformed PGM header {b' '.join(fields)!r}")
    w, h, maxval = int(fields[0]), int(fields[1]), int(fields[2])
    if maxval != 255:
        raise ValueError(f"{path}: unsupported maxval {maxval}")
    if len(raw) - pos < h * w:
        raise ValueError(f"{path}: truncated PGM: {w}x{h} needs {h * w} pixel bytes, "
                         f"the file has {max(len(raw) - pos, 0)}")
    data = np.frombuffer(raw, dtype=np.uint8, count=h * w, offset=pos)
    return data.reshape(h, w).copy()
