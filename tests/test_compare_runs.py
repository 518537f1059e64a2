"""The output comparator's directory comparison and typed differences, on
small synthetic files (the git and CLI parts are not run here)."""

import importlib.util
import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from vswu.pgm import write_pgm
from vswu.training import save_checkpoint, write_log_csv

_PATH = Path(__file__).resolve().parent.parent / "tools" / "compare_runs.py"
_spec = importlib.util.spec_from_file_location("compare_runs", _PATH)
compare_runs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_runs)


def write(root: Path, files: dict[str, bytes]) -> Path:
    for rel, data in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return root


def test_sorts_identical_different_and_one_sided(tmp_path):
    a = write(tmp_path / "a", {"out/log.csv": b"1,2\n", "out/m.ckpt": b"\x00\x01",
                               "out/maps/p.pgm": b"P5", "only_a.json": b"{}"})
    b = write(tmp_path / "b", {"out/log.csv": b"1,2\n", "out/m.ckpt": b"\x00\x02",
                               "out/maps/p.pgm": b"P5", "x/only_b.txt": b""})
    assert compare_runs.compare_trees(a, b) == {
        "identical": ["out/log.csv", "out/maps/p.pgm"],
        "different": ["out/m.ckpt"],
        "only_a": ["only_a.json"],
        "only_b": ["x/only_b.txt"]}


def test_same_size_files_compared_by_content(tmp_path):
    a = write(tmp_path / "a", {"f": b"abcd"})
    b = write(tmp_path / "b", {"f": b"abce"})
    assert compare_runs.compare_trees(a, b)["different"] == ["f"]


@pytest.mark.parametrize("b_files,status", [
    ({"f": b"x", "g/h": b"y"}, 0),
    ({"f": b"x", "g/h": b"z"}, 1),
    ({"f": b"x"}, 1),
    ({"f": b"w", "g/h": b"y", "extra": b""}, 1),
])
def test_exit_status(tmp_path, capsys, b_files, status):
    a = write(tmp_path / "a", {"f": b"x", "g/h": b"y"})
    b = write(tmp_path / "b", b_files)
    assert compare_runs.report(compare_runs.compare_trees(a, b), ("base", "head")) == status
    summary = capsys.readouterr().out.strip().splitlines()[-1]
    assert summary.startswith(f"{2 - status} identical")


def test_matrix_writes_each_command_to_its_own_directory():
    names = [name for name, _ in compare_runs.MATRIX]
    assert len(names) == len(set(names))
    assert all("--out" not in args for _, args in compare_runs.MATRIX)


def checkpoint(path: Path, best_val: float, **arrays) -> Path:
    """A checkpoint of ``arrays`` written by the library's own writer."""
    model = SimpleNamespace(named_parameters=lambda: [
        (name, SimpleNamespace(data=np.asarray(a, np.float32))) for name, a in arrays.items()])
    save_checkpoint(path, model, epoch=3, best_val=best_val, seed=7)
    return path


def test_checkpoint_deltas_per_blob_and_metadata_field(tmp_path):
    a = checkpoint(tmp_path / "a.ckpt", 0.25, w=[[1, 2], [3, 4]], b=[0.5])
    b = checkpoint(tmp_path / "b.ckpt", 0.5, w=[[1, 2], [3, 4.5]], b=[0.5])
    assert compare_runs.field_deltas(a, b) == [("w", 0.5, 1, 4), ("opt.best_val", 0.25, 1, 1)]
    c = checkpoint(tmp_path / "c.ckpt", 0.25, w=[[1, 2, 3, 4]], b=[0.5])
    assert compare_runs.field_deltas(a, c) == [("w", math.inf, 1, 1)]


def log(path: Path, val_losses, lrs=(1e-3, 1e-3)) -> Path:
    write_log_csv(path, [{"epoch": i + 1, "train_loss": 0.5, "val_loss": v, "lr": lr,
                          "val_dsc": 0.25} for i, (v, lr) in enumerate(zip(val_losses, lrs))])
    return path


def test_csv_deltas_per_column(tmp_path):
    a = log(tmp_path / "a.csv", [0.73649081, 0.7])
    (name, delta, moved, count), = compare_runs.field_deltas(
        a, log(tmp_path / "b.csv", [0.73649082, 0.7]))
    assert (name, moved, count) == ("val_loss", 1, 2) and delta == pytest.approx(1e-8)
    rows = compare_runs.field_deltas(a, log(tmp_path / "c.csv", [0.5, 0.9], [1e-3, 5e-4]))
    assert [r[0] for r in rows] == ["val_loss", "lr"]
    assert rows[0][1:] == (pytest.approx(0.23649081), 2, 2)
    assert rows[1][1:] == (pytest.approx(5e-4), 1, 2)
    assert compare_runs.field_deltas(a, log(tmp_path / "d.csv", [0.73649081])) == [
        (name, math.inf, 1, 1) for name in ("epoch", "train_loss", "val_loss", "lr", "val_dsc")]
    e = write(tmp_path, {"e.csv": b"variant,dsc\nx,0.5\n", "f.csv": b"variant,dsc\ny,0.5\n"})
    assert compare_runs.field_deltas(e / "e.csv", e / "f.csv") == [("variant", math.inf, 1, 1)]


def test_json_deltas_per_numeric_field(tmp_path):
    doc = {"a": {"b": 1.5, "c": [1, 2]}, "name": "x", "ok": True}
    other = {"a": {"b": 1.25, "c": [1, 3]}, "name": "x", "ok": True, "new": 0}
    d = write(tmp_path, {"a.json": json.dumps(doc).encode(),
                         "b.json": json.dumps(other).encode(),
                         "c.json": json.dumps(dict(doc, name="y", ok=False)).encode()})
    assert compare_runs.field_deltas(d / "a.json", d / "b.json") == [
        ("a.b", 0.25, 1, 1), ("a.c[1]", 1.0, 1, 1), ("new", math.inf, 1, 1)]
    assert compare_runs.field_deltas(d / "a.json", d / "c.json") == [
        ("name", math.inf, 1, 1), ("ok", math.inf, 1, 1)]


def test_pgm_counts_differing_pixels_and_largest_step(tmp_path):
    img = np.arange(12, dtype=np.uint8).reshape(3, 4) * 20
    moved = img.copy()
    moved[0, 0] += 1
    moved[1, 2] -= 5
    moved[2, 3] += 2
    write_pgm(tmp_path / "a.pgm", img)
    write_pgm(tmp_path / "b.pgm", moved)
    write_pgm(tmp_path / "c.pgm", img.T)
    assert compare_runs.field_deltas(tmp_path / "a.pgm", tmp_path / "b.pgm") == [
        ("pixels", 5.0, 3, 12)]
    assert compare_runs.field_deltas(tmp_path / "a.pgm", tmp_path / "c.pgm") == [
        ("pixels", math.inf, 1, 1)]


def test_untyped_unreadable_and_same_valued_files_read_inf(tmp_path):
    d = write(tmp_path, {"a.txt": b"1", "b.txt": b"2", "a.ckpt": b"VSWU\x01",
                         "b.ckpt": b"VSWU\x02", "a.json": b"[1.0]", "b.json": b"[1.00]"})
    for name in ("txt", "ckpt", "json"):
        assert compare_runs.field_deltas(d / f"a.{name}", d / f"b.{name}") == [
            ("bytes", math.inf, 1, 1)]


def test_report_prints_each_differing_field(tmp_path, capsys):
    a = write(tmp_path / "a", {"same": b"x", "other": b"1"})
    b = write(tmp_path / "b", {"same": b"x", "other": b"2"})
    log(a / "log.csv", [0.73649081, 0.7])
    log(b / "log.csv", [0.73649082, 0.7])
    result = compare_runs.compare_trees(a, b)
    deltas = {f: compare_runs.field_deltas(a / f, b / f) for f in result["different"]}
    assert compare_runs.report(result, ("base", "head"), deltas) == 1
    out = capsys.readouterr().out
    assert "DIFFERENT  log.csv  (1 field(s), max |d| 1e-08)" in out
    assert "    val_loss  max |d| 1e-08  (1 of 2 values)" in out
    assert "DIFFERENT  other  (1 field(s), max |d| inf)" in out
    assert "    bytes  max |d| inf  (1 of 1 values)" in out
    assert "1 identical, 2 different, 0 only in base, 0 only in head" in out
