"""The output comparator's directory comparison, on small synthetic trees
(the git and CLI parts are not run here)."""

import importlib.util
from pathlib import Path

import pytest

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
