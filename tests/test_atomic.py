"""``replacing``, and the rule that every artifact write goes through it."""

import ast
from pathlib import Path

import pytest

from sopipeline.atomic import replacing

SRC = Path(__file__).resolve().parent.parent / "src" / "sopipeline"


def test_clean_exit_renames_onto_the_path(tmp_path):
    path = tmp_path / "a.bin"
    path.write_bytes(b"old")
    with replacing(path) as fh:
        fh.write(b"new")
        assert path.read_bytes() == b"old"
    assert path.read_bytes() == b"new"
    assert [p.name for p in tmp_path.iterdir()] == ["a.bin"]


def test_raise_removes_the_temporary_and_keeps_the_path(tmp_path):
    path = tmp_path / "a.bin"
    path.write_bytes(b"old")
    with pytest.raises(RuntimeError), replacing(path) as fh:
        fh.write(b"half")
        raise RuntimeError
    assert [p.name for p in tmp_path.iterdir()] == ["a.bin"]
    assert path.read_bytes() == b"old"


def test_stale_temporary_is_truncated(tmp_path):
    path = tmp_path / "a.txt"
    Path(f"{path}.tmp").write_bytes(b"left by a killed run")
    with replacing(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("é\n")
    assert path.read_bytes() == "é\n".encode()
    assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]


def test_symlinked_path_is_replaced_not_written_through(tmp_path):
    target, link = tmp_path / "target", tmp_path / "link"
    target.write_bytes(b"kept")
    link.symlink_to(target)
    with replacing(link) as fh:
        fh.write(b"new")
    assert not link.is_symlink() and link.read_bytes() == b"new"
    assert target.read_bytes() == b"kept"


def file_writes(source: str) -> list[str]:
    """``line: call`` for each ``open`` in a write, append or update mode
    (or a mode that is not a literal) and each ``write_text``/``write_bytes``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes"):
            found.append(f"{node.lineno}: {func.attr}")
        elif isinstance(func, ast.Name) and func.id == "open":
            modes = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "mode"]
            literal = all(isinstance(m, ast.Constant) and isinstance(m.value, str) for m in modes)
            if not literal or any(set(m.value) & set("wax+") for m in modes):
                found.append(f"{node.lineno}: open")
    return found


def test_file_writes_finds_each_kind_of_write():
    source = 'open(p, "w")\nopen(p, mode="ab")\nopen(p, "r+b")\nopen(p, m)\np.write_text(s)\nq.write_bytes(b)\n'
    assert file_writes(source) == ["1: open", "2: open", "3: open", "4: open", "5: write_text", "6: write_bytes"]
    assert file_writes('open(p)\nopen(p, "rb")\nopen(p, mode="r", encoding="utf-8")\n') == []


def test_only_atomic_opens_files_for_writing():
    writes = {
        str(path.relative_to(SRC)): found
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "atomic.py" and (found := file_writes(path.read_text()))
    }
    assert not writes, f"write through sopipeline.atomic.replacing instead: {writes}"
    assert file_writes((SRC / "atomic.py").read_text())
