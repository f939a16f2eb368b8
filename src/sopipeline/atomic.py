"""Every artifact is written beside its path and renamed into place, so a
reader sees the previous file or the whole new one, never part of one."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator


@contextmanager
def replacing(path: str | Path, mode: str = "wb", **open_kwargs) -> Iterator[IO]:
    """Open ``<path>.tmp``; a block that exits cleanly renames it onto
    ``path``, and one that raises removes it. A killed process leaves the
    ``.tmp``, which no reader opens and the next write truncates."""
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
