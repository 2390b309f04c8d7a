"""The one reader, the one writer and the one CSV layout of every file
doasim reads or writes. A failed read or write of a path raises OSError
naming the read or the write, what the file holds, and the path."""
from __future__ import annotations

from pathlib import Path


def read_text(source, what: str) -> str:
    if hasattr(source, "read"):
        return source.read()
    try:
        return Path(source).read_text()
    except OSError as exc:
        raise OSError(f"cannot read {what} from {Path(source)}: {exc}") from None


def write_text(destination, text: str, what: str) -> None:
    if hasattr(destination, "write"):
        destination.write(text)
        return
    try:
        Path(destination).write_text(text)
    except OSError as exc:
        raise OSError(f"cannot write {what} to {Path(destination)}: {exc}") from None


def csv_text(header: str, comment: str | None, rows) -> str:
    """CSV text: the header, `# comment` unless comment is None, then one
    line of repr'd values per row, and a trailing newline. Rows must hold
    Python numbers: numpy 2 reprs a np.float64 as `np.float64(...)`."""
    lines = [header] if comment is None else [header, f"# {comment}"]
    lines.extend(",".join(map(repr, row)) for row in rows)
    return "\n".join(lines) + "\n"
