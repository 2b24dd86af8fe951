"""The input-format exception shared across the package, the text-file
opener that maps undecodable bytes to it, and the line formats' record rule."""

from contextlib import contextmanager
from typing import Iterable, Iterator


class InputFormatError(Exception):
    """A file, byte stream, or corpus line failed to parse.

    The command-line driver maps this to exit code 2.
    """


@contextmanager
def open_text(path):
    """Open ``path`` to read UTF-8 text, as ``open(path, encoding="utf-8")``.

    Bytes that are not UTF-8, met anywhere in the ``with`` block, raise
    :class:`InputFormatError` naming the file instead of
    ``UnicodeDecodeError``.
    """
    try:
        with open(path, encoding="utf-8") as f:
            yield f
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None


def records(lines: Iterable[str], source) -> Iterator[tuple[str, str]]:
    """``(where, line)`` for each stripped line that is neither blank nor a
    ``#`` comment; ``where`` is ``source:lineno``, to prefix its errors."""
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield f"{source}:{lineno}", line
