"""The type of every error caused by bad input, and the reader of input files.

Each exception class bibcarto defines subclasses :class:`DataError`, so
a caller can tell input it should report (exit 1 on the command line)
from a fault of the program, which it should let propagate. Errors about
a file read through :func:`read_file` name it, as ``path:line`` where the
line is known. This module imports nothing outside the standard library.
"""
from __future__ import annotations

import codecs
from pathlib import Path


class DataError(ValueError):
    """Input bibcarto cannot use: unreadable or malformed text, a bad
    setting, or data too degenerate to analyse."""


class InputFormatError(DataError):
    """Malformed input text; ``line_no`` is 1-based and ``path``, when
    known, names the file."""

    def __init__(self, line_no: int, reason: str, path: str | None = None):
        where = f"{path}:{line_no}" if path else f"line {line_no}"
        super().__init__(f"{where}: {reason}")
        self.line_no = line_no
        self.reason = reason
        self.path = path


def read_file(path, parse):
    """``parse`` of the UTF-8 text of the file at ``path``, line ends as
    :meth:`Path.read_text` gives them and one leading byte-order mark
    dropped. Bytes that are not UTF-8, and an InputFormatError from
    ``parse``, raise InputFormatError naming ``path`` and the line; any
    other DataError from ``parse`` is raised again as a DataError whose
    message starts with ``path``."""
    # The mark holds no line break, so line numbers still count from the file's start.
    data = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise InputFormatError(line_no, f"not UTF-8: byte 0x{data[exc.start]:02x}", path) from None
    try:
        return parse(text.replace("\r\n", "\n").replace("\r", "\n"))
    except InputFormatError as exc:
        raise type(exc)(exc.line_no, exc.reason, path) from None
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
