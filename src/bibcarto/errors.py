"""The type of every error caused by bad input, the reader of input files
and the rule for an integer argument.

Each exception class bibcarto defines subclasses :class:`DataError`, so
a caller can tell input it should report (exit 1 on the command line)
from a fault of the program, which it should let propagate. Errors about
a file read through :func:`read_file` keep their class and get its
``path``, named as ``path:line`` where the line is known; every input
numbers lines by :func:`position`. Only the standard library is imported.
"""
from __future__ import annotations

import codecs
import copyreg
import numbers
from pathlib import Path


class DataError(ValueError):
    """Input bibcarto cannot use: unreadable or malformed text, a bad
    setting, or data too degenerate to analyse. ``path``, once set, names
    the file and opens the message."""

    path: str | None = None

    def __str__(self) -> str:
        reason = super().__str__()
        return f"{self.path}: {reason}" if self.path else reason

    def __reduce__(self):
        # Pickled, as a worker process sends it, without a call to __init__:
        # a subclass's __init__ takes more than the message ``args`` keeps,
        # and its attributes (``line_no``, ``index``, ``path``) come back as state.
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class InputFormatError(DataError):
    """Malformed input text; ``line_no`` is 1-based. The message reads
    ``path:line: reason``, or ``line N: reason`` while no path is known."""

    def __init__(self, line_no: int, reason: str, path: str | None = None):
        super().__init__(reason)
        self.line_no = line_no
        self.reason = reason
        self.path = path

    def __str__(self) -> str:
        where = f"{self.path}:{self.line_no}" if self.path else f"line {self.line_no}"
        return f"{where}: {self.reason}"


def is_int(value) -> bool:
    """Whether ``value`` is an integer (a numpy one too) and not a ``bool``,
    as every integer argument of a public entry must be: a cluster count, a
    page, a record id. numpy's ``bool_`` is no :class:`numbers.Integral`."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def read_file(path, parse):
    """``parse`` of the UTF-8 text of the file at ``path``, line ends as
    :meth:`Path.read_text` gives them and one leading byte-order mark
    dropped. A DataError from ``parse``, and the InputFormatError for
    bytes that are not UTF-8, are raised with ``path`` set, each keeping
    its class."""
    # The mark holds no line break, so line numbers still count from the file's start.
    # Line ends become "\n" before decoding (UTF-8 holds byte 0x0d only as "\r"), so a
    # bad byte is counted on the line the text gives it. One scan for "\r" spares
    # the two replaces on the usual file, which holds none.
    data = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        return parse(_decode(data))
    except DataError as exc:
        exc.path = path
        raise


def _decode(data: bytes) -> str:
    """``data`` decoded; bytes that are not UTF-8 raise InputFormatError."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no, _ = position(data[: exc.start].decode("utf-8"))
        raise InputFormatError(line_no, f"not UTF-8: byte 0x{data[exc.start]:02x}") from None


def position(before: str) -> tuple[int, int]:
    """The line and column, both counted from 1, of the character after
    ``before``, lines ending where :meth:`str.splitlines` ends them."""
    lines = (before + "_").splitlines()
    return len(lines), len(lines[-1])
