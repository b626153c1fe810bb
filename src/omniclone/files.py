"""The one reader of input files and stdin. It decodes UTF-8 and parses
JSON, and on failure raises one ClipParseError naming the source; the
OSError of a file that cannot be opened passes through, naming the path."""
from __future__ import annotations

import json
import sys

from .errors import ClipParseError


def _source(path) -> str:
    return "<stdin>" if path is None else str(path)


def read_text(path=None) -> str:
    """The UTF-8 text of the file at `path`, or of stdin when `path` is None."""
    try:
        if path is None:
            # decode the bytes here: in UTF-8 mode stdin's text layer lets bad bytes through
            raw = getattr(sys.stdin, "buffer", None)
            return sys.stdin.read() if raw is None else raw.read().decode("utf-8")
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError:
        raise ClipParseError(f"{_source(path)}: not UTF-8 text") from None


def read_json(path=None):
    """The JSON document in the file at `path`, or on stdin when `path` is None."""
    text = read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ClipParseError(
            f"malformed JSON: {_source(path)}: line {exc.lineno}: {exc.msg}"
        ) from None
