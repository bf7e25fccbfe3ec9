"""How tapgen reads and writes its JSON files.  Each file it writes is one
JSON object whose first key, ``"kind"``, names what the file holds."""
from __future__ import annotations

import json
from pathlib import Path


def write_document(path, kind: str, body: dict) -> None:
    """Write ``{"kind": kind, **body}`` to path."""
    Path(path).write_text(json.dumps({"kind": kind, **body}, indent=1) + "\n")


def existing_file(path, what: str) -> Path:
    """path, which must exist; FileNotFoundError names it as a what file."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"{what} file not found: {path}")
    return path


def read_document(path, what: str, kind: str | None = None):
    """The JSON of the what file at path: an object of kind, if given."""
    path = existing_file(path, what)
    try:
        doc = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{what} file {path} is not valid JSON: {exc}") from None
    if kind is not None and (not isinstance(doc, dict)
                             or doc.get("kind") != kind):
        raise ValueError(f"{what} file {path} has unknown kind")
    return doc


def _numbers_only(value) -> bool:
    """True when every leaf of nested lists and dicts is an int or a float;
    JSON booleans and strings are not numbers."""
    if isinstance(value, (list, dict)):
        values = value.values() if isinstance(value, dict) else value
        return all(_numbers_only(v) for v in values)
    return isinstance(value, (int, float)) and not isinstance(value, bool)
