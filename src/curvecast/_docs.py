"""The saved-document format shared by every writer and reader.

JSON documents open with ``schema_version`` and ``kind`` and hold arrays
as nested lists.  Mappings keyed by a number keep the number in the key
text: a float key (a miscoverage level alpha) is written with ``repr``,
an int key (an updating period m) with ``str``, and decoding turns such
texts back into the same number.
CSV cells hold floats as ``repr`` and missing values as empty fields.
"""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager

import numpy as np

from .errors import DataError


def _key_text(key) -> str:
    return repr(float(key)) if isinstance(key, float) else str(key)


def _key_value(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def encode_keys(value):
    """``value`` with every mapping key written by the numeric-key rule, arrays as nested lists."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {_key_text(k): encode_keys(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode_keys(v) for v in value]
    return value


def decode_keys(value):
    """Inverse of :func:`encode_keys`: numeric key texts become numbers again."""
    if isinstance(value, dict):
        return {_key_value(k): decode_keys(v) for k, v in value.items()}
    if isinstance(value, list):
        return [decode_keys(v) for v in value]
    return value


def envelope(kind: str, version: int, body: dict) -> dict:
    """A document: ``schema_version`` and ``kind``, then ``body`` in its order."""
    return {"schema_version": version, "kind": kind, **body}


def dump_doc(doc: dict) -> str:
    return json.dumps(encode_keys(doc), indent=2)


def check_doc(doc, kind: str, version: int, required=()) -> dict:
    """``doc`` if it is a ``kind`` document of ``version`` holding ``required``."""
    if not isinstance(doc, dict):
        raise DataError(f"a {kind} document must be a JSON object, got {type(doc).__name__}")
    if doc.get("kind") != kind:
        raise DataError(f"not a {kind} document: kind={doc.get('kind')!r}")
    if doc.get("schema_version") != version:
        raise DataError(f"unsupported {kind} schema_version {doc.get('schema_version')!r}")
    missing = [k for k in required if k not in doc]
    if missing:
        raise DataError(f"{kind} document lacks {', '.join(missing)}")
    return doc


def load_doc(text: str, kind: str, version: int, required=()) -> dict:
    """Parse and check one document; every defect is a :class:`DataError`."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise DataError(f"{kind} document is not valid JSON: {exc}") from None
    return check_doc(doc, kind, version, required)


@contextmanager
def reading(kind: str):
    """Report a badly shaped value met while decoding as a :class:`DataError`."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed {kind} document: {exc!r}") from None


def bounds_doc(bounds: dict) -> dict:
    """``{alpha: (lower, upper)}`` as ``{alpha: {"lower": [...], "upper": [...]}}``."""
    return {a: {"lower": lo, "upper": hi} for a, (lo, hi) in bounds.items()}


def coverage_pct(alpha: float) -> int:
    """Nominal coverage of a central (1 - alpha) interval in percent, as in column names."""
    return round(100.0 * (1.0 - alpha))


def check_coverage_labels(alphas, error) -> None:
    """Raise ``error`` naming the first two levels that share a coverage percent (column label)."""
    seen = {}
    for a in alphas:
        pct = coverage_pct(a)
        if pct in seen:
            raise error(f"alpha levels {seen[pct]} and {a} share the coverage label {pct}")
        seen[pct] = a


def by_coverage(alphas) -> list:
    """Miscoverage levels ordered by increasing coverage, the column order of every table."""
    return sorted(alphas, key=lambda a: 1.0 - a)


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, float):  # NumPy's float64 too: its own repr would name the type
        return repr(float(value))
    return value


def write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)


def write_curve_csv(path: str, grid_index, point, bounds_by_prefix: dict) -> None:
    """One row per grid point: index, point, then a lo/hi pair per prefix and level.

    ``bounds_by_prefix`` maps a column prefix to ``{alpha: (lower, upper)}``.
    """
    header = ["grid_index", "point"]
    columns = [grid_index, point]
    for prefix, bounds in bounds_by_prefix.items():
        for a in by_coverage(bounds):
            pct = coverage_pct(a)
            header += [f"{prefix}lo{pct}", f"{prefix}hi{pct}"]
            columns += bounds[a]
    write_csv(path, header, zip(*columns))
