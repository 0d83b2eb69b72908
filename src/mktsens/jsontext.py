"""JSON text laid out as ``json.dumps(doc, indent=2)`` lays it out, from arrays.

The reports whose size doubles with every marginal label (``hasse.json``,
``local_markets.json`` and ``local_counts.json``) are rendered with these
helpers a block at a time instead of as one document for ``json.dumps``,
whose indenting encoder is pure Python.  ``depth`` is the indent level at
which a value opens; its items sit one level deeper.
"""

from __future__ import annotations

import json
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

# Nodes, edges or outcome rows rendered per chunk of a streamed report.
EMIT_BLOCK = 1024

_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def blocks(count: int, rows_each: int = 1) -> Iterator[slice]:
    """Slices that cover ``range(count)`` with about :data:`EMIT_BLOCK` rows
    each, where every item holds ``rows_each`` rows (at least one item)."""
    step = max(1, EMIT_BLOCK // rows_each)
    return (slice(start, start + step) for start in range(0, count, step))


def json_list(items: Sequence[str], depth: int) -> str:
    """A JSON array of encoded ``items``."""
    if not items:
        return "[]"
    inner = "\n" + "  " * (depth + 1)
    return "[" + inner + ("," + inner).join(items) + "\n" + "  " * depth + "]"


def iter_json_list(chunks: Iterable[Sequence[str]], depth: int) -> Iterator[str]:
    """The text of :func:`json_list` over the concatenated ``chunks`` of
    encoded items, one string per nonempty chunk."""
    inner = "\n" + "  " * (depth + 1)
    empty = True
    for items in chunks:
        if items:
            yield ("[" if empty else ",") + inner + ("," + inner).join(items)
            empty = False
    yield "[]" if empty else "\n" + "  " * depth + "]"


def json_index_lists(masks: np.ndarray, n: int, depth: int) -> list[str]:
    """Each bitmask of width ``n`` as the JSON array of its set bits."""
    return [json_list([str(i) for i in range(n) if bits >> i & 1], depth)
            for bits in masks.tolist()]


def json_object_format(keys: Sequence[str], depth: int) -> Callable[..., str]:
    """``format`` of a JSON object with ``keys``, taking the encoded values."""
    inner = "\n" + "  " * (depth + 1)
    body = ",".join(f"{inner}{json.dumps(key)}: {{}}" for key in keys)
    return ("{{" + body + "\n" + "  " * depth + "}}").format


def json_floats(values: np.ndarray) -> list[str]:
    """json's text of each float of ``values`` in C order: ``repr`` when
    finite, else NaN or (-)Infinity."""
    flat = np.asarray(values, dtype=np.float64).ravel()
    texts = list(map(repr, flat.tolist()))
    for i in np.flatnonzero(~np.isfinite(flat)).tolist():
        texts[i] = _NONFINITE[texts[i]]
    return texts


def json_rows(values: np.ndarray, depth: int) -> list[str]:
    """Each row of a 2-D float array as a JSON array."""
    rows, width = values.shape
    if not width:
        return ["[]"] * rows
    texts = json_floats(values)
    row = json_list(["{}"] * width, depth)
    return list(map(row.format, *(texts[k::width] for k in range(width))))


def json_bools(flags: np.ndarray) -> list[str]:
    """``true`` or ``false`` for each flag."""
    return list(map(("false", "true").__getitem__, flags.tolist()))
