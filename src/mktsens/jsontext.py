"""JSON text laid out as ``json.dumps(doc, indent=2)`` lays it out, from arrays.

The reports whose size doubles with every marginal label (``hasse.json``,
``hasse.dot``, ``local_markets.json`` and ``local_counts.json``) are rendered
with these helpers a block at a time instead of as one document for
``json.dumps``, whose indenting encoder is pure Python.  :func:`join_records`
renders a block of records as columns of text interleaved into one list and
joined once.  ``depth`` is the indent level at which a value opens; its
items sit one level deeper.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator, Sequence

import numpy as np

# Nodes, edges or outcome rows rendered per chunk of a streamed report.
EMIT_BLOCK = 1024

# Marks where a column's text goes in a record template.
SLOT = "\0"

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


def iter_json_list(chunks: Iterable[str], depth: int) -> Iterator[str]:
    """A JSON array that opens at ``depth``, from ``chunks`` of its items,
    each item preceded by a comma and its line break; one string per
    nonempty chunk."""
    empty = True
    for text in chunks:
        if text:
            yield "[" + text[1:] if empty else text
            empty = False
    yield "[]" if empty else "\n" + "  " * depth + "]"


def json_index_lists(masks: np.ndarray, n: int, depth: int) -> list[str]:
    """Each bitmask of width ``n`` as the JSON array of its set bits."""
    return subset_texts(masks, list(map(str, range(n))), "[]",
                        json_template([SLOT, SLOT], depth))


def json_columns(values: np.ndarray) -> list[list[str]]:
    """json's text of each float or bool of ``values``, one list per column
    (a 1-D array is one column): ``repr`` of a finite float, else NaN or
    (-)Infinity."""
    columns = values.T if values.ndim == 2 else values[None]
    if values.dtype == bool:
        return [list(map(("false", "true").__getitem__, c)) for c in columns.tolist()]
    texts = [list(map(repr, column)) for column in columns.tolist()]
    for k, i in zip(*np.nonzero(~np.isfinite(columns))):
        texts[k][i] = _NONFINITE[texts[k][i]]
    return texts


def join_records(template: str, columns: Sequence[Sequence[str]]) -> str:
    """A block of records, each ``template`` with the record's text of
    ``columns[k]`` (at least one) in place of its k-th :data:`SLOT`.  Each
    column fills its slots of one list by one slice assignment, and the list
    is joined once."""
    width = 2 * len(columns) + 1
    record = [""] * width
    record[::2] = template.split(SLOT)
    out = record * len(columns[0])
    for k, column in enumerate(columns):
        out[2 * k + 1::width] = column
    return "".join(out)


def json_template(value: object, depth: int) -> str:
    """``json.dumps(value, indent=2)`` laid out to open at ``depth``, with
    each :data:`SLOT` string of ``value`` left as a bare slot."""
    text = json.dumps(value, indent=2).replace("\n", "\n" + "  " * depth)
    return text.replace(json.dumps(SLOT), SLOT)


def subset_texts(masks: np.ndarray, items: Sequence[str], empty: str,
                 pair: str) -> list[str]:
    """The text of each of the distinct bitmasks ``masks``: ``empty`` for no
    bits, else the ``items`` of its set bits laid out as ``pair`` lays out
    two :data:`SLOT` marks.

    A text is the text of its mask without the highest bit, cut before the
    end, plus one item: one concatenation for each of ``masks`` and of the
    masks that they drop to, which are few beside 2^n when ``masks`` are."""
    start, sep, end = pair.split(SLOT)
    # np.unique would import numpy.ma, which costs more than this.
    need = np.sort(masks)
    for bit in reversed(range(len(items))):
        lower = need[need >> bit == 1] ^ 1 << bit
        at = np.minimum(np.searchsorted(need, lower), len(need) - 1)
        missing = lower[need[at] != lower]
        need = np.insert(need, np.searchsorted(need, missing), missing)
    texts = np.empty(len(need), dtype=object)
    texts[:1] = empty
    cut = -len(end) or None
    for bit, item in enumerate(items):
        low, high = np.searchsorted(need, [1 << bit, 2 << bit]).tolist()
        below = texts[np.searchsorted(need, need[low:high] ^ 1 << bit)]
        tail = sep + item + end
        texts[low:high] = [text[:cut] + tail for text in below]
        if low < high and need[low] == 1 << bit:
            texts[low] = start + item + end
    return texts[np.searchsorted(need, masks)].tolist()
