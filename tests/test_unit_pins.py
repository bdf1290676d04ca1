"""Every unit of the benchmark's seed-1 trees keeps its artifact bytes.

The digests live in ``unit_pins.json``, written by ``unit_pins.py``; a
moved dense pin names its unit and which of its digests moved.
"""

from __future__ import annotations

import json

import unit_pins


def _pins() -> dict:
    return json.loads(unit_pins.PIN_FILE.read_text(encoding="utf-8"))


def test_every_dense_unit_keeps_its_entry_and_page_in_each_line_end_style():
    pinned, found = _pins()["dense"], unit_pins.dense_digests()
    moved = {}
    for path in sorted(pinned.keys() | found.keys()):
        was, now = pinned.get(path, {}), found.get(path, {})
        keys = sorted(key for key in was.keys() | now.keys() if was.get(key) != now.get(key))
        if keys:
            moved[path] = keys
    assert not moved, f"{len(moved)} dense unit(s) moved, with the digests that did: {moved}"
    assert len(found) == 200


def test_the_sparse_entries_keep_their_bytes():
    assert unit_pins.sparse_digest() == _pins()["sparse"]
