"""Per-unit artifact digests of the benchmark's seed-1 trees, and the pin
file that holds them.

For each dense unit, ``unit_pins.json`` holds the sha256 of its
``project.json`` entry (``json``) and of its heatmap page (``html``), and
of its entry when the unit is relaid with CRLF (``crlf``) and with lone-CR
(``cr``) line ends and read through ``analyze_unit`` as it is, so the
scanner's own line-end rule is pinned too.  For the sparse tree it holds
one digest over every unit's entry, in path order.  The trees are built in
memory, as ``perfbench/corpus.py`` plans them; ``tests/test_unit_pins.py``
compares them with the file.

A change that moves a pin rewrites the file with

    PYTHONPATH=src python tests/unit_pins.py

and says which units moved and why.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from mutdense.fault_model import OperatorSet
from mutdense.metrics import analyze_unit
from mutdense.reporting import emit_unit_json, render_heatmap
from conftest import corpus_plan

PIN_FILE = Path(__file__).resolve().parent / "unit_pins.json"
SEED = 1
_OPS = OperatorSet.default()
_RELAYOUTS = {"crlf": "\r\n", "cr": "\r"}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def dense_digests() -> dict[str, dict[str, str]]:
    """Each dense unit's digests by display path, keyed as the file keys them."""
    plan = corpus_plan("dense", SEED)
    digests = {}
    for path in sorted(plan.units):
        text = plan.files[path].decode("utf-8")
        report = analyze_unit(path, text, _OPS)
        unit = {"json": _sha256(emit_unit_json(report)),
                "html": _sha256(render_heatmap(report, text).encode("utf-8"))}
        for layout, end in _RELAYOUTS.items():
            relaid = analyze_unit(path, text.replace("\n", end), _OPS)
            unit[layout] = _sha256(emit_unit_json(relaid))
        digests[path] = unit
    return digests


def sparse_digest() -> str:
    """One digest over every sparse unit's entry, in path order."""
    plan = corpus_plan("sparse", SEED)
    digest = hashlib.sha256()
    for path in sorted(plan.units):
        digest.update(emit_unit_json(analyze_unit(path, plan.files[path].decode("utf-8"), _OPS)))
    return digest.hexdigest()


def compute() -> dict:
    return {"seed": SEED, "dense": dense_digests(), "sparse": sparse_digest()}


if __name__ == "__main__":
    PIN_FILE.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {PIN_FILE}")
