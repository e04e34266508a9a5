"""Regenerate ``src/epgc/fixtures/certificates.json``.

Classifies every group of ``catalog(15)`` with the shipped table switched
off, so that each certificate comes from ``search_embedding``, and records
for each the least node budget at which the search returns it.  Run from the
repository root:

    PYTHONPATH=src python tools/make_certificates.py
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import epgc.topology as topology
from epgc.epg import build_bundle
from epgc.groups import catalog

OUT = Path(__file__).resolve().parents[1] / "src" / "epgc" / "fixtures" / "certificates.json"


def least_budget(g, target: int, orientable: bool) -> int:
    """The least budget at which the search finishes (it is deterministic,
    so every larger budget finishes the same way)."""
    lo, hi = 1, topology.DEFAULT_BUDGET
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            topology.search_embedding(g, target, orientable=orientable, budget=mid)
            hi = mid
        except topology.SearchBudgetExceeded:
            lo = mid + 1
    return lo


def entries() -> list[dict]:
    topology._shipped_certificates = lambda: {}
    out, seen = [], set()
    for group in catalog(15):
        verdict = topology.classify_surface(build_bundle(group))
        for surface, cert in verdict.certificates.items():
            g = cert.graph
            key = (surface, g.n, tuple(g.edges()))
            if key in seen:
                continue
            seen.add(key)
            kind, target = re.fullmatch(r"(genus|crosscap)(\d+)", surface).groups()
            out.append({
                "surface": surface,
                "n": g.n,
                "edges": [list(e) for e in g.edges()],
                "nodes": least_budget(g, int(target), kind == "genus"),
                "rotation": topology.rotation_to_text(cert),
            })
    return out


def dump(items: list[dict]) -> str:
    """One field per line, the edge list on one line."""
    blocks = [
        "  {\n" + ",\n".join(f"    {json.dumps(k)}: {json.dumps(v)}" for k, v in e.items()) + "\n  }"
        for e in items
    ]
    return "[\n" + ",\n".join(blocks) + "\n]\n"


if __name__ == "__main__":
    items = entries()
    OUT.write_text(dump(items), encoding="utf-8")
    print(f"wrote {len(items)} certificates to {OUT}")
