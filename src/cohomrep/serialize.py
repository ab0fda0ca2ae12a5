"""JSON serialization, schema version "v1".

Partitions are integer arrays, rectangle decompositions arrays of [a, b]
pairs, weights {"xs": [...], "ys": [...], "conv": ...} with integer arrays.
Every top-level document carries {"schema": "v1"}.
"""

from __future__ import annotations

import json

from .lefschetz import Verdict
from .partitions import CompatiblePair, OrthoPartition
from .rootdata import Weight
from .vz_catalog import VZModule

SCHEMA = "v1"


def weight_to_json(w: Weight) -> dict:
    return {"xs": list(w.xs), "ys": list(w.ys), "conv": w.conv}


def pair_to_json(cp: CompatiblePair) -> dict:
    return {"lam": list(cp.lam), "mu": list(cp.mu),
            "box": [cp.ctx.p, cp.ctx.q],
            "rects": [list(r) for r in cp.rects]}


def orth_to_json(o: OrthoPartition) -> dict:
    return {"lam": list(o.lam), "box": [o.ctx.p, o.ctx.q],
            "pairs": [list(r) for r in o.pairs],
            "central": list(o.central) if o.central else None,
            "parity": o.parity, "even_type": o.even_type}


def module_to_json(m: VZModule) -> dict:
    sign = {1: "+", -1: "-", None: None}
    return {
        "kind": m.kind, "p": m.p, "q": m.q,
        "label": m.label,
        "lam": list(m.lam),
        "mu": list(m.mu) if m.mu is not None else None,
        "sign1": sign[m.sign1], "sign2": sign[m.sign2],
        "degree": m.degree,
        "levi": [[f[0], f[1], f[2]] for f in m.levi],
        "lowest_ktype": weight_to_json(m.lowest_ktype),
        "discrete_series": m.discrete_series,
        "holomorphic": m.holomorphic,
        "o_group_extension": m.o_group_extension,
    }


def verdict_to_json(v: Verdict) -> dict:
    return {
        "status": v.status,
        "anchor": v.anchor,
        "citation": v.citation,
        "threshold": v.threshold,
        "target_component": _component_json(v.target_component),
        "qualifier": v.qualifier,
        "criterion_value": v.criterion_value,
    }


def _component_json(c):
    if c is None:
        return None
    if isinstance(c, tuple) and len(c) == 2 and all(isinstance(x, tuple) for x in c):
        return {"lam": list(c[0]), "mu": list(c[1])}
    return {"lam": list(c)}


def document(payload, **meta) -> dict:
    doc = {"schema": SCHEMA}
    doc.update(meta)
    doc["data"] = payload
    return doc


def dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
