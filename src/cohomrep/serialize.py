"""JSON serialization, schema version "v1".

Partitions are integer arrays, rectangle decompositions arrays of [a, b]
pairs, weights {"xs": [...], "ys": [...], "conv": ...} with integer arrays.
Every top-level document carries {"schema": "v1"}.

`dumps` writes exactly the text of ``json.dumps(doc, sort_keys=True,
indent=2)`` plus a newline, in one recursive `str.join` pass: on Python 3.11
``json.dumps`` with an indent always runs the pure-Python generator encoder,
one generator step per token.  Exact str and int take a direct branch and
an all-int list one C-level join; everything else follows json's
`isinstance` order, so `numpy.float64` is written as a float and what json
rejects raises TypeError.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _str
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # annotations only: rendering a catalog loads no verdict engine
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
    """The JSON text of doc with sorted keys and a two-space indent, plus a
    newline; raises TypeError on what json cannot encode."""
    return _value(doc, "\n") + "\n"


_INF = float("inf")
_INT_ONLY = {int}


def _float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


def _value(o, nl: str) -> str:
    """The text of o, whose container lines start with nl (newline plus the
    indent of the line o is on)."""
    t = type(o)
    if t is str:
        return _str(o)
    if t is int:
        return int.__repr__(o)
    # json's isinstance order, which also decides how subclasses are written
    if isinstance(o, str):
        return _str(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float(o)
    if isinstance(o, (list, tuple)):
        return _list(o, nl)
    if isinstance(o, dict):
        return _dict(o, nl)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _list(o, nl: str) -> str:
    if not o:
        return "[]"
    inner = nl + "  "
    if set(map(type, o)) == _INT_ONLY:
        body = ("," + inner).join(map(int.__repr__, o))
    else:
        body = ("," + inner).join([_value(v, inner) for v in o])
    return "[" + inner + body + nl + "]"


def _dict(o, nl: str) -> str:
    if not o:
        return "{}"
    inner = nl + "  "
    body = ("," + inner).join([(_str(k) if type(k) is str else _key(k)) + ": " + _value(v, inner)
                               for k, v in sorted(o.items())])
    return "{" + inner + body + nl + "}"


def _key(k) -> str:
    """A non-str key as json writes it: the text of the scalar, quoted."""
    if isinstance(k, str):
        return _str(k)
    if isinstance(k, float):
        return _str(_float(k))
    if k is True:
        return '"true"'
    if k is False:
        return '"false"'
    if k is None:
        return '"null"'
    if isinstance(k, int):
        return _str(int.__repr__(k))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")
