"""JSON serialization, schema version "v1".

Partitions are integer arrays, rectangle decompositions arrays of [a, b]
pairs, weights {"xs": [...], "ys": [...], "conv": ...} with integer arrays.
Every top-level document carries {"schema": "v1"}.  A row shares the
record's tuples: `module_to_json`, `weight_to_json` and `_component_json` put
a module's lam, mu and Levi factors, a weight's xs and ys and a verdict's
target partitions into the row as they are, with no list copy, since every
writer (`dumps`, ``json.dumps`` and the csv and md cells of `cli.render`)
prints a tuple as the array it prints for a list.

`dumps` writes exactly the text of ``json.dumps(doc, sort_keys=True,
indent=2)`` plus a newline.  On Python 3.11 ``json.dumps`` with an indent
always runs the pure-Python generator encoder, one generator step per token,
so `dumps` writes a batch at a time instead of a value at a time: `_texts`
takes all the values that sit at one indent and splits them by type.  A batch
of exact str, int, float, bool or None is one `map` over a C function.  The
items of a batch of lists are written as one batch, then cut back per list;
when all those items are exact ints, the lists of each length are written
from one `%d` row template instead.  When all of them are exact ints or strs,
each distinct list of the batch is written once and its text reused for the
lists equal to it; bools, floats and subclasses are left out of that, since
``True == 1``, ``1.0 == 1`` and ``-0.0 == 0.0`` print differently.  A batch
of dicts is grouped by key tuple and written column by column, one batch per
key, each row from one `%` template.  The texts go back in the order of the
values.  A subclass of list or tuple (a checked partition of `partitions`,
a NamedTuple) joins the batches of lists, since json writes each as an
array.  A value no batch writes (a str, int, float or dict subclass, a
numpy scalar, a dict with keys other than exact strs) is written by
``json.dumps`` itself and re-indented, so what json rejects raises json's
error; no cohomrep document holds one.  A batch longer than `_BLOCK` is
written in blocks.  `write` walks the spine top down (each dict with exact
str keys, each exact list or tuple longer than `_BLOCK`) and passes its sink
one part per key and per block, so no level copies the text below it:
`dumps` joins the parts and peaks at 2.0x its text (3.3x with one text per
level), and the CLI passes each part to stdout, where only an encode error
in mid-document could leave partial output.
"""

from __future__ import annotations

from itertools import chain, compress, islice, repeat
# the C function json.encoder re-exports, taken without loading the json package
from _json import encode_basestring_ascii as _str
from operator import eq, itemgetter
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # annotations only: rendering a catalog loads no verdict engine
    from .lefschetz import Verdict
    from .vz_catalog import VZModule, Weight

SCHEMA = "v1"


def weight_to_json(w: Weight) -> dict:
    return {"xs": w.xs, "ys": w.ys, "conv": w.conv}


_SIGN = {1: "+", -1: "-", None: None}


def module_to_json(m: VZModule) -> dict:
    return {
        "kind": m.kind, "p": m.p, "q": m.q,
        "label": m.label,
        "lam": m.lam,
        "mu": m.mu,
        "sign1": _SIGN[m.sign1], "sign2": _SIGN[m.sign2],
        "degree": m.degree,
        "levi": m.levi,
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
        return {"lam": c[0], "mu": c[1]}
    return {"lam": c}


def document(payload, **meta) -> dict:
    doc = {"schema": SCHEMA}
    doc.update(meta)
    doc["data"] = payload
    return doc


def dumps(doc) -> str:
    """The JSON text of doc with sorted keys and a two-space indent, plus a
    newline; raises TypeError on what json cannot encode."""
    parts = []
    write(doc, parts.append)
    return "".join(parts)


def write(doc, out) -> None:
    """Pass the text of dumps(doc) to out in parts: one per key and per
    block on the spine, one for every other value."""
    _spine(doc, out, "\n")
    out("\n")


def _spine(v, out, nl: str) -> None:
    inner = nl + "  "
    if type(v) is dict and v and set(map(type, v)) == {str}:
        for i, k in enumerate(sorted(v)):
            out(("," if i else "{") + inner + _str(k) + ": ")
            _spine(v[k], out, inner)
        out(nl + "}")
    elif type(v) in (list, tuple) and len(v) > _BLOCK:
        for i in range(0, len(v), _BLOCK):
            out(("," if i else "[") + inner + ("," + inner).join(_texts(v[i:i + _BLOCK], inner)))
        out(nl + "]")
    else:
        out(_texts([v], nl)[0])


#: values written per batch; longer batches go in blocks of this many, which
#: bounds the texts of the flattened levels below them held at once
_BLOCK = 256
_SPECIAL = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_BOOL = {True: "true", False: "false"}
_NONE = type(None)
_INT = {int}
#: item types whose equal values have equal texts: not bool or float, since
#: True == 1, 1.0 == 1 and -0.0 == 0.0 print differently
_KEYED = {int, str}


def _texts(values: list, nl: str) -> list:
    """The texts of values, in order; every container among them has its
    lines start with nl (newline plus the indent of the line it is on)."""
    if len(values) > _BLOCK:
        out = []
        for i in range(0, len(values), _BLOCK):
            out += _texts(values[i:i + _BLOCK], nl)
        return out
    return _grouped(_typed, values, list(map(type, values)), nl)


def _grouped(write, values: list, labels: list, nl: str) -> list:
    """write(label, group, nl) for each group of values with equal labels,
    the texts merged back into the order of values."""
    if not labels:
        return []
    if labels.count(labels[0]) == len(labels):
        return write(labels[0], values, nl)
    parts = {label: iter(write(label, list(compress(values, map(eq, labels, repeat(label)))), nl))
             for label in dict.fromkeys(labels)}
    return list(map(next, map(parts.__getitem__, labels)))


def _typed(t: type, values: list, nl: str) -> list:
    """The texts of values that are all of type t."""
    if t is str:
        return list(map(_str, values))
    if t is int:
        return list(map(int.__repr__, values))
    if t is float:
        reprs = list(map(float.__repr__, values))
        return list(map(_SPECIAL.get, reprs, reprs))
    if t is bool:
        return list(map(_BOOL.__getitem__, values))
    if t is _NONE:
        return ["null"] * len(values)
    if issubclass(t, (list, tuple)):  # json writes every one as an array
        return _lists(values, nl)
    if t is dict:
        return _grouped(_dicts, values, list(map(tuple, values)), nl)
    return [_stdlib(v, nl) for v in values]


def _stdlib(v, nl: str) -> str:
    """The text of v from ``json.dumps``, its lines re-indented to start with
    nl: for what no batch writes (str, int, float and dict subclasses, numpy
    scalars, dicts with keys other than exact strs), which no cohomrep
    document holds.  json escapes every newline inside a string, so each
    newline it writes starts a line."""
    import json

    return json.dumps(v, sort_keys=True, indent=2).replace("\n", nl)


def _lists(lists: list, nl: str) -> list:
    """The texts of lists and tuples, subclasses included: all their items
    are written as one batch, then cut back into one run of texts per list.
    When every item is an exact int or str, each distinct list is written
    once, keyed by a tuple copy of each list and by each tuple itself, so a
    checked partition is not copied; when every item is an exact int, the
    lists of each length are written from one template."""
    types = set(map(type, chain.from_iterable(lists)))
    keys = None
    if types <= _KEYED:  # equal lists of exact ints and strs have equal texts
        # the values of a batch share one type, so the first says which
        keys = lists if isinstance(lists[0], tuple) else list(map(tuple, lists))
        lists = list(dict.fromkeys(keys))
    lengths = list(map(len, lists))
    if types == _INT:
        texts = _grouped(_int_lists, lists, lengths, nl)
    else:
        inner = nl + "  "
        items = iter(_texts(list(chain.from_iterable(lists)), inner))
        bodies = map(("," + inner).join, map(islice, repeat(items), lengths))
        texts = list(map(("[" + inner + "%s" + nl + "]").__mod__, bodies))
        if 0 in lengths:  # an empty body leaves this text, which no item list makes
            hollow = {"[" + inner + nl + "]": "[]"}
            texts = list(map(hollow.get, texts, texts))
    if keys is None:
        return texts
    return list(map(dict(zip(lists, texts)).__getitem__, keys))


def _int_lists(k: int, lists: list, nl: str) -> list:
    """The texts of tuples of k exact ints each, the keys of `_lists`, from
    one `%d` row template, which takes a tuple subclass as it takes a tuple:
    `%d` writes an exact int as its repr, and past the digit limit raises
    the ValueError json raises."""
    if not k:
        return ["[]"] * len(lists)
    inner = nl + "  "
    row = "[" + inner + ("," + inner).join(["%d"] * k) + nl + "]"
    return list(map(row.__mod__, lists))


def _dicts(keys: tuple, dicts: list, nl: str) -> list:
    """The texts of dicts whose key tuples all equal keys: with exact str
    keys, one batch per key and one row template; otherwise from json, since
    equal keys such as 1, 1.0 and True print differently."""
    if not keys:
        return ["{}"] * len(dicts)
    if set(map(type, keys)) != {str}:
        return [_stdlib(d, nl) for d in dicts]
    inner = nl + "  "
    keys = sorted(keys)
    columns = [_texts(list(map(itemgetter(k), dicts)), inner) for k in keys]
    row = ("," + inner).join([_str(k).replace("%", "%%") + ": %s" for k in keys])
    return list(map(("{" + inner + row + nl + "}").__mod__, zip(*columns)))
