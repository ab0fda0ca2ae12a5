"""Verdict engine for restriction / cup-product injectivity queries.

Every answer cites a theorem or conjecture anchor from a closed table and
records the instantiated inequality.  Statuses: "guaranteed" (all
hypotheses of a theorem hold), "fails-criterion" (an if-and-only-if
criterion evaluates false), "conjectured" (only a conjecture covers the
query; its criterion value is reported but never upgraded), and
"not-covered" (outside every statement).  Conjecture-backed rows are never
"guaranteed".  Degree queries read one ordered table of theorem rows,
`_THEOREMS`; component queries and modular symbols are answered in code,
and the L2 thresholds of "Thm cohom l2" are the closed form
`closedforms.l2_cup_threshold`.  A restriction component verdict takes its
criterion and target from the `branching` predicates, and the O ladder
theorems share one range predicate, `_o_ladder_in_range`.  It calls partitions as `pt.<name>`,
so a degree query never runs a lazy `partitions` source.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from . import partitions as pt

GUARANTEED = "guaranteed"
CONJECTURED = "conjectured"
NOT_COVERED = "not-covered"
FAILS = "fails-criterion"

#: closed citation table: anchor -> statement summary
CITATIONS = {
    "Thm upq": "U(p,q), p,q>=2: virtual restriction to U(p,q-1) x U(p-1,q) injective for k < p+q-1",
    "Thm upq.2": "U(p,q): cup with the U(p,q-1) class injective for k < q-p-1 (resp. U(p-1,q), k < p-q-1)",
    "Thm opq": "O(p,q), p,q>=3: virtual restriction to O(p,q-1) x O(p-1,q) injective for k <= p+q-4",
    "Thm opq.2": "O(p,q): cup with the O(p,q-1) class injective for k <= (q-p-3)/2 (resp. (p-q-3)/2)",
    "Thm o2n": "O(2,n), n>=3: virtual restriction to O(2,n-1) injective for k <= n-1",
    "Thm o2n.2": "O(2,n): cup with the hyperplane class injective for k <= [n/2]-2",
    "Thm u&o": "O(p,q) inside U(p,q), p,q>=3: restriction injective on H^{k,0} for k <= p+q-3",
    "Thm u&o2": "O(2,n) inside U(2,n), n>=3: restriction injective on H^{k,0} for k <= [n/2]",
    "Thm analogue": "U(p,q) -> U(p,q-r): component (lam,mu) restricts injectively iff (r^p) fits in mu/lam",
    "Thm anaO": "O(p,q) -> O(p,q-r): component (i^p) restricts injectively for i <= (q-r-2)/2, p+q-r-2i >= 5",
    "Thm anaUO": "U(p,q) -> O(p,q): component (i^p) restricts injectively for i <= (q-2)/2, p+q-2i >= 5",
    "Thm anaO-L2": "isotropic variant of Thm anaO on L2/cuspidal cohomology",
    "Thm anaU-L2": "isotropic U(p,q) -> U(p,q-r): components ((i^p),((q-j)^p)), i+j <= q-r-2, on L2 cohomology",
    "Thm anaUO-L2": "isotropic variant of Thm anaUO on L2/cuspidal cohomology",
    "Thm cupO": "O(p,q): classes in components (k^p), (l^p) cup nontrivially into ((k+l)^p) for k+l <= (q-2)/2, p+q-2(k+l) >= 5",
    "Thm cup-u": "U(p,q): two classes of degrees k+l <= q+p-1 admit a nonzero translated cup product",
    "Thm cup-o": "O(p,q), p,q>=2: two classes of degrees k+l <= q+p-3 admit a nonzero translated cup product",
    "Thm cup-class-O": "O(p,q+r) over O(p,q), p,q>=2: cup with the cycle class injective for k <= min(p+q+r-rp-3, (q-pr)/2-1)",
    "Thm cohom l2": "cup with the cycle class is an isomorphism onto the L2 cohomology for k < (q+pr-1)/2",
    "Thm symbmodul": "O-modular symbol: q >= r+2 and p+q-r >= 5 give a nonzero strongly primitive projection in H^{(r^p)}",
    "Thm symbmodulU": "U-modular symbol: q >= r+2 gives a nonzero strongly primitive projection in H^{(r^p),(q^p)}",
    "Conj conjl2": "cup with the cycle class on the (lam,mu) component injective iff (r^p) fits in mu/lam (L2, U)",
    "Conj conjl2O": "cup with the cycle class on the lam component injective iff (r^p) fits in complement(lam)/lam (L2, O)",
    "Conj conj2": "U(p,q+r) over U(p,q): cup with the cycle class on components iff (r^p) fits in mu/lam",
    "Conj C100": "O(p,q+r) over O(p,q): cup with the cycle class on the lam component iff (r^p) fits in complement(lam)/lam",
    "Conj CU1": "restriction U -> U on a general component (lam,mu) iff (r^p) fits in mu/lam",
    "Conj CanaO": "arithmetic restriction O -> O on a general component iff (r^p) fits in complement(lam)/lam",
    "Conj CanaUO": "arithmetic restriction U -> O on general components; lam = 0 or mu full, then iff lam orthogonal",
    "Conj cup-hyp": "O(1,n): two classes of degrees k+l <= n/2 admit a nonzero translated cup product",
}


class _VerdictFields(NamedTuple):
    status: str
    anchor: str
    threshold: str
    target_component: Optional[object] = None
    qualifier: Optional[str] = None
    criterion_value: Optional[bool] = None  # for iff-criteria and conjectures


class Verdict(_VerdictFields):
    __slots__ = ()

    def __new__(cls, status: str, anchor: str, threshold: str, target_component=None,
                qualifier: Optional[str] = None, criterion_value: Optional[bool] = None):
        if anchor not in CITATIONS and status != NOT_COVERED:
            raise ValueError(f"unknown anchor {anchor!r}")
        if status not in (GUARANTEED, CONJECTURED, NOT_COVERED, FAILS):
            raise ValueError(f"unknown status {status!r}")
        return _VerdictFields.__new__(cls, status, anchor, threshold, target_component,
                                      qualifier, criterion_value)

    @property
    def citation(self) -> str:
        return CITATIONS.get(self.anchor, "")


class Group(NamedTuple):
    kind: str  # "U" | "O"
    p: int
    q: int

    def __str__(self):
        return f"{self.kind}({self.p},{self.q})"


def parse_group(text: str) -> Group:
    """'U:p,q' or 'O:p,q' with p, q >= 1."""
    try:
        kind, rest = text.split(":")
        p, q = (int(v) for v in rest.split(","))
        if kind in ("U", "O") and p >= 1 and q >= 1:
            return Group(kind, p, q)
    except ValueError:
        pass
    raise ValueError(f"bad group {text!r}: expected U:p,q or O:p,q with p, q >= 1")


#: piece counts of the component shapes the verdicts read; "lam;lam" names
#: two independent partitions, "lam;mu" a nested pair
_PIECES = {"lam": (1,), "lam;mu": (2,), "lam or lam;mu": (1, 2), "lam;lam": (2,)}


def _component(component, shape: str, p: int, q: int) -> tuple[pt.Partition, ...]:
    """The pieces of a component, each normalized once: a pair is given as
    two sequences, one partition as a sequence of ints.  Raises ValueError
    unless the component has `shape` (a key of _PIECES), every piece fits in
    the p x q box and, for "lam;mu", lam lies inside mu."""
    pieces = tuple(component) if component and isinstance(component[0], (tuple, list)) else (component,)
    if len(pieces) not in _PIECES[shape]:
        raise ValueError(f"this query reads a component {shape!r}, not {component!r}")
    if shape == "lam;lam":
        return tuple(pt.boxed(p, q, c)[0] for c in pieces)
    lam, mu = pt.boxed(p, q, *pieces)
    return (lam,) if mu is None else (lam, mu)


def _hyperplane_pair(kind: str, p: int, q: int, H) -> bool:
    """H is the standard hyperplane pair kind(p,q-1) & kind(p-1,q), or None
    meaning 'use the standard pair'."""
    if H is None:
        return True
    # a Group is itself a tuple, so it is excluded by name
    if not isinstance(H, Group) and isinstance(H, (tuple, list)) and len(H) == 2:
        a, b = H
        return {(a.kind, a.p, a.q), (b.kind, b.p, b.q)} == {(kind, p, q - 1), (kind, p - 1, q)}
    return False


def _single_hyperplane(p: int, q: int, H) -> bool:
    """(p, q) is (2, n) or (n, 2) with n >= 3, and H is the hyperplane
    O(2,n-1) in either order, or None meaning 'use the hyperplane'."""
    n = max(p, q)
    return min(p, q) == 2 and n >= 3 and (H is None or _is(H, "O") and {H.p, H.q} == {2, n - 1})


def _is(H, kind: str, *pq: int) -> bool:
    """H is a Group of `kind`, and (p, q) if given."""
    return isinstance(H, Group) and H.kind == kind and (not pq or (H.p, H.q) == pq)


class _Theorem(NamedTuple):
    """A degree theorem for G of `kind` in one query mode.  It answers for
    (G, H) when `applies(p, q, H)`, and it bounds the degree k (k + l for two
    classes) by `bound(p, q, H)`, strictly if `strict`, and by the possibly
    half-integer `halves(p, q, H) / 2`, decided as 2k <= halves.  `text`
    formats the threshold from k, the bound b as printed (the lesser of the
    two), r = q - H.q, the image degree img and the criterion ok.  A "Conj"
    anchor answers "conjectured", with its criterion if it has a bound; a
    "Thm" row without a bound is the mode's not-covered answer."""
    mode: str  # "restriction" | "cup" | "classes"
    kind: str
    anchor: str
    applies: Callable
    text: str
    bound: Optional[Callable] = None
    halves: Optional[Callable] = None
    strict: bool = False
    qualifier: Optional[str] = None


#: the degree theorems, tried in order: the first row of the mode that
#: applies answers, and each mode ends in rows that always apply
_THEOREMS = (
    _Theorem("restriction", "U", "Thm upq", lambda p, q, H: _hyperplane_pair("U", p, q, H) and min(p, q) >= 2,
             "k < p+q-1: {k} < {b}", bound=lambda p, q, H: p + q - 1, strict=True),
    _Theorem("restriction", "O", "Thm opq", lambda p, q, H: _hyperplane_pair("O", p, q, H) and min(p, q) >= 3,
             "k <= p+q-4: {k} <= {b}", bound=lambda p, q, H: p + q - 4),
    _Theorem("restriction", "O", "Thm o2n", _single_hyperplane, "k <= n-1: {k} <= {b}",
             bound=lambda p, q, H: max(p, q) - 1),
    _Theorem("restriction", "U", "Thm u&o", lambda p, q, H: _is(H, "O", p, q) and min(p, q) >= 3,
             "k <= p+q-3: {k} <= {b}", bound=lambda p, q, H: p + q - 3, qualifier="holomorphic part H^{k,0}"),
    _Theorem("restriction", "U", "Thm u&o2", lambda p, q, H: _is(H, "O", p, q) and min(p, q) == 2 and max(p, q) >= 3,
             "k <= [n/2]: {k} <= {b}", bound=lambda p, q, H: max(p, q) // 2, qualifier="holomorphic part H^{k,0}"),
    _Theorem("restriction", "U", "Thm upq", lambda p, q, H: True, "no theorem covers this degree query"),
    _Theorem("restriction", "O", "Thm opq", lambda p, q, H: True, "no theorem covers this degree query"),
    _Theorem("cup", "U", "Thm upq.2", lambda p, q, H: _is(H, "U", p, q - 1),
             "k < q-p-1: {k} < {b}; image degree k+2p = {img}", bound=lambda p, q, H: q - p - 1, strict=True),
    _Theorem("cup", "U", "Thm upq.2", lambda p, q, H: _is(H, "U", p - 1, q),
             "k < p-q-1: {k} < {b}; image degree k+2q = {img}", bound=lambda p, q, H: p - q - 1, strict=True),
    _Theorem("cup", "U", "Conj conj2", lambda p, q, H: _is(H, "U") and H.p == p and H.q < q - 1,
             "r = {r}; conjectural for components; no degree theorem"),
    _Theorem("cup", "O", "Thm o2n.2", lambda p, q, H: H is not None and _single_hyperplane(p, q, H),
             "k <= [n/2]-2: {k} <= {b}; image degree k+2 = {img}", bound=lambda p, q, H: max(p, q) // 2 - 2),
    _Theorem("cup", "O", "Thm opq.2", lambda p, q, H: min(p, q) >= 3 and _is(H, "O", p, q - 1),
             "k <= (q-p-3)/2: {k} <= {b}; image degree k+p = {img}", halves=lambda p, q, H: q - p - 3),
    _Theorem("cup", "O", "Thm opq.2", lambda p, q, H: min(p, q) >= 3 and _is(H, "O", p - 1, q),
             "k <= (p-q-3)/2: {k} <= {b}; image degree k+q = {img}", halves=lambda p, q, H: p - q - 3),
    # the text's q is H.q = q - r: k <= p+H.q+r-rp-3 and 2(k+1) <= H.q-pr
    _Theorem("cup", "O", "Thm cup-class-O", lambda p, q, H: _is(H, "O") and H.p == p >= 2 and 2 <= H.q < q,
             "k <= min(p+q+r-rp-3, (q-pr)/2-1) = {b}; image degree k+rp = {img}",
             bound=lambda p, q, H: p + q - (q - H.q) * p - 3, halves=lambda p, q, H: H.q - p * (q - H.q) - 2),
    _Theorem("cup", "U", "Thm upq.2", lambda p, q, H: True, "no theorem covers this cup query"),
    _Theorem("cup", "O", "Thm opq.2", lambda p, q, H: True, "no theorem covers this cup query"),
    _Theorem("classes", "U", "Thm cup-u", lambda p, q, H: True, "k+l <= q+p-1: {k} <= {b}",
             bound=lambda p, q, H: q + p - 1),
    _Theorem("classes", "O", "Conj cup-hyp", lambda p, q, H: min(p, q) == 1, "criterion k+l <= n/2: {ok}",
             halves=lambda p, q, H: max(p, q)),
    _Theorem("classes", "O", "Thm cup-o", lambda p, q, H: True, "k+l <= q+p-3: {k} <= {b}",
             bound=lambda p, q, H: q + p - 3),
)


def _theorem(mode: str, G: Group, H) -> _Theorem:
    """The first row of _THEOREMS that applies to (G, H) in `mode`."""
    return next(row for row in _THEOREMS
                if row.mode == mode and row.kind == G.kind and row.applies(G.p, G.q, H))


def _known_kind(G: Group) -> None:
    """Raise ValueError unless G is U or O: every query checks this first,
    degree and component alike.  parse_group admits only U and O, so only a
    Group built by hand can fail it."""
    if G.kind not in ("U", "O"):
        raise ValueError(f"unknown kind {G.kind!r}")


def _degree_verdict(mode: str, G: Group, H, k: int) -> Verdict:
    """The answer in degree k (k + l for two classes) of the row that
    applies, for G of a known kind."""
    row = _theorem(mode, G, H)
    bound = row.bound and row.bound(G.p, G.q, H)
    halves = row.halves and row.halves(G.p, G.q, H)
    shown = [b for b in (bound, None if halves is None else halves / 2) if b is not None]
    ok = None if not shown else ((bound is None or (k < bound if row.strict else k <= bound))
                                 and (halves is None or 2 * k <= halves))
    r = img = None
    if isinstance(H, Group):  # cup with the cycle class of H adds its codimension to the degree
        r, img = G.q - H.q, k + (2 if G.kind == "U" else 1) * (G.p * G.q - H.p * H.q)
    text = row.text.format(k=k, b=min(shown, default=None), r=r, img=img, ok=ok)
    if row.anchor.startswith("Conj"):
        return Verdict(CONJECTURED, row.anchor, text, qualifier=row.qualifier, criterion_value=ok)
    return Verdict(GUARANTEED if ok else NOT_COVERED, row.anchor, text, qualifier=row.qualifier)


def restriction_verdict(G: Group, H=None, degree: Optional[int] = None,
                        component=None, r: Optional[int] = None,
                        l2: bool = False) -> Verdict:
    """Restriction queries.

    Degree queries: H the standard hyperplane pair (U or O), the single
    hyperplane for O(2,n), or O(p,q) inside U(p,q).  Component queries:
    U(p,q) -> U(p,q-r) with component (lam, mu); O(p,q) -> O(p,q-r) or
    U(p,q) -> O(p,q) with component lam or (lam, mu).  With l2=True the
    isotropic variants answer, qualified as L2/cuspidal cohomology.  A
    component of another shape, outside the p x q box or with lam not
    inside mu raises ValueError, as does an r outside the range of the
    branching predicate (0..q for U -> U, 0..q-1 for O -> O) or one that
    disagrees with H's q - H.q.  A G of a kind other than U or O raises
    ValueError.
    """
    _known_kind(G)
    p, q = G.p, G.q
    if degree is not None and component is None:
        return _degree_verdict("restriction", G, H, degree)
    if component is None:
        raise ValueError("need a degree or a component")
    from . import branching as br  # component queries only: degree queries never load it
    if G.kind == "U" and _is(H, "U") and H.p == p:
        lam, mu = _component(component, "lam;mu", p, q)
        rr = q - H.q if r is None else r
        res = br.restrict_U_pair(lam, mu, pt.BoxContext(p, q), rr)
        _r_matches(G, H, r)
        ok, target = res["contains"], res["target"]
        if not l2 or _ladder_in_l2_range(lam, mu, p, rr):
            return Verdict(GUARANTEED if ok else FAILS, "Thm anaU-L2" if l2 else "Thm analogue",
                           f"(r^p) = ({rr}^{p}) fits in mu/lam: {ok}", target_component=target,
                           qualifier="L2 cohomology" if l2 else None, criterion_value=ok)
        return Verdict(CONJECTURED, "Conj CU1", f"criterion (r^p) fits: {ok}",
                       target_component=target, criterion_value=ok,
                       qualifier="L2 cohomology")
    if G.kind == "O" and _is(H, "O") and H.p == p:
        lam, = _component(component, "lam", p, q)
        rr = q - H.q if r is None else r
        ok = br.restrict_O(lam, pt.BoxContext(p, q), rr)["contains"]
        _r_matches(G, H, r)
        i = _column(lam, p)
        if i is not None and _o_ladder_in_range(p, q - rr, i):
            return Verdict(GUARANTEED, "Thm anaO-L2" if l2 else "Thm anaO",
                           f"i <= (q-r-2)/2: {i} <= {(q - rr - 2) / 2}; p+q-r-2i = {p + q - rr - 2 * i} >= 5",
                           target_component=lam, qualifier="L2 cohomology" if l2 else None)
        return Verdict(CONJECTURED, "Conj CanaO",
                       f"{'' if i is None else 'outside the proven range; '}criterion (r^p) fits: {ok}",
                       target_component=lam if ok else None, criterion_value=ok)
    if G.kind == "U" and _is(H, "O", p, q):
        pieces = _component(component, "lam or lam;mu", p, q)
        lam = pieces[0]
        if len(pieces) == 2:
            mu = pieces[1]
            if not br.restrict_UO_vanishing(lam, mu, pt.BoxContext(p, q)):
                return Verdict(CONJECTURED, "Conj CanaUO",
                               "criterion lam = 0 or mu full: False", criterion_value=False)
            lam = lam if mu == (q,) * p else pt._complement(mu, p, q)
        i = _column(lam, p)
        if i is not None and _o_ladder_in_range(p, q, i):
            return Verdict(GUARANTEED, "Thm anaUO-L2" if l2 else "Thm anaUO",
                           f"i <= (q-2)/2: {i} <= {(q - 2) / 2}; p+q-2i = {p + q - 2 * i} >= 5",
                           target_component=lam, qualifier="L2 cohomology" if l2 else None)
        is_orth = pt.ortho_classify(lam, pt.BoxContext(p, q)) is not None
        return Verdict(CONJECTURED, "Conj CanaUO",
                       f"criterion lam orthogonal: {is_orth}", criterion_value=is_orth)
    return _uncovered_component(component, G)


def _uncovered_component(component, G: Group) -> Verdict:
    """The answer to a component query with an H no statement covers, once
    the component is a lam or a lam;mu inside G's box: it cites the
    component theorem of G's kind."""
    _component(component, "lam or lam;mu", G.p, G.q)
    return Verdict(NOT_COVERED, "Thm analogue" if G.kind == "U" else "Thm anaO",
                   "no statement covers this component query")


def _o_ladder_in_range(p: int, q: int, i: int) -> bool:
    """The proven range of the O ladder theorems for (i^p) in a p x q box:
    2i <= q-2, p+q-2i >= 5 and p >= 2 (q >= 2 follows, as i >= 0)."""
    return 2 * i <= q - 2 and p + q - 2 * i >= 5 and p >= 2


def _ladder_in_l2_range(lam, mu, p, r) -> bool:
    """(lam, mu) = ((i^p), ((q-j)^p)) with i + j <= q-r-2, i.e. the columns
    differ by at least r+2 (an empty lam is i = 0, an empty mu j = q)."""
    i, m = _column(lam, p), _column(mu, p)
    return i is not None and m is not None and m - i >= r + 2


def _column(lam: pt.Partition, p: int) -> Optional[int]:
    """i when lam = (i^p), the empty partition being i = 0, else None; lam
    is normalized."""
    if not lam:
        return 0
    return lam[0] if len(lam) == p and lam[-1] == lam[0] else None


def cup_verdict(G: Group, H=None, degree: Optional[int] = None,
                component=None, r: Optional[int] = None,
                l2: bool = False) -> Verdict:
    """Cup product with the cycle class of H inside G, in degree k of H's
    cohomology, or on a named component (conjectural in general): (lam, mu)
    for U, lam for O, inside H's box (see cup_box), else ValueError.  A
    component query with an H other than one group of G's kind and p (a
    group of another kind or p, or two groups) answers not-covered, as a
    restriction component query does.  A G of a kind other than U or O
    raises ValueError."""
    _known_kind(G)
    p, q = G.p, G.q
    if degree is not None and component is None:
        return _degree_verdict("cup", G, H, degree)
    if component is None:
        raise ValueError("need a degree or a component")
    if H is not None and not (_is(H, G.kind) and H.p == p):
        return _uncovered_component(component, G)
    rr, qq = cup_box(G, H, r)
    if G.kind == "O":
        lam, = _component(component, "lam", p, qq)
        raised = _lam_plus_rp(lam, rr, p)  # (r^p) fits in the skew nu/lam iff lam + (r^p) lies in nu
        ok = (pt.ortho_classify(lam, pt.BoxContext(p, qq)) is not None
              and pt._contains(pt._complement(lam, p, qq), raised))
        anchor = "Conj conjl2O" if l2 else "Conj C100"
        return Verdict(CONJECTURED, anchor, f"criterion (r^p) fits in complement(lam)/lam: {ok}",
                       target_component=raised if ok else None,
                       criterion_value=ok, qualifier="L2 cohomology" if l2 else None)
    lam, mu = _component(component, "lam;mu", p, qq)
    raised = _lam_plus_rp(lam, rr, p)
    ok = pt._skew_decompose(lam, mu, pt.BoxContext(p, qq)) is not None and pt._contains(mu, raised)
    anchor = "Conj conjl2" if l2 else "Conj conj2"
    return Verdict(CONJECTURED, anchor, f"criterion (r^p) fits in mu/lam: {ok}",
                   target_component=(raised, mu) if ok else None,
                   criterion_value=ok, qualifier="L2 cohomology" if l2 else None)


def cup_box(G: Group, H=None, r: Optional[int] = None) -> tuple[int, int]:
    """(r, q') for a component cup query: the codimension r (given, or q - q'
    from H) and H's box p x q' (q' = q - r without H) that holds the
    component.  Raises ValueError without H and r, when r is outside 1..q-1,
    or when a given r disagrees with H's q - q'."""
    rr = r if r is not None else (G.q - H.q if isinstance(H, Group) else None)
    if rr is None:
        raise ValueError("a component cup query needs H or r")
    if not 1 <= rr <= G.q - 1:
        raise ValueError(f"r = {rr} is outside 1..{G.q - 1} for {G}")
    _r_matches(G, H, r)
    return rr, H.q if isinstance(H, Group) else G.q - rr


def _r_matches(G: Group, H, r: Optional[int]) -> None:
    """Raise ValueError when an explicit r and the group H name different
    codimensions q - H.q; checked after r's range, so that message wins."""
    if r is not None and isinstance(H, Group) and r != G.q - H.q:
        raise ValueError(f"r = {r} disagrees with H = {H}, which has r = {G.q - H.q}")


def _lam_plus_rp(lam: pt.Partition, r: int, p: int) -> pt.Partition:
    """lam + (r^p) for a normalized lam and r >= 1."""
    return tuple(v + r for v in pt.pad(lam, p))


def cup_classes_verdict(G: Group, k: int, l: int, components=None) -> Verdict:
    """Nonvanishing of a translated cup product of two classes of degrees
    k and l (optionally in named ladder components (k'^p), (l'^p); the two
    components must fit in G's box, else ValueError).  A G of a kind other
    than U or O raises ValueError."""
    _known_kind(G)
    p, q = G.p, G.q
    if components is not None:
        kk, ll = (_column(c, p) for c in _component(components, "lam;lam", p, q))
        if G.kind == "O" and kk is not None and ll is not None:
            if _o_ladder_in_range(p, q, kk + ll):
                return Verdict(GUARANTEED, "Thm cupO",
                               f"k+l <= (q-2)/2: {kk + ll} <= {(q - 2) / 2}; p+q-2(k+l) = {p + q - 2 * (kk + ll)} >= 5",
                               target_component=pt.as_partition(((kk + ll),) * p))
            return Verdict(NOT_COVERED, "Thm cupO", "outside the proven component range")
    return _degree_verdict("classes", G, None, k + l)


def modular_symbol_verdict(kind: str, p: int, q: int, r: int) -> Verdict:
    """Nontriviality of the modular-symbol class of the (p,q)-subgroup in
    the (p,q+r)-group, and of its strongly primitive projection; r >= 0."""
    if r < 0:
        raise ValueError(f"r = {r} must be >= 0")
    if kind == "O":
        ok = _o_ladder_in_range(p, q - r, 0)
        target = pt.as_partition((r,) * p)
        return Verdict(GUARANTEED if ok else NOT_COVERED, "Thm symbmodul",
                       f"q >= r+2: {q} >= {r + 2}; p+q-r = {p + q - r} >= 5",
                       target_component=target if ok else None)
    if kind == "U":
        ok = q >= r + 2 and p >= 2 and q >= 2
        target = (pt.as_partition((r,) * p), pt.as_partition((q,) * p))
        return Verdict(GUARANTEED if ok else NOT_COVERED, "Thm symbmodulU",
                       f"q >= r+2: {q} >= {r + 2}",
                       target_component=target if ok else None)
    raise ValueError(f"unknown kind {kind!r}")
