"""Independent answers the benchmark checks every query against.

Two sources, neither of which calls into ``hgptsym``:

- the character formula.  A point-group element is a rotation by an angle
  theta, possibly times the central inversion J.  On degree-l harmonics its
  character is chi_l = (1 + 2 sum_{k<=l} cos k theta) * det^l, so

      dim (harmonics of degree m)^G = <chi_m, 1>
      dim S_pq^G = <chi_p chi_q, 1>                    (p != q)
      dim S_pp^G = 1/2 <chi_p^2 + chi_p(g^2), 1>

  Groups are described here by their multiset of (angle, det) pairs, written
  down from the geometry of each family, not read from the program;
- ``reference.json``: outputs recorded from the program at a known-good
  commit by ``record_reference.py``.
"""

from __future__ import annotations

import json
import math
import os
import re
from collections import Counter
from fractions import Fraction

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# Published fixed-space dimensions of S_pq for the cyclic groups, integer style.
PUBLISHED_DIMS = {
    "C2": {(1, 1): 4, (1, 2): 7, (1, 3): 11, (2, 2): 9},
    "C3": {(1, 1): 2, (1, 2): 5, (1, 3): 7, (2, 2): 5},
    "C4": {(1, 1): 2, (1, 2): 3, (1, 3): 5, (2, 2): 5},
    "C5": {(1, 1): 2, (1, 2): 3, (1, 3): 3, (2, 2): 3},
    "C6": {(1, 1): 2, (1, 2): 3, (1, 3): 3, (2, 2): 3},
}

# Relative tolerance for float coefficients compared with the reference.
COEFF_RTOL = 1e-9


class OracleMismatch(Exception):
    """A program output disagrees with the oracle."""


def _expect(cond, what):
    if not cond:
        raise OracleMismatch(what)


# ---------------------------------------------------------------------------
# groups as (angle, det) multisets; an angle is a Fraction of a full turn
# ---------------------------------------------------------------------------

def _cyclic(n):
    return Counter({(Fraction(k, n) % 1, 1): 1 for k in range(n)})


def _classes(name):
    if name.startswith("type3:"):
        g2, g1 = name[len("type3:"):].split("/", 1)
        big, sub = _classes(g2), _classes(g1)
        coset = big - sub
        _expect(sum(coset.values()) == sum(sub.values()), "%s: not index 2" % name)
        out = Counter(sub)
        for (a, d), m in coset.items():
            out[(a, -d)] += m
        return out
    m = re.fullmatch(r"([CD])(\d+)(i?)|([TOI])(i?)", name)
    if not m:
        raise ValueError("no class data for group %r" % name)
    fam, n, inv = (m.group(1), int(m.group(2)), m.group(3)) if m.group(1) \
        else (m.group(4), 0, m.group(5))
    half = Fraction(1, 2)
    if fam == "C":
        c = _cyclic(n)
    elif fam == "D":
        c = _cyclic(n) + Counter({(half, 1): n})
    elif fam == "T":
        c = Counter({(Fraction(0), 1): 1, (half, 1): 3,
                     (Fraction(1, 3), 1): 4, (Fraction(2, 3), 1): 4})
    elif fam == "O":
        c = Counter({(Fraction(0), 1): 1, (half, 1): 3 + 6,
                     (Fraction(1, 3), 1): 4, (Fraction(2, 3), 1): 4,
                     (Fraction(1, 4), 1): 3, (Fraction(3, 4), 1): 3})
    else:  # I
        c = Counter({(Fraction(0), 1): 1, (half, 1): 15,
                     (Fraction(1, 3), 1): 10, (Fraction(2, 3), 1): 10,
                     (Fraction(1, 5), 1): 6, (Fraction(4, 5), 1): 6,
                     (Fraction(2, 5), 1): 6, (Fraction(3, 5), 1): 6})
    if inv:
        c = c + Counter({(a, -d): k for (a, d), k in c.items()})
    return c


def group_order(name):
    return sum(_classes(name).values())


def _chi(l, turn, det):
    th = 2.0 * math.pi * float(turn)
    return (1.0 + 2.0 * sum(math.cos(k * th) for k in range(1, l + 1))) * det ** l


def _average(name, f):
    c = _classes(name)
    v = sum(m * f(a, d) for (a, d), m in c.items()) / sum(c.values())
    n = round(v)
    if abs(v - n) > 1e-6 or n < 0:
        raise ValueError("character average %.9f for %s is not a count" % (v, name))
    return n


def dim_symmetric_product(name, p, q):
    if p != q:
        return _average(name, lambda a, d: _chi(p, a, d) * _chi(q, a, d))
    return _average(name, lambda a, d: (_chi(p, a, d) ** 2 + _chi(p, 2 * a, 1)) / 2)


def dim_harmonics(name, m):
    return _average(name, lambda a, d: _chi(m, a, d))


# ---------------------------------------------------------------------------
# reference outputs
# ---------------------------------------------------------------------------

def load_reference(path=REFERENCE_PATH):
    with open(path) as f:
        return json.load(f)


def invariants_key(group, p, q, style):
    return "invariants|%s|%d|%d|%s" % (group, p, q, style)


def harmonics_key(group, m):
    return "invariant-harmonics|%s|%d" % (group, m)


def close(a, b, rtol=COEFF_RTOL):
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def pattern_document(pattern):
    """A ``CoefficientPattern`` in the layout of the CLI's JSON document."""
    return {"independent": [list(p) for p in pattern.independent],
            "zero": [list(p) for p in pattern.zero],
            "relations": [{"pair": list(k),
                           "terms": [{"pair": list(pp), "coefficient": float(c)}
                                     for pp, c in v]}
                          for k, v in sorted(pattern.relations.items())]}


def pattern_keys(pattern):
    """The exact part of a pattern document: independent, zero and relation keys."""
    return {"independent": [list(p) for p in pattern["independent"]],
            "zero": [list(p) for p in pattern["zero"]],
            "relations": [[list(r["pair"]), [list(t["pair"]) for t in r["terms"]]]
                          for r in pattern["relations"]]}


def check_pattern(got, want, what):
    _expect(pattern_keys(got) == pattern_keys(want), "%s: pattern keys differ" % what)
    for rg, rw in zip(got["relations"], want["relations"]):
        for tg, tw in zip(rg["terms"], rw["terms"]):
            _expect(close(tg["coefficient"], tw["coefficient"]),
                    "%s: relation coefficient %r, reference %r"
                    % (what, tg["coefficient"], tw["coefficient"]))


def check_invariants_doc(doc, ref, group, p, q, style):
    """Check one ``invariants`` CLI document against both oracles."""
    what = "%s S%d%d %s" % (group, p, q, style)
    res = doc["result"]
    dim = dim_symmetric_product(group, p, q)
    _expect(res["dimension"] == dim,
            "%s: dimension %s, character formula %d" % (what, res["dimension"], dim))
    if style == "integer" and (p, q) in PUBLISHED_DIMS.get(group, {}):
        _expect(dim == PUBLISHED_DIMS[group][(p, q)], "%s: published table differs" % what)
    _expect(len(res["basis"]) == dim, "%s: %d basis elements" % (what, len(res["basis"])))
    want = ref[invariants_key(group, p, q, style)]
    _expect(res["dimension"] == want["dimension"], "%s: reference dimension" % what)
    check_pattern(res["coefficient_pattern"], want["coefficient_pattern"], what)


def check_harmonics_doc(doc, ref, group, m):
    what = "%s harmonics degree %d" % (group, m)
    res = doc["result"]
    dim = dim_harmonics(group, m)
    _expect(res["dimension"] == dim,
            "%s: dimension %s, character formula %d" % (what, res["dimension"], dim))
    _expect(len(res["basis"]) == dim, "%s: basis length" % what)
    _expect(res["dimension"] == ref[harmonics_key(group, m)]["dimension"],
            "%s: reference dimension" % what)
