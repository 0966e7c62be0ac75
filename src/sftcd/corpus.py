"""Builtin example triples used by tests, the CLI, and the harness.

xor2 and mod3 start from the additive sliding rule x_i + x_{i+1} on a
full shift and go through the generic recoding path, so the builtin
corpus also exercises the window-shift construction.  The golden pair
uses the path shift on {0, 1} with 11 forbidden.
"""
from __future__ import annotations

from functools import lru_cache

from .codes import (
    CodeTriple,
    SlidingBlockCode,
    identity_code,
    recode_to_one_block,
    trivial_code,
)
from .core import VertexShift
from .errors import ParseError

BUILTIN_NAMES = ("xor2", "mod3", "golden_identity", "golden_trivial")

# headline degree quadruples, frozen from hand analysis of each example
BUILTIN_EXPECTED = {
    "xor2": {"phi": 2, "psi": 1, "pi": 1, "relative": 1},
    "mod3": {"phi": 3, "psi": 1, "pi": 1, "relative": 1},
    "golden_identity": {"phi": 1, "psi": 1, "pi": 1, "relative": 1},
    "golden_trivial": {"phi": 1, "psi": 1, "pi": 1, "relative": 1},
}


@lru_cache(maxsize=None)
def additive_recoding(n):
    """Window recoding of the rule x_i + x_{i+1} mod n on the full
    n-shift: the domain becomes the shift on overlapping 2-blocks."""
    symbols = tuple(str(i) for i in range(n))
    base = VertexShift.full_shift(symbols)
    rule = {
        (a, b): str((int(a) + int(b)) % n) for a in symbols for b in symbols
    }
    sliding = SlidingBlockCode.from_dict(base, base.alphabet, 0, 1, rule, base)
    return recode_to_one_block(sliding)


def golden_shift():
    return VertexShift.build(("0", "1"), [("0", "0"), ("0", "1"), ("1", "0")])


@lru_cache(maxsize=None)
def builtin_triple(name) -> CodeTriple:
    if name == "xor2":
        phi = additive_recoding(2).code
        return CodeTriple.build(phi, trivial_code(phi.codomain))
    if name == "mod3":
        phi = additive_recoding(3).code
        return CodeTriple.build(phi, trivial_code(phi.codomain))
    if name == "golden_identity":
        g = golden_shift()
        return CodeTriple.build(identity_code(g), identity_code(g))
    if name == "golden_trivial":
        g = golden_shift()
        return CodeTriple.build(identity_code(g), trivial_code(g))
    raise ParseError(f"unknown builtin triple {name!r}")

