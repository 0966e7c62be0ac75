"""Two graph helpers: reachability on bitmask sets, and the
level-by-level closure behind the exact surjectivity check and both side
closures of the fiber-matrix engine; and remember, the one bounded store
of the answers those closures give.

reach decides irreducibility and finds the transition classes of the
class oracle and of the generator's connectivity repair: two nodes share
a class when each reaches the other, so the class of v is what v reaches
forwards intersected with what it reaches backwards.  Its nodes are bit
positions and its successors a stepper over masks.  The closure's
states are arbitrary hashables, their successors computed on demand, and
its levels come in a deterministic order so results are reproducible
across runs.  A closure's answer is kept, by whoever asks, under
everything the closure reads, so equal keys give equal answers; remember
keeps at most MINIMA_KEPT of them per memo, oldest out first.
"""
from __future__ import annotations

from operator import itemgetter

from .errors import ResourceLimit

# answers kept per memo of closure results (fiber._MINIMA, codes._ONTO)
MINIMA_KEPT = 4096


def reach(step, mask, within=-1):
    """Every node reachable from the set mask, the set itself included,
    by walks inside the set within: the fixpoint of mask | step(mask) &
    within.  Sets are bitmasks and step(mask) is the union of the
    successors of mask's members (a shift's step_mask, say)."""
    while True:
        grown = mask | step(mask) & within
        if grown == mask:
            return mask
        mask = grown


def closure(seeds, grow, cap):
    """Level-by-level closure that keeps one word per state.

    seeds are (state, word) pairs of one length, and grow(state, word)
    yields the (state, word) pairs one letter longer, whether it appends
    the letter or prepends it.  Each level is sorted by word before its
    states are kept, so every state keeps the shortlex-least word reaching
    it.  Yields the levels one at a time, each a list of (state, word) in
    word order holding the states first reached there; a level is grown
    only when the caller asks for it.  Raises ResourceLimit, naming the
    level, once more than cap states have been reached.
    """
    seen = set()
    level = list(seeds)
    depth = 0
    while level:
        level.sort(key=itemgetter(1))
        kept = []
        for state, word in level:
            if state not in seen:
                seen.add(state)
                kept.append((state, word))
        depth += 1
        if len(seen) > cap:
            raise ResourceLimit(
                f"closure states exceeded the cap of {cap} at level {depth}"
            )
        yield kept
        level = [
            nxt
            for state, word in kept
            for nxt in grow(state, word)
            if nxt[0] not in seen
        ]


def remember(memo, key, value):
    """memo[key] = value, the oldest entry dropped first once memo holds
    MINIMA_KEPT; returns value.  Store an answer only once its closure
    has completed: one that raised has nothing to keep."""
    if len(memo) >= MINIMA_KEPT:
        del memo[next(iter(memo))]
    memo[key] = value
    return value
