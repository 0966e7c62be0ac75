"""Small graph helpers used throughout: SCCs, reachability, periods, and
the level-by-level closure behind the exact surjectivity check and both
side closures of the fiber-matrix engine.

Nodes are arbitrary hashables; successor structure is a plain dict
node -> iterable of nodes, except for the closure, whose successors are
computed on demand.  Everything returns deterministic orders so results
are reproducible across runs.
"""
from __future__ import annotations

from collections import deque
from math import gcd
from operator import itemgetter

from .errors import ResourceLimit


def strongly_connected_components(nodes, succ):
    """Tarjan's algorithm, iterative.

    Returns a list of components, each a sorted list of nodes.  The list
    itself is in reverse topological order of the condensation (a component
    appears before the components it reaches).
    """
    order = list(nodes)
    index = {}
    low = {}
    on_stack = set()
    stack = []
    components = []
    counter = 0

    for root in order:
        if root in index:
            continue
        work = [(root, iter(succ.get(root, ())))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(succ.get(nxt, ()))))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    top = stack.pop()
                    on_stack.discard(top)
                    comp.append(top)
                    if top == node:
                        break
                components.append(sorted(comp))
    # reverse topological: components found later can reach earlier ones,
    # so flip to get "appears before what it reaches"
    components.reverse()
    return components


def reachable_from(starts, succ):
    """Set of nodes reachable from any start, including the starts."""
    seen = set(starts)
    queue = deque(seen)
    while queue:
        node = queue.popleft()
        for nxt in succ.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


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


def component_period(component, succ):
    """gcd of cycle lengths through a strongly connected component.

    component must be strongly connected within succ (edges leaving the
    component are ignored).  Returns 0 for a single node with no self loop,
    otherwise the period of the component.
    """
    members = set(component)
    start = component[0]
    level = {start: 0}
    queue = deque([start])
    g = 0
    while queue:
        node = queue.popleft()
        for nxt in succ.get(node, ()):
            if nxt not in members:
                continue
            if nxt in level:
                g = gcd(g, level[node] + 1 - level[nxt])
            else:
                level[nxt] = level[node] + 1
                queue.append(nxt)
    return abs(g)


def has_cycle(component, succ):
    """True when the strongly connected component carries at least one cycle,
    i.e. it has more than one node or a self loop."""
    if len(component) > 1:
        return True
    node = component[0]
    return node in succ.get(node, ())
