"""Routing depth of blocks and class degrees of codes.

The central question: given a codomain block w, how small can a set M of
domain symbols be so that, at some position n, every preimage of w can be
rerouted through M?  Rerouting a preimage u means finding a witness block v
in the relevant fiber with the same first and last symbol as u and with
v|_n in M.  The depth of w is the smallest such |M|; minimising over all
blocks gives the class degree of the code.

In the relative flavour, attached to a composition phi then psi, the
preimages u run over the phi-fiber of w but the witnesses v may use the
larger fiber of the composite over psi(w).  This asymmetry is essential
and deliberately not collapsed.

All reachability is done on the layered fiber graph with bitmask layers:
a routing set R_n(s, t) = (forward set of s at n) & (backward set of t at
n) lists the symbols through which some witness from s to t passes at
position n.  w is presented through M at n exactly when M hits every
routing set of an occurring endpoint pair, so the depth of w is a minimum
hitting set size, found exhaustively in increasing size order.

Class degrees are exact.  Split w at n into u = w[1..n] and v = w[n..];
with fiber matrices A = P_u and B = P_v the routing set of (s, t) is
{m : m in A[s], t in B[m]}, so the depth at n is fixed by the pair (A, B).
The fiber-matrix closure of fiber.py minimises that over every reachable
pair, and the block it returns replays as a routing certificate.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .core import Block, DEFAULT_CAP, is_irreducible, is_point_of, iter_bits
from .errors import EmptyFiber, InvalidBlock, PreconditionUnmet, UnknownSymbol
from .fiber import _block_walk, _check_word, _closure_minimum, _walk, iter_fiber, pruned_layers


class _Reach:
    """Per-start forward sets and per-end backward sets over the pruned
    layers of one word's fiber."""

    __slots__ = ("code", "layers", "fs", "bs")

    def __init__(self, code, word):
        self.code = code
        self.layers = pruned_layers(code, word)
        self.fs = {}
        self.bs = {}
        if self.layers is None:
            return
        dom = code.domain
        n = len(word)
        for s in iter_bits(self.layers[0]):
            hist = [1 << s]
            for i in range(1, n):
                hist.append(dom.step_mask(hist[-1]) & self.layers[i])
            self.fs[s] = hist
        for t in iter_bits(self.layers[-1]):
            hist = [0] * n
            hist[-1] = 1 << t
            for i in range(n - 2, -1, -1):
                hist[i] = dom.step_mask_back(hist[i + 1]) & self.layers[i]
            self.bs[t] = hist

    @property
    def empty(self):
        return self.layers is None

    def endpoints(self):
        return [
            (s, t) for s, hist in self.fs.items() for t in iter_bits(hist[-1])
        ]

    def route(self, n, s, t):
        return self.fs[s][n - 1] & self.bs[t][n - 1]

    def lex_path_through(self, s, m, t, n):
        """Least complete path (by symbol index) from s through m at
        position n to t, or None when no such path exists."""
        dom = self.code.domain
        head = _least_path(dom, s, m, self.layers[:n])
        if head is None:
            return None
        tail = _least_path(dom, m, t, self.layers[n - 1 :])
        return None if tail is None else head + tail[1:]


def _least_path(domain, s, t, layers):
    """Least path (by symbol index) from s to t whose i-th symbol lies in
    layers[i], or None when there is none."""
    toward = [0] * len(layers)
    toward[-1] = layers[-1] & (1 << t)
    for i in range(len(layers) - 2, -1, -1):
        toward[i] = domain.step_mask_back(toward[i + 1]) & layers[i]
    if not (toward[0] >> s) & 1:
        return None
    path = [s]
    for mask in toward[1:]:
        path.append(next(iter_bits(domain.succ_masks[path[-1]] & mask)))
    return tuple(path)


def _hitting_set(family, k):
    """Least k-symbol mask, in combination order, meeting every routing
    set of family, or None when there is none."""
    if k == 1:
        inter = -1
        for r in family:
            inter &= r
        return inter & -inter or None
    union = 0
    for r in family:
        union |= r
    for combo in combinations(iter_bits(union), k):
        mask = 0
        for i in combo:
            mask |= 1 << i
        if all(r & mask for r in family):
            return mask
    return None


def _depth_search(e_pairs, fs, bs, length):
    """Minimum hitting set over the routing families of every position.

    Returns (size, position, mask) with the smallest size, breaking ties
    towards the smallest position and then the lexicographically least
    symbol set.
    """
    families = []
    for n in range(1, length + 1):
        family = {fs[s][n - 1] & bs[t][n - 1] for s, t in e_pairs}
        mask = _hitting_set(family, 1)
        if mask:
            return 1, n, mask
        families.append(family)
    for k in range(2, min(map(len, families)) + 1):
        for n0, family in enumerate(families):
            mask = _hitting_set(family, k)
            if mask:
                return k, n0 + 1, mask
    raise AssertionError("hitting set search must succeed")


@dataclass(frozen=True)
class RoutingCertificate:
    """Witness that w is presented through M at position n: for every
    preimage u a fiber block v with matching endpoints and v|_n in M."""

    w: Block
    n: int
    M: tuple
    witnesses: tuple  # pairs (u, v)
    mode: str

    def __bool__(self):
        return True

    def witness_for(self, u):
        for a, b in self.witnesses:
            if a == u:
                return b
        return None


@dataclass(frozen=True)
class RoutingRefusal:
    w: Block
    n: int
    M: tuple
    blocking: Block
    reason: str

    def __bool__(self):
        return False


@dataclass(frozen=True)
class DepthResult:
    w: Block
    value: int
    certificate: RoutingCertificate


@dataclass(frozen=True)
class DegreeEstimate:
    value: int
    scanned_length: int
    certified: bool
    minimal_block: Block


def _mask_of(code, M):
    mask = 0
    for s in M:
        mask |= 1 << code.domain.alphabet.index(s)
    return mask


def _routing_outcome(u_code, u_layers, wit, w, M, n, mode, cap):
    """Shared core of the presentation checks: route every u-fiber path
    through M at n inside the witness reach, or name a blocker."""
    if not 1 <= n <= len(w):
        raise InvalidBlock(f"position {n} outside 1..{len(w)}")
    m_sorted = tuple(sorted(M, key=u_code.domain.alphabet.index))
    m_mask = _mask_of(u_code, m_sorted)
    symbols = u_code.domain.alphabet.symbols
    witnesses = []
    cache = {}
    for path in iter_fiber(u_code, u_layers, cap):
        key = (path[0], path[-1])
        v = cache.get(key)
        if v is None:
            routable = wit.route(n, path[0], path[-1]) & m_mask
            if routable == 0:
                u = Block(tuple(symbols[i] for i in path))
                return RoutingRefusal(
                    w,
                    n,
                    m_sorted,
                    u,
                    "no fiber block with these endpoints passes through M "
                    f"at position {n}",
                )
            through = next(iter_bits(routable))
            v = wit.lex_path_through(path[0], through, path[-1], n)
            cache[key] = v
        witnesses.append(
            (
                Block(tuple(symbols[i] for i in path)),
                Block(tuple(symbols[i] for i in v)),
            )
        )
    return RoutingCertificate(w, n, m_sorted, tuple(witnesses), mode)


def is_presented(code, w, M, n, cap=DEFAULT_CAP):
    """Certificate or refusal for routing w's own fiber through M at n."""
    word = _check_word(code, w)
    for s in M:
        if s not in code.domain.alphabet:
            raise UnknownSymbol(f"symbol {s!r} not in domain alphabet")
    wit = _Reach(code, word)
    if wit.empty:
        raise EmptyFiber(f"{w.text()!r} has no preimage")
    return _routing_outcome(code, wit.layers, wit, w, M, n, "absolute", cap)


def depth(code, w, cap=DEFAULT_CAP):
    """Smallest |M| presenting w at some position, with a certificate."""
    word = _check_word(code, w)
    wit = _Reach(code, word)
    if wit.empty:
        raise EmptyFiber(f"{w.text()!r} has no preimage")
    size, n, mask = _depth_search(wit.endpoints(), wit.fs, wit.bs, len(word))
    symbols = code.domain.alphabet.symbols
    M = tuple(symbols[i] for i in iter_bits(mask))
    cert = _routing_outcome(code, wit.layers, wit, w, M, n, "absolute", cap)
    assert isinstance(cert, RoutingCertificate)
    return DepthResult(w, size, cert)


def relative_is_presented(triple, w, M, n, cap=DEFAULT_CAP):
    """Like is_presented, but preimages run over the phi-fiber of w while
    witnesses may use the whole composite fiber over psi(w)."""
    word = _check_word(triple.phi, w)
    for s in M:
        if s not in triple.X.alphabet:
            raise UnknownSymbol(f"symbol {s!r} not in domain alphabet")
    u_layers = pruned_layers(triple.phi, word)
    if u_layers is None:
        raise EmptyFiber(f"{w.text()!r} has no phi-preimage")
    wit = _Reach(triple.pi, triple.psi_word(word))
    return _routing_outcome(triple.phi, u_layers, wit, w, M, n, "relative", cap)


def relative_depth(triple, w, cap=DEFAULT_CAP):
    word = _check_word(triple.phi, w)
    u_reach = _Reach(triple.phi, word)
    if u_reach.empty:
        raise EmptyFiber(f"{w.text()!r} has no phi-preimage")
    wit = _Reach(triple.pi, triple.psi_word(word))
    size, n, mask = _depth_search(u_reach.endpoints(), wit.fs, wit.bs, len(word))
    symbols = triple.X.alphabet.symbols
    M = tuple(symbols[i] for i in iter_bits(mask))
    cert = _routing_outcome(triple.phi, u_reach.layers, wit, w, M, n, "relative", cap)
    assert isinstance(cert, RoutingCertificate)
    return DepthResult(w, size, cert)


@lru_cache(maxsize=None)
def _scan_preconditions(code):
    from .codes import check_onto

    if not is_irreducible(code.domain):
        raise PreconditionUnmet("domain is not irreducible")
    if code.codomain is not None:
        onto = check_onto(code, code.codomain)
        if not onto.ok:
            raise PreconditionUnmet(
                f"code is not onto its codomain: {onto.missing_block.text()!r} "
                "has no preimage"
            )
    return True


def _transpose(rows):
    cols = [0] * len(rows)
    for m, row in enumerate(rows):
        for t in iter_bits(row):
            cols[t] |= 1 << m
    return cols


def _closure_degree(seeds, successors, alphabet, cap):
    """Exact minimum depth over the fiber-matrix closure.  Endpoint pairs
    come from a state's first matrix, routing sets from its last, so one
    matrix per state gives absolute depth and a (phi, pi) pair gives
    relative depth."""
    columns = {}

    def score(a, b, limit):
        cols = columns.get(b)
        if cols is None:
            cols = columns[b] = _transpose(b[-1])
        ends_b, routes_a = b[2], a[-1]
        family = set()
        for s, row in enumerate(a[2]):
            if row:
                ends = 0
                for m in iter_bits(row):
                    ends |= ends_b[m]
                for t in iter_bits(ends):
                    family.add(routes_a[s] & cols[t])
        if not family:
            return None
        bound = len(family) if limit is None else min(len(family), limit)
        for k in range(1, bound + 1):
            if _hitting_set(family, k):
                return k
        return None

    found = _closure_minimum(seeds, successors, score, cap)
    if found is None:
        return None
    value, word, _, depth = found
    return DegreeEstimate(value, depth, True, Block(tuple(alphabet[i] for i in word)))


def class_degree(code, max_len, cap=DEFAULT_CAP):
    """Minimum depth over all codomain blocks, exactly, with the shortest
    (then lexicographically least) block attaining it.

    The closure either finishes, and the estimate is certified, or raises
    ResourceLimit past cap states.  max_len is only checked to be
    positive; scanned_length is the closure depth.
    """
    if max_len < 1:
        raise InvalidBlock("max_len must be positive")
    _scan_preconditions(code)
    letters = code.codomain_alphabet.symbols
    est = _closure_degree(*_block_walk(((code, letters),)), letters, cap)
    if est is None:
        raise EmptyFiber("the code has an empty image language")
    return est


def relative_class_degree(triple, max_len, cap=DEFAULT_CAP):
    """Minimum relative depth over all blocks of Y, exactly: the closure
    runs over pairs (P^phi_w, P^pi_psi(w)), with the same certification
    and max_len rules as class_degree."""
    if max_len < 1:
        raise InvalidBlock("max_len must be positive")
    letters = triple.phi.codomain_alphabet.symbols
    tracks = ((triple.phi, letters), (triple.pi, triple.psi_word(letters)))
    est = _closure_degree(*_block_walk(tracks), letters, cap)
    if est is None:
        raise EmptyFiber("phi has an empty image language")
    return est


def periodic_point_relative_degree(triple, y, max_len, cap=DEFAULT_CAP):
    """Minimum relative depth over the blocks occurring in the periodic
    point y, exactly: the closure walks the cycle of y, keeping the phases
    of a block's ends in its state.  max_len is only checked to be
    positive."""
    if max_len < 1:
        raise InvalidBlock("max_len must be positive")
    if not is_point_of(triple.Y, y):
        raise PreconditionUnmet(f"{y.text()} is not a point of Y")
    cycle = y.cycle.symbols
    period = len(cycle)
    tracks = ((triple.phi, cycle), (triple.pi, triple.psi_word(cycle)))
    labels = [triple.Y.alphabet.index(s) for s in cycle]
    seeds, successors = _walk(tracks, labels, lambda p: ((p + 1) % period,))

    def forced(state):
        nxt = list(successors(state))
        if not nxt:
            raise EmptyFiber(f"a block of {y.text()} has no phi-preimage")
        return nxt

    if len(seeds) < period:
        raise EmptyFiber(f"a block of {y.text()} has no phi-preimage")
    return _closure_degree(seeds, forced, triple.Y.alphabet.symbols, cap)


def verify_certificate(subject, cert):
    """Mechanically replay a routing certificate against a code (absolute
    mode) or a triple (relative mode).  True when every preimage is
    covered and every witness is a fiber block with matching endpoints
    passing through M at n."""
    from .codes import CodeTriple

    if cert.mode == "relative":
        if not isinstance(subject, CodeTriple):
            return False
        u_code, wit_code = subject.phi, subject.pi
        wit_word = subject.psi_word(cert.w.symbols)
    else:
        u_code, wit_code = subject, subject
        wit_word = cert.w.symbols
    u_layers = pruned_layers(u_code, cert.w.symbols)
    if u_layers is None:
        return False
    idx = u_code.domain.alphabet.index
    expected = {
        tuple(path) for path in iter_fiber(u_code, u_layers)
    }
    got = {tuple(idx(s) for s in u.symbols) for u, _ in cert.witnesses}
    if expected != got:
        return False
    wit_layers = pruned_layers(wit_code, wit_word)
    if wit_layers is None:
        return False
    n = cert.n
    m_set = set(cert.M)
    for u, v in cert.witnesses:
        if len(v) != len(cert.w):
            return False
        vpath = tuple(idx(s) for s in v.symbols)
        for i, b in enumerate(vpath):
            if not (wit_layers[i] >> b) & 1:
                return False
        for a, b in zip(vpath, vpath[1:]):
            if not (u_code.domain.succ_masks[a] >> b) & 1:
                return False
        if v.symbols[0] != u.symbols[0] or v.symbols[-1] != u.symbols[-1]:
            return False
        if v.symbols[n - 1] not in m_set:
            return False
    return True
