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
and deliberately not collapsed.  The absolute flavour is the relative one
over a one-to-one psi: u and v share one fiber.  _codes_of names, for
each mode, the code of u (the u-code), the code of v (the witness code)
and the map from w to the word v spells; every function here and in
bridge.py runs one body for both modes on those three.

All reachability is done on the layered fiber graph with bitmask layers:
a routing set R_n(s, t) = (forward set of s at n) & (backward set of t at
n) lists the symbols through which some witness from s to t passes at
position n.  w is presented through M at n exactly when M hits every
routing set of an occurring endpoint pair, so the depth of w is a minimum
hitting set size.  One driver, _min_hitting_set, finds every such
minimum: it scores a block's positions here exactly as it scores the
splits of the side closures below, and names the least mask.

Class degrees are exact.  Split w at n into u = w[1..n] and v = w[n..];
with fiber matrices A = P_u and B = P_v, (s, t) is an endpoint pair when
row s of A meets column t of B, and its routing set is their
intersection.  So the depth at n is fixed by the set of A's nonzero rows
and the set of B's nonzero columns: u's left side and v's right side.
The side closures of fiber.py reach every such pair, each pair's routing
family is one set comprehension, scored once, and the block attaining
the minimum replays as a routing certificate.  Depth is never below 1,
so the closures grow only until a depth-1 pair turns up, or to their
end when the minimum is larger.  Once a depth of 2 is found, the pairs
after it are asked only whether they score 1: one symbol lying in every
routing set, that is, a nonzero intersection.  Such a pair's sets are
intersected as they are made, with no family collected, and the first
set that empties the intersection ends the score.  Every mask step is a
core.stepper.

A certificate lists one witness per endpoint pair, not per preimage:
rerouting u asks only for a witness with u's first and last symbols, so
every preimage with endpoints (s, t) shares the one v listed for (s, t).
Making it walks the endpoint pairs depth has already computed and never
lists the fiber; preimages() spells the (u, v) pairs out for callers who
want them.  Each v is _Reach.lex_path_through's least path through the
least usable symbol of M, the search bridge.py also asks for the blocks
it splices.  Its head is read off a backward sweep toward that symbol at
n: one sweep per routing symbol (and position) on a reach, shared by
every endpoint pair routed through it.  verify_certificate replays a
certificate by checking each listed (s, t, v) once, that v spells w's
image in the witness fiber from s to t through M at n, and that the
listed pairs are exactly the u-fiber's endpoint pairs, read off one
forward sweep per start symbol; so it covers every preimage without
enumerating any.
"""
from __future__ import annotations

from dataclasses import dataclass

from .codes import CodeTriple, OneBlockCode, check_onto
from .core import Block, DEFAULT_CAP, is_irreducible, is_point_of, iter_bits
from .errors import EmptyFiber, InvalidBlock, PreconditionUnmet, UnknownSymbol
from .fiber import (
    _letter_masks,
    _side_minimum,
    _sweep,
    forward_layers,
    iter_fiber,
    pruned_layers,
)


class _Reach:
    """Per-start forward sets and per-end backward sets over the pruned
    layers of one word's fiber, for the start symbols in the mask starts
    and the end symbols in the mask ends (default: all of them).  A
    relative reach is built on pi's fiber over psi(w) but needs only the
    endpoints of w's phi-fiber: a phi-preimage of w is a pi-preimage of
    psi(w), so every endpoint pair a certificate routes stays covered.
    lex_path_through keeps its backward sweeps toward routing symbols in
    to_m, one per (symbol, position)."""

    __slots__ = ("code", "layers", "fs", "bs", "to_m")

    def __init__(self, code, word, starts=-1, ends=-1):
        self.code = code
        self.layers = layers = pruned_layers(code, word)
        self.fs = {}
        self.bs = {}
        self.to_m = {}
        if layers is None:
            return
        self.fs = _forward_sets(code.domain, layers, starts)
        self.bs = {
            t: _toward(code.domain, t, layers) for t in iter_bits(layers[-1] & ends)
        }

    def route(self, n, s, t):
        return self.fs[s][n - 1] & self.bs[t][n - 1]

    def lex_path_through(self, s, m, t, n):
        """Least complete path (by symbol index) from s through m at
        position n to t, or None when no such path exists.  The head up
        to m is the least successor, at each step, within the symbols
        that still reach m at n (a sweep made once per (m, n) and shared
        by every pair routed there); the tail after m the least within
        bs[t], the symbols that still reach t."""
        toward_t = self.bs.get(t)
        if toward_t is None or not (toward_t[n - 1] >> m) & 1:
            return None
        toward_m = self.to_m.get((m, n))
        if toward_m is None:
            toward_m = self.to_m[m, n] = _toward(self.code.domain, m, self.layers[:n])
        if not (toward_m[0] >> s) & 1:
            return None
        succ = self.code.domain.succ_masks
        return _extend_least(succ, [s], toward_m[1:] + toward_t[n:])


def _extend_least(succ, path, masks):
    """path extended by the least successor within each of masks."""
    for mask in masks:
        nxt = succ[path[-1]] & mask
        path.append((nxt & -nxt).bit_length() - 1)
    return tuple(path)


def _toward(domain, t, layers):
    """The symbols of each of layers that reach t in the last one."""
    return _sweep(domain.step_mask_back, layers[-1] & (1 << t), layers[-2::-1])[::-1]


def _least_path(domain, s, t, layers):
    """Least path (by symbol index) from s to t whose i-th symbol lies in
    layers[i], or None when there is none."""
    toward = _toward(domain, t, layers)
    if not (toward[0] >> s) & 1:
        return None
    return _extend_least(domain.succ_masks, [s], toward[1:])


def _forward_sets(domain, layers, starts=-1):
    """{s: the symbols of each layer reachable from s} for s in layers[0]
    and in the mask starts."""
    step, ahead = domain.step_mask, layers[1:]
    return {s: _sweep(step, 1 << s, ahead) for s in iter_bits(layers[0] & starts)}


def _endpoint_pairs(fs):
    """(s, t) for every fiber path from s to t, given its forward sets."""
    return [(s, t) for s, hist in fs.items() for t in iter_bits(hist[-1])]


def _hitting_set(family, k, allowed=None):
    """Least k-symbol mask, in combination order, meeting every routing
    set of family, or None when there is none; allowed (default: the
    union of family) bounds the symbols it may use.

    One symbol hits them all when it lies in their intersection, which
    is read in one pass over family, stopping at the first set that
    empties it; so at k = 1 family may be any iterable.  Combinations
    starting with symbol i come before those starting with a larger one,
    and the rest of such a combination only has to meet the sets that
    miss i, so the search recurses on those.  It gives up once fewer
    than k symbols are left or some set has none of them."""
    if k == 1:
        family = iter(family)
        inter = next(family, 0) if allowed is None else allowed
        for r in family:
            inter &= r
            if not inter:
                return None
        return inter & -inter or None
    if allowed is None:
        allowed = 0
        for r in family:
            allowed |= r
    while allowed.bit_count() >= k and all(r & allowed for r in family):
        low = allowed & -allowed
        allowed ^= low
        mask = _hitting_set([r for r in family if not r & low], k - 1, allowed)
        if mask:
            return low | mask
    return None


def _depth_search(e_pairs, fs, bs, length):
    """Minimum hitting set over the routing families of every position.

    Positions are scored by _min_hitting_set under the limit rule of
    _closure_minimum's splits: once some position scores, a later one
    must score strictly less, so a family equal to the one before it,
    scored under a limit no lower, is skipped.  Returns (size, position,
    mask) with the smallest size, then the smallest position, then the
    least symbol set in combination order.
    """
    best = limit = family = None
    for n in range(1, length + 1):
        previous, family = family, {fs[s][n - 1] & bs[t][n - 1] for s, t in e_pairs}
        if family == previous:
            continue
        mask = _min_hitting_set(family, limit)
        if mask:
            best = mask.bit_count(), n, mask
            if best[0] == 1:
                break
            limit = best[0] - 1
    return best


@dataclass(frozen=True)
class RoutingCertificate:
    """Witness that w is presented through M at position n.

    witnesses holds one (s, t, v) per endpoint pair (s, t) of w's u-fiber
    (the fiber of w in absolute mode, of w under phi in relative mode),
    in _endpoint_pairs order: s and t are domain symbols and v is a
    witness-fiber block from s to t with v|_n in M.  Every preimage u runs
    from some listed s to its t, so the pair's v reroutes it;
    preimages() lists the (u, v) pairs this covers."""

    w: Block
    n: int
    M: tuple
    witnesses: tuple  # triples (s, t, v)
    mode: str

    def __bool__(self):
        return True


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


def _mask_of(alphabet, M):
    """Bitmask of the routing symbols M; UnknownSymbol for a foreign one."""
    mask = 0
    for s in M:
        if s not in alphabet:
            raise UnknownSymbol(f"symbol {s!r} not in domain alphabet")
        mask |= 1 << alphabet.index(s)
    return mask


def _routing_outcome(fiber, w, m_mask, n, mode):
    """Shared core of the presentation checks: route every endpoint pair
    of the u-fiber through the symbols of m_mask at n inside the witness
    reach, or name a blocker: the least u-fiber path among the pairs that
    do not route, so the first such path in iter_fiber order.  fiber is
    _routing's (u-domain, u-layers, endpoint pairs, witness reach)."""
    u_domain, u_layers, e_pairs, wit = fiber
    if not 1 <= n <= len(w):
        raise InvalidBlock(f"position {n} outside 1..{len(w)}")
    spell = u_domain.alphabet.symbols.__getitem__
    m_sorted = tuple(map(spell, iter_bits(m_mask)))
    witnesses = []
    blocked = []
    for s, t in e_pairs:
        routable = wit.route(n, s, t) & m_mask
        if not routable:
            blocked.append((s, t))
        elif not blocked:
            through = (routable & -routable).bit_length() - 1
            v = wit.lex_path_through(s, through, t, n)
            witnesses.append((spell(s), spell(t), Block(tuple(map(spell, v)))))
    if blocked:
        path = min(_least_path(u_domain, s, t, u_layers) for s, t in blocked)
        return RoutingRefusal(
            w,
            n,
            m_sorted,
            Block(tuple(map(spell, path))),
            f"no fiber block with these endpoints passes through M at position {n}",
        )
    return RoutingCertificate(w, n, m_sorted, tuple(witnesses), mode)


def _codes_of(subject, mode):
    """(u-code, witness code, map from a u-word to the witness word) of
    mode on subject: the one place that says what a mode means.

    Relative mode on a triple routes w's phi-fiber through pi's fiber
    over psi(w).  Absolute mode is relative mode over a one-to-one psi:
    a code's fiber routes through itself, a triple's code being pi.
    PreconditionUnmet for any other subject or mode."""
    if mode == "relative" and isinstance(subject, CodeTriple):
        return subject.phi, subject.pi, subject.psi_word
    code = subject.pi if isinstance(subject, CodeTriple) else subject
    if mode != "absolute" or not isinstance(code, OneBlockCode):
        kind = type(subject).__name__
        raise PreconditionUnmet(f"{mode!r} mode has no codes for a {kind}")
    return code, code, tuple  # words are tuples: tuple returns one unchanged


def _routing(subject, w, mode, M=()):
    """((u-domain, u-fiber layers, their endpoint pairs, witness reach),
    mask of M) for w in mode.  A witness reach on another code is built
    for the u-fiber's endpoints only; an absolute reach is its own
    u-fiber."""
    u_code, wit_code, to_wit = _codes_of(subject, mode)
    word = tuple(w.symbols)
    if wit_code is u_code:
        wit = _Reach(u_code, word)
        u_layers, fs = wit.layers, wit.fs
    else:
        u_layers = pruned_layers(u_code, word)
        fs = u_layers and _forward_sets(u_code.domain, u_layers)
        wit = u_layers and _Reach(wit_code, to_wit(word), u_layers[0], u_layers[-1])
    m_mask = _mask_of(u_code.domain.alphabet, M)
    if u_layers is None:
        what = "preimage" if wit_code is u_code else "phi-preimage"
        raise EmptyFiber(f"{w.text()!r} has no {what}")
    return (u_code.domain, u_layers, _endpoint_pairs(fs), wit), m_mask


def _is_presented(subject, w, M, n, mode):
    fiber, m_mask = _routing(subject, w, mode, M)
    return _routing_outcome(fiber, w, m_mask, n, mode)


def _depth(subject, w, mode):
    fiber, _ = _routing(subject, w, mode)
    _, _, e_pairs, wit = fiber
    size, n, mask = _depth_search(e_pairs, wit.fs, wit.bs, len(w))
    cert = _routing_outcome(fiber, w, mask, n, mode)
    assert isinstance(cert, RoutingCertificate)
    return DepthResult(w, size, cert)


def is_presented(code, w, M, n):
    """Certificate or refusal for routing w's own fiber through M at n."""
    return _is_presented(code, w, M, n, "absolute")


def depth(code, w):
    """Smallest |M| presenting w at some position, with a certificate."""
    return _depth(code, w, "absolute")


def relative_is_presented(triple, w, M, n):
    """Like is_presented, but preimages run over the phi-fiber of w while
    witnesses may use the whole composite fiber over psi(w)."""
    return _is_presented(triple, w, M, n, "relative")


def relative_depth(triple, w):
    return _depth(triple, w, "relative")


def _scan_preconditions(code):
    if not is_irreducible(code.domain):
        raise PreconditionUnmet("domain is not irreducible")
    if code.codomain is not None:
        onto = check_onto(code, code.codomain)
        if not onto.ok:
            raise PreconditionUnmet(
                f"code is not onto its codomain: {onto.missing_block.text()!r} "
                "has no preimage"
            )


def _min_hitting_set(family, limit):
    """Least mask, in combination order, among the smallest hitting sets
    of family when those have at most limit symbols (None: no limit),
    otherwise None.  Routing sets are never empty, so one symbol of each
    hits them all and len(family) symbols always suffice.  At limit 1
    only _hitting_set's one pass reads family, so it may be an iterator
    there (an empty one has no hitting set either)."""
    if family:
        for k in range(1, (limit or len(family)) + 1):
            mask = _hitting_set(family, k)
            if mask:
                return mask
    return None


def _routing_score(rows, cols, limit):
    """Depth at a split, from the left side's rows and the right side's
    columns: (s, t) is an endpoint pair when first-track row s meets
    first-track column t, and its routing set is the last-track row s &
    the last-track column t.  At limit 1 the routing sets are not
    collected: _hitting_set intersects them as they come and stops at
    the first that leaves no symbol."""
    family = (r[-1] & c[-1] for r in rows for c in cols if r[0] & c[0])
    mask = _min_hitting_set(family if limit == 1 else set(family), limit)
    return None if mask is None else mask.bit_count()


def _least_depth(subject, mode, cap, cycle=None):
    """The estimate of the least depth in mode over every block of the
    u-code's codomain, or over the blocks of a periodic point's cycle;
    None when no block has a u-preimage.  The side closures carry the
    u-code's fiber matrices over a word and the witness code's over its
    witness word: endpoint pairs come from the first track and routing
    sets from the last, so the two give relative depth.  In absolute
    mode the tracks are equal and _side_minimum keeps one."""
    u_code, wit_code, to_wit = _codes_of(subject, mode)
    alphabet = u_code.codomain_alphabet.symbols
    letters = alphabet if cycle is None else cycle
    labels = range(len(alphabet)) if cycle is None else map(alphabet.index, cycle)
    tracks = (_letter_masks(u_code, letters), _letter_masks(wit_code, to_wit(letters)))
    found = _side_minimum(
        u_code.domain, tracks, labels, cycle is not None, _routing_score, cap
    )
    if found is None:
        return None
    value, word, _, depth = found
    return DegreeEstimate(value, depth, True, Block(tuple(alphabet[i] for i in word)))


def class_degree(code, max_len=None, cap=DEFAULT_CAP):
    """Minimum depth over all codomain blocks, exactly, with the shortest
    (then lexicographically least) block attaining it.

    The side closures grow one level per block length scored until the
    minimum is proved: at a block of depth 1, or when both are complete.
    Either way the estimate is certified; a closure that passes cap
    sides first raises ResourceLimit.  scanned_length is the larger
    number of levels grown in the two side closures, at most the block's
    length when the value is 1.  max_len is neither read nor checked: it
    stays only for callers that still pass a scan length positionally.
    """
    _scan_preconditions(code)
    est = _least_depth(code, "absolute", cap)
    if est is None:
        raise EmptyFiber("the code has an empty image language")
    return est


def relative_class_degree(triple, max_len=None, cap=DEFAULT_CAP):
    """Minimum relative depth over all blocks of Y, exactly: the sides
    carry rows and columns of (P^phi_w, P^pi_psi(w)), with the same
    stopping, certification, cap and scanned_length rules as
    class_degree, and the same unread max_len slot."""
    est = _least_depth(triple, "relative", cap)
    if est is None:
        raise EmptyFiber("phi has an empty image language")
    return est


def periodic_point_relative_degree(triple, y, max_len=None, cap=DEFAULT_CAP):
    """Minimum relative depth over the blocks occurring in the periodic
    point y, exactly: the side closures walk the cycle of y, a side
    keeping the phase of its end, and stop as class_degree's do.
    EmptyFiber when a block of y has no phi-preimage.  max_len is unread,
    as in class_degree."""
    if not is_point_of(triple.Y, y):
        raise PreconditionUnmet(f"{y.text()} is not a point of Y")
    cycle = y.cycle.symbols
    # a path through |X| + 1 turns of the cycle repeats a (phase, symbol)
    # pair, so it exists exactly when y, and with it every block of y,
    # has a phi-preimage
    if forward_layers(triple.phi, cycle * (len(triple.X.alphabet) + 1)) is None:
        raise EmptyFiber(f"a block of {y.text()} has no phi-preimage")
    return _least_depth(triple, "relative", cap, cycle)


def _spells(code, word, block):
    """Whether block is a path of code's domain whose image is word."""
    path = block.symbols
    return tuple(map(code.symbol_map.get, path)) == word and all(
        map(code.domain.allowed.__contains__, zip(path, path[1:]))
    )


def verify_certificate(subject, cert):
    """Mechanically replay a routing certificate against a code (absolute
    mode) or a triple (relative mode).  True when the listed (s, t) are
    exactly the endpoint pairs of w's u-fiber, each listed once, and each
    listed v is a witness-fiber block from s to t passing through M at n.

    Every preimage u of w is a u-fiber path, so (u's first symbol, u's
    last symbol) is one of those pairs, and the v listed for it reroutes
    u: the replay covers every preimage without listing any.  The pairs
    are read off one forward sweep per start symbol over w's forward
    layers (a dead-end symbol reaches no end symbol, so they need no
    pruning).  A position outside 1..|w|, a symbol outside the alphabets
    or a mode the subject has no codes for (_codes_of) gives False, like
    any other tampering."""
    w, n = cert.w.symbols, cert.n
    try:
        u_code, wit_code, to_wit = _codes_of(subject, cert.mode)
    except PreconditionUnmet:
        return False
    if not 1 <= n <= len(w) or not all(map(u_code.letter_masks.__contains__, w)):
        return False
    wit_word = to_wit(w)
    m_set = set(cert.M)
    claimed = set()
    for s, t, v_block in cert.witnesses:
        v = v_block.symbols
        if (s, t) in claimed or not _spells(wit_code, wit_word, v_block):
            return False
        if v[0] != s or v[-1] != t or v[n - 1] not in m_set:
            return False
        claimed.add((s, t))
    layers = forward_layers(u_code, w)
    if layers is None:
        return False
    spell = u_code.domain.alphabet.symbols.__getitem__
    pairs = _endpoint_pairs(_forward_sets(u_code.domain, layers))
    return len(claimed) == len(pairs) and claimed.issuperset(
        (spell(s), spell(t)) for s, t in pairs
    )


def preimages(subject, cert, cap=DEFAULT_CAP):
    """Iterator of (u, v) for every preimage u of cert.w, in iter_fiber
    order, with v the witness the certificate lists for u's endpoints;
    past cap preimages, it raises ResourceLimit.  A mode the subject has
    no codes for raises PreconditionUnmet at the call.  This spells out
    what a replayed certificate covers; making and replaying one never
    lists the fiber."""
    u_code = _codes_of(subject, cert.mode)[0]
    spell = u_code.domain.alphabet.symbols.__getitem__
    by_ends = {(s, t): v for s, t, v in cert.witnesses}
    paths = iter_fiber(u_code, pruned_layers(u_code, cert.w.symbols), cap)
    us = (tuple(map(spell, path)) for path in paths)
    return ((Block(u), by_ends[u[0], u[-1]]) for u in us)
