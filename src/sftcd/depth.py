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
hitting set size.  Both minimisations, over a block's positions here and
over the splits of the side closures below, ask answer first: for
k = 1, 2, ... is there a candidate whose hitting sets have k symbols?
Every candidate was ruled out below k before k is asked, so one
_hitting_set call at k answers, and the first candidate in order that
scores k is the minimum.  A reach builds only what its answer reads.
Position 1 scores a block's search with no family built: there the
routing set of a pair (s, t) is {s}, so the least hitting set is the
mask of the fiber's start symbols, and a single start symbol ends the
search before any forward set is swept; the reach sweeps its forward
sets on first read, which only a later position makes.

k = 1 is asked with no family built either.  One symbol lies in every
routing set exactly when it lies in their intersection, and as every
start and every end symbol lies in some endpoint pair, that is the
intersection of the starts' forward sets and the ends' backward sets:
|S| + |T| masks rather than |S| * |T| routing sets.  A block's search
asks this of every position past 1, and _routing_score, the one score
of a split, reads it off the rows and columns that join something: per
union of the other side's first track, _part ANDs the last-track rows
(or columns) whose first track meets it, once per (side, union), and
keeps the AND in the side's kept dict as long as the minimum runs.  A
side none of whose rows or columns meets the other's union reads 0, so
a split with no endpoint pair does not score.

Class degrees are exact.  Split w at n into u = w[1..n] and v = w[n..];
with fiber matrices A = P_u and B = P_v, (s, t) is an endpoint pair when
row s of A meets column t of B, and its routing set is their
intersection.  So the depth at n is fixed by the set of A's nonzero rows
and the set of B's nonzero columns: u's left side and v's right side.
The side closures of fiber.py reach every such pair, and the block
attaining the minimum replays as a routing certificate.  While the
closures grow, each pair is only asked whether it scores 1, as above,
and they grow only until such a pair turns up.  Only when both are
complete with none does _routing_score, at k = 2 and on, build a pair's
routing family, one set comprehension per pair per round (no round
keeps one), so only a minimum of 2 or more builds families.  Every mask
step is a core.stepper.

A certificate lists one witness per endpoint pair, not per preimage:
rerouting u asks only for a witness with u's first and last symbols, so
every preimage with endpoints (s, t) shares the one v listed for (s, t).
Making it walks the endpoint pairs depth has already computed and never
lists the fiber; preimages() spells the (u, v) pairs out for callers who
want them.  Each v is _Reach.lex_path_through's least path through the
least usable symbol of M, the search bridge.py also asks for the blocks
it splices.  At position 1 it starts at that symbol and is read off the
backward set of its end.  Past it, its head is read off a backward sweep
toward that symbol at n: one sweep per routing symbol (and position) on
a reach, shared by every endpoint pair routed through it.

verify_certificate replays a certificate by checking each listed
(s, t, v) once, that v spells w's image in the witness fiber from s to t
through M at n, and that the listed pairs are exactly the u-fiber's
endpoint pairs; so it covers every preimage without enumerating any.

Both modes set a fiber up one way (_routing), with no pruning pass: the
u-fiber is w's forward layers, its endpoint pairs are read off the end
mask of one forward sweep per start symbol (fiber._end_pairs, which
keeps no history), and the witness reach (_Reach) runs over the witness
code's letter masks of the witness word, w in absolute mode and psi(w)
in relative mode.  A reach sweeps each forward set, backward set and
sweep toward a routing symbol on its first read, so it sweeps only what
a search, a routing test or a witness reads.  Every reader ANDs a
backward set with a forward set or starts at a start symbol, so it
reads only symbols of complete paths.

The forward layers and the end-mask pairs come from fiber's one-fiber
slot (fiber.forward_layers, fiber.end_pairs), so depth, relative depth
and both replays of one block sweep w's phi-fiber once and read its
pairs once.  The search and the replay read one computation of the
pairs; the tests check it against backward sweeps per end symbol and
against the endpoints of the paths iter_fiber lists.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_

from .codes import CodeTriple, OneBlockCode, check_onto
from .core import Block, is_irreducible, is_point_of, iter_bits
from .errors import EmptyFiber, InvalidBlock, PreconditionUnmet, UnknownSymbol
from .fiber import (
    _letter_masks,
    _side_minimum,
    _sweep,
    end_pairs,
    forward_layers,
    iter_fiber,
    pruned_layers,
)


class _Swept(dict):
    """{key: sweep(key)}, each key swept on its first read."""

    __slots__ = ("sweep",)

    def __init__(self, sweep):
        super().__init__()
        self.sweep = sweep

    def __missing__(self, key):
        value = self[key] = self.sweep(key)
        return value


class _Reach:
    """Per-start forward sets and per-end backward sets over a code's
    letter masks of a word, each in a table that sweeps a key on its
    first read: fs[s] holds the symbols of each layer reachable from s,
    bs[t] those that reach t in the last layer, and to_m[m, n] those of
    the first n layers that reach m at n, the sweep lex_path_through
    shares among the pairs it routes through m.  The layers are never
    pruned: every reader ANDs a backward set with a forward set or starts
    at a start symbol, so it reads only symbols of complete paths.  Only
    what a search, a routing test or a witness reads is swept: a reach
    over pi's letter masks of psi(w) holds forward and backward sets for
    the endpoints of w's phi-fiber alone, and no forward set unless
    something reads one past position 1."""

    __slots__ = ("succ", "fs", "bs", "to_m")

    def __init__(self, code, word):
        domain = code.domain
        layers = tuple(map(code.letter_masks.__getitem__, word))
        step, ahead = domain.step_mask, layers[1:]
        self.succ = domain.succ_masks
        self.fs = _Swept(lambda s: _sweep(step, 1 << s, ahead))
        self.bs = _Swept(lambda t: _toward(domain, t, layers))
        self.to_m = _Swept(lambda key: _toward(domain, key[0], layers[: key[1]]))

    def lex_path_through(self, s, m, t, n):
        """Least complete path (by symbol index) from s through m at
        position n to t, or None when no such path exists.  The tail after
        m is the least successor, at each step, within bs[t], the symbols
        that still reach t.  At position 1 the path starts at m, so it is
        that tail alone.  Past it, the head up to m is the least within
        the symbols that still reach m at n (a sweep made once per (m, n)
        and shared by every pair routed there)."""
        toward_t = self.bs[t]
        if not (toward_t[n - 1] >> m) & 1:
            return None
        if n == 1:
            if m != s:
                return None
            ahead = toward_t[1:]
        else:
            toward_m = self.to_m[m, n]
            if not (toward_m[0] >> s) & 1:
                return None
            ahead = toward_m[1:] + toward_t[n:]
        return _extend_least(self.succ, [s], ahead)


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


def _hitting_set(family, k, allowed):
    """Least k-symbol mask, in combination order, meeting every routing
    set of family, or None when there is none; allowed, the union of
    family at the top call, bounds the symbols it may use.

    One symbol hits them all when it lies in their intersection, read in
    one pass that stops at the first set emptying it.  Combinations
    starting with symbol i come before those starting with a larger one,
    and the rest of such a combination only has to meet the sets that
    miss i, so the search recurses on those.  It gives up once fewer
    than k symbols are left or some set has none of them."""
    if k == 1:
        for r in family:
            allowed &= r
            if not allowed:
                return None
        return allowed & -allowed or None
    while allowed.bit_count() >= k and all(r & allowed for r in family):
        low = allowed & -allowed
        allowed ^= low
        mask = _hitting_set([r for r in family if not r & low], k - 1, allowed)
        if mask:
            return low | mask
    return None


def _routing_families(e_pairs, fs, bs, length):
    """(position, routing family, its union) for each position from 2 to
    length whose family differs from the one at the position before,
    built as they are asked for: an equal family has the same hitting
    sets, so skipping it prunes the search and stores nothing."""
    previous = {1 << s for s, _ in e_pairs}  # position 1: the starts
    for n in range(2, length + 1):
        family = {fs[s][n - 1] & bs[t][n - 1] for s, t in e_pairs}
        if family != previous:
            yield n, family, reduce(or_, family)
        previous = family


def _depth_search(e_pairs, reach, length):
    """Minimum hitting set over the routing families of every position.

    Position 1 scores without a family: the routing set of an endpoint
    pair (s, t) there is {s}, so the least hitting set is the mask of
    the start symbols, of size its popcount; one start ends the search
    before reach's forward sets are read.  The later positions are asked
    answer first, as _closure_minimum asks its splits: for k = 1, 2, ...
    below that size, the first position with a k-symbol hitting set
    gives the answer.  At k = 1 that is one symbol in the intersection
    of the starts' forward sets and the ends' backward sets, with no
    family built.  From k = 2 on, each round builds the position
    families it asks about and keeps none (_routing_families).  Returns
    (size, position, mask) with the smallest size, then the smallest
    position, then the least symbol set in combination order.
    """
    starts = 0
    for s, _ in e_pairs:
        starts |= 1 << s
    size = starts.bit_count()
    if size == 1:
        return 1, 1, starts
    fs, bs = reach.fs, reach.bs
    ends = {t for _, t in e_pairs}
    sides = [fs[s] for s in iter_bits(starts)] + [bs[t] for t in ends]
    for n in range(2, length + 1):
        inter = -1
        for side in sides:
            inter &= side[n - 1]
        if inter:
            return 1, n, inter & -inter
    for k in range(2, size):
        for n, family, union in _routing_families(e_pairs, fs, bs, length):
            mask = _hitting_set(family, k, union)
            if mask:
                return k, n, mask
    return size, 1, starts


@dataclass(frozen=True, slots=True)
class RoutingCertificate:
    """Witness that w is presented through M at position n.

    witnesses holds one (s, t, v) per endpoint pair (s, t) of w's u-fiber
    (the fiber of w in absolute mode, of w under phi in relative mode),
    in fiber._end_pairs order: s and t are domain symbols and v is a
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


@dataclass(frozen=True, slots=True)
class RoutingRefusal:
    w: Block
    n: int
    M: tuple
    blocking: Block
    reason: str

    def __bool__(self):
        return False


@dataclass(frozen=True, slots=True)
class DepthResult:
    w: Block
    value: int
    certificate: RoutingCertificate


@dataclass(frozen=True, slots=True)
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
    # R_n(s, t) is {s} & bs[t] at position 1, so no forward set is read
    fs, bs = None if n == 1 else wit.fs, wit.bs
    witnesses = []
    blocked = []
    for s, t in e_pairs:
        head = 1 << s if fs is None else fs[s][n - 1]
        routable = head & bs[t][n - 1] & m_mask
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
        return subject.phi, subject.pi, subject.psi.apply_word
    code = subject.pi if isinstance(subject, CodeTriple) else subject
    if mode != "absolute" or not isinstance(code, OneBlockCode):
        kind = type(subject).__name__
        raise PreconditionUnmet(f"{mode!r} mode has no codes for a {kind}")
    return code, code, tuple  # words are tuples: tuple returns one unchanged


def _routing(subject, w, mode, M=()):
    """((u-domain, u-fiber layers, their endpoint pairs, witness reach),
    mask of M) for w in mode.  One set-up for both modes, with no
    pruning pass: the u-layers are w's forward layers, the endpoint pairs
    are read off their end masks (fiber.end_pairs), and the witness reach
    runs over the witness code's letter masks of the witness word,
    sweeping only what a search, a routing test or a witness reads."""
    u_code, wit_code, to_wit = _codes_of(subject, mode)
    word = tuple(w.symbols)
    u_layers = forward_layers(u_code, word)
    m_mask = _mask_of(u_code.domain.alphabet, M)
    if u_layers is None:
        what = "preimage" if mode == "absolute" else "phi-preimage"
        raise EmptyFiber(f"{w.text()!r} has no {what}")
    e_pairs = end_pairs(u_code, word)
    wit = _Reach(wit_code, to_wit(word))
    return (u_code.domain, u_layers, e_pairs, wit), m_mask


def _is_presented(subject, w, M, n, mode):
    fiber, m_mask = _routing(subject, w, mode, M)
    return _routing_outcome(fiber, w, m_mask, n, mode)


def _depth(subject, w, mode):
    fiber, _ = _routing(subject, w, mode)
    _, _, e_pairs, wit = fiber
    size, n, mask = _depth_search(e_pairs, wit, len(w))
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


def _part(side, u):
    """The AND of the last tracks of side's tuples whose first track
    meets u, kept in side.kept per u as long as the side is; 0 when the
    side's union misses u, so a pair with no endpoint pair has no
    symbol in common to route through."""
    part = side.kept.get(u)
    if part is None:
        part = -1 if side.union & u else 0
        for vec in side.vecs:
            if vec[0] & u:
                part &= vec[-1]
        side.kept[u] = part
    return part


def _routing_score(left, right, k):
    """Whether the depth at the split of two _Sides is k, asked once no
    split has depth below k: (s, t) is an endpoint pair when first-track
    row s meets first-track column t, and its routing set is the
    last-track row s & the last-track column t.  At k = 1 no family is
    built: one symbol lies in every routing set exactly when it lies in
    every last-track row and column that joins something, the rows that
    meet right.union and the columns that meet left.union (_part).  A
    part is 0 when the unions miss each other, so a split with no
    endpoint pair does not score, and neither does its empty family at a
    larger k.  From k = 2 each ask builds the split's family anew."""
    if k == 1:
        return _part(left, right.union) & _part(right, left.union)
    family = {r[-1] & c[-1] for r in left.vecs for c in right.vecs if r[0] & c[0]}
    return _hitting_set(family, k, reduce(or_, family, 0))


def _least_depth(subject, mode, cycle=None):
    """The estimate of the least depth in mode over every block of the
    u-code's codomain, or over the blocks of a periodic point's cycle;
    None when no block has a u-preimage.  The side closures carry the
    u-code's fiber matrices over a word and the witness code's over its
    witness word: endpoint pairs come from the first track and routing
    sets from the last, so the two give relative depth.  In absolute
    mode the two codes are one, so the tracks are equal and
    _side_minimum keeps one.  Over the whole codomain the first track is
    the masks the u-code keeps."""
    u_code, wit_code, to_wit = _codes_of(subject, mode)
    alphabet = u_code.codomain_alphabet.symbols
    if cycle is None:
        letters, labels = alphabet, range(len(alphabet))
        track = u_code.masks_by_index
    else:
        letters, labels = cycle, map(alphabet.index, cycle)
        track = _letter_masks(u_code, cycle)
    tracks = (track, _letter_masks(wit_code, to_wit(letters)))
    found = _side_minimum(
        u_code.domain, tracks, labels, cycle is not None, _routing_score
    )
    if found is None:
        return None
    value, word, _, depth = found
    block = Block(tuple(map(alphabet.__getitem__, word)))
    return DegreeEstimate(value, depth, True, block)


def class_degree(code, max_len=None):
    """Minimum depth over all codomain blocks, exactly, with the shortest
    (then lexicographically least) block attaining it.

    The side closures grow one level per block length scored until the
    minimum is proved: at a block of depth 1, or when both are complete.
    Either way the estimate is certified; a closure that passes the cap
    first raises ResourceLimit.  scanned_length is the larger number of
    levels grown in the two side closures, at most the block's length
    when the value is 1.  max_len is neither read nor checked: it stays
    only for callers that still pass a scan length positionally.
    """
    _scan_preconditions(code)
    est = _least_depth(code, "absolute")
    if est is None:
        raise EmptyFiber("the code has an empty image language")
    return est


def relative_class_degree(triple, max_len=None):
    """Minimum relative depth over all blocks of Y, exactly: the sides
    carry rows and columns of (P^phi_w, P^pi_psi(w)), with the same
    stopping, certification, cap and scanned_length rules as
    class_degree, and the same unread max_len slot."""
    est = _least_depth(triple, "relative")
    if est is None:
        raise EmptyFiber("phi has an empty image language")
    return est


def periodic_point_relative_degree(triple, y, max_len=None):
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
    return _least_depth(triple, "relative", cycle)


def verify_certificate(subject, cert):
    """Mechanically replay a routing certificate against a code (absolute
    mode) or a triple (relative mode).  True when the listed (s, t) are
    exactly the endpoint pairs of w's u-fiber, each listed once, and each
    listed v is a witness-fiber block from s to t passing through M at n.

    Every preimage u of w is a u-fiber path, so (u's first symbol, u's
    last symbol) is one of those pairs, and the v listed for it reroutes
    u: the replay covers every preimage without listing any.  The pairs
    are read off the end mask of one forward sweep per start symbol over
    w's forward layers (a dead-end symbol reaches no end symbol, so they
    need no pruning).  Layers and pairs are read from fiber's one-fiber
    slot, where a depth call on the same block may have left them; they
    are the u-fiber's own whatever the certificate claims, so a warm slot
    accepts nothing a cold one refuses.  Each v is checked to spell the
    witness word along allowed edges before any of its symbols is read
    at n.  A position outside 1..|w|, a symbol outside the alphabets or a
    mode the subject has no codes for (_codes_of) gives False, like any
    other tampering."""
    w, n = cert.w.symbols, cert.n
    try:
        u_code, wit_code, to_wit = _codes_of(subject, cert.mode)
        layers = forward_layers(u_code, w)
    except (PreconditionUnmet, UnknownSymbol):
        return False
    if layers is None or not 1 <= n <= len(w):
        return False
    wit_word = to_wit(w)
    image, allowed = wit_code.symbol_map.get, wit_code.domain.allowed
    m_set = set(cert.M)
    claimed = set()
    for s, t, v_block in cert.witnesses:
        v = v_block.symbols
        if (s, t) in claimed or tuple(map(image, v)) != wit_word:
            return False
        if not all(map(allowed.__contains__, zip(v, v[1:]))):
            return False
        if v[0] != s or v[-1] != t or v[n - 1] not in m_set:
            return False
        claimed.add((s, t))
    spell = u_code.domain.alphabet.symbols.__getitem__
    pairs = end_pairs(u_code, w)
    return len(claimed) == len(pairs) and claimed.issuperset(
        (spell(s), spell(t)) for s, t in pairs
    )


def preimages(subject, cert):
    """Iterator of (u, v) for every preimage u of cert.w, in iter_fiber
    order, with v the witness the certificate lists for u's endpoints;
    past DEFAULT_CAP preimages, it raises ResourceLimit.  A mode the
    subject has no codes for raises PreconditionUnmet at the call.  This
    spells out what a replayed certificate covers; making and replaying
    one never lists the fiber."""
    u_code = _codes_of(subject, cert.mode)[0]
    spell = u_code.domain.alphabet.symbols.__getitem__
    by_ends = {(s, t): v for s, t, v in cert.witnesses}
    paths = iter_fiber(u_code, pruned_layers(u_code, cert.w.symbols))
    us = (tuple(map(spell, path)) for path in paths)
    return ((Block(u), by_ends[u[0], u[-1]]) for u in us)
