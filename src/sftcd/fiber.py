"""Fibers of blocks under a letter-to-letter code.

The preimage set of a codomain word is handled as a layered graph: layer i
holds the domain symbols that can sit at coordinate i of a preimage.  A
forward sweep and a backward sweep prune the layers so that exactly the
symbols lying on complete preimage paths remain.  iter_fiber lists the
paths with core.iter_paths, the depth-first lister that also lists a
shift's blocks; on pruned layers every prefix extends, so the first path
costs only its length and a long fiber is listed lazily.

A word's fiber under a code is one record, a Fiber: the code's letter
masks of the word, its forward layers, its endpoint pairs (read off the
starts' forward sets, the sets a depth search reads) and per-symbol
sweeps, each made on its first read.  The per-symbol sweeps are three
tables, dicts whose __missing__ runs the sweep loop itself (forward from
a start, backward from an end, backward from a routing symbol at a
position), so a miss costs one Python frame and a hit none, and each
asks the domain for its stepper only when it first sweeps.  fiber_of
hands out Fibers from one slot, _FIBERS, that keeps the last two asked
(the code compared by identity, the word by value), so depth, relative
depth and both certificate replays of a block build w's Fiber under phi
once.  A Fiber's word, layers and pairs are tuples, so no caller can
change what a later one reads.

Minimising a quantity over all blocks is done exactly on fiber matrices:
P_w has row s = the end symbols of the fiber paths of w starting at s.
What a block u + v[1:] shows at its split depends only on u's left side
(its last letter and the set of nonzero rows of P_u) and v's right side
(its first letter and the set of nonzero columns of P_v).  Rows step on
their own when a letter is appended and columns when one is prepended,
so the reachable sides form two finite sets: a level-by-level closure of
each (graphs.closure) with a minimum over joinable pairs is exhaustive
(Lind & Marcus, section 9.1).  The minimum is found answer first: for
k = 1, 2, ... it asks every pair, one block length at a time, whether
it scores k, and the first pair that does gives the answer.  A round
runs only once every pair was ruled out below k, so a score only
answers "is the value k?": the cheapest question at k = 1, where the
levels are pulled as the lengths grow, so a minimum of 1 is proved at
its block without growing the closures to their end.  Only a minimum
of 2 or more finds both closures complete and asks again.

A closure steps every row or column through a stepper the domain keeps
(VertexShift.kept_stepper): per letter mask and direction, a core.stepper
of the domain's successor or predecessor masks with the letter's mask
folded in, built on the first ask and kept with the shift, so the
closures of phi, pi, the relative degree, the magic block and periodic
points on one domain share it, and it goes when the shift does.  A
closure asks for its steppers on its first step past the one-letter
seeds.  A side is stepped track by track: the side's tuples are split
into one column per track, each column is mapped through its track's
stepper, and zip rejoins the stepped tuples, so no Python frame runs per
tuple.  Right sides are kept by head slot, and every round finds its
least pair with one min in _closure_minimum over the same pairs: each
left side with every right side whose head slot is its tail slot.  A
score is one function of two sides and k.  It reads each side as a
_Side, made once when the side is pulled: its slot, tuples and word,
the union of its first track, and one dict in which the score keeps
what it makes of the side alone, as long as the minimum runs; nothing
made of a pair is kept.  A pair whose unions miss each other has no
endpoint pair, so no score counts it.  What outlives the minimum is its
answer, and it holds no code: the closures read nothing but the
domain's successor masks and each track's letter masks, so
_side_minimum keeps each minimum under those, the slot labels, the
walk, the score and core.DEFAULT_CAP as it is at the call
(graphs.remember), and answers a repeated question without growing a
side.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import count, islice
from operator import itemgetter, or_

from . import core
from .codes import is_finite_to_one
from .core import Block, cached, iter_bits, iter_paths
from .errors import InvalidBlock, NotFiniteToOne, UnknownSymbol
from .graphs import closure, remember


class _Table(dict):
    """Per-symbol sweeps over a word's letter masks, each key swept on its
    first read by the subclass's __missing__, which runs the sweep loop
    itself and asks the domain for its stepper only then.  It starts
    empty: dict.__new__ makes it so, and __init__ keeps only the domain
    and the masks."""

    __slots__ = ("domain", "masks")

    def __init__(self, domain, masks):
        self.domain, self.masks = domain, masks


class _Ahead(_Table):
    """fs[s]: s, then the symbols of each later layer that s reaches."""

    __slots__ = ()

    def __missing__(self, s):
        step, mask = self.domain.step_mask, 1 << s
        sweep = [mask]
        for layer in self.masks[1:]:
            mask = step(mask) & layer
            sweep.append(mask)
        self[s] = sweep
        return sweep


class _Behind(_Table):
    """bs[t]: the symbols of each layer that reach t in the last."""

    __slots__ = ()

    def __missing__(self, t):
        step, masks = self.domain.step_mask_back, self.masks
        mask = masks[-1] & (1 << t)
        sweep = [mask]
        for layer in masks[-2::-1]:
            mask = step(mask) & layer
            sweep.append(mask)
        sweep.reverse()
        self[t] = sweep
        return sweep


class _Toward(_Table):
    """to_m[m, n]: the symbols of each of the first n layers that reach m
    at n."""

    __slots__ = ()

    def __missing__(self, key):
        m, n = key
        step, masks = self.domain.step_mask_back, self.masks
        mask = masks[n - 1] & (1 << m)
        sweep = [mask]
        for layer in reversed(masks[: n - 1]):
            mask = step(mask) & layer
            sweep.append(mask)
        sweep.reverse()
        self[key] = sweep
        return sweep


class Fiber:
    """The fiber of a word under a code.  masks holds the code's letter
    mask of each of the word's letters; the rest is swept on its first
    read: forward, the forward layers (None when a layer dies), pairs,
    the endpoint pairs, symbol_pairs, the same spelled as domain symbols,
    and three tables of per-symbol sweeps over masks, each a dict whose
    __missing__ sweeps: fs[s] holds the symbols of each layer reachable
    from s, bs[t] those that reach t in the last layer, and to_m[m, n]
    those of the first n layers that reach m at n, the sweep
    lex_path_through shares among the pairs it routes through m.  No
    stepper is asked of the domain before a sweep needs it.  The masks
    are never pruned: every reader ANDs a backward set with a forward
    set or starts at a start symbol, so it reads only symbols of
    complete paths."""

    # the parts every reader reads are slots; forward, pairs and
    # symbol_pairs, kept by core.cached, go in __dict__
    __slots__ = ("code", "word", "masks", "succ", "fs", "bs", "to_m", "__dict__")

    def __init__(self, code, word):
        self.code, self.word = code, word
        try:
            masks = tuple(map(code.letter_masks.__getitem__, word))
        except KeyError as missing:
            raise UnknownSymbol(
                f"symbol {missing.args[0]!r} not in codomain alphabet"
            ) from None
        domain = code.domain
        self.masks, self.succ = masks, domain.succ_masks
        self.fs = _Ahead(domain, masks)
        self.bs = _Behind(domain, masks)
        self.to_m = _Toward(domain, masks)

    @cached
    def forward(self):
        """Forward layers: layer i holds the symbols carrying the word's
        i-th letter reachable from layer i-1, as a tuple; None when a
        layer dies, and with it the last."""
        masks = self.masks
        step, mask = self.code.domain.step_mask, masks[0]
        layers = [mask]
        for layer in masks[1:]:
            mask = step(mask) & layer
            layers.append(mask)
        return tuple(layers) if mask else None

    @cached
    def pairs(self):
        """(s, t) for every path from s to t, s ascending, then t, read
        off the last layer of each start's forward set, fs[s][-1]; empty
        for an empty fiber.  A lone start reaches the whole last forward
        layer, so it is paired with each of its symbols with no sweep."""
        forward = self.forward
        if forward is None:
            return ()
        starts = forward[0]
        if not starts & (starts - 1):
            s = starts.bit_length() - 1
            return tuple([(s, t) for t in iter_bits(forward[-1])])
        fs = self.fs
        return tuple([(s, t) for s in iter_bits(starts) for t in iter_bits(fs[s][-1])])

    @cached
    def symbol_pairs(self):
        """The endpoint pairs spelled as domain symbols, as a frozenset:
        what a certificate replay compares its listed pairs with."""
        spell = self.code.domain.alphabet.symbols.__getitem__
        return frozenset([(spell(s), spell(t)) for s, t in self.pairs])

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


def _back_sweep(domain, mask, layers):
    """The symbols of each of layers that reach mask in the last one."""
    step = domain.step_mask_back
    mask &= layers[-1]
    sweep = [mask]
    for layer in layers[-2::-1]:
        mask = step(mask) & layer
        sweep.append(mask)
    sweep.reverse()
    return sweep


def _least_path(domain, s, t, layers):
    """Least path (by symbol index) from s to t whose i-th symbol lies in
    layers[i], or None when there is none."""
    toward = _back_sweep(domain, 1 << t, layers)
    if not (toward[0] >> s) & 1:
        return None
    return _extend_least(domain.succ_masks, [s], toward[1:])


# the Fibers last asked, latest first, at most two: a question reads at
# most two fibers, its u-fiber and its witness fiber, so relative depth's
# witness ask leaves the block's phi-fiber kept for both replays.  The
# list is changed in place and never rebound
_FIBERS = []

# side-closure minima by their whole input, oldest first (graphs.remember)
_MINIMA = {}


def fiber_of(code, word):
    """word's Fiber under code, kept when the code (by identity) and the
    word (by value) match one of the last two asked, new otherwise.  A
    Fiber holds its own tuple of the word, so a caller's list mutated
    after a call never matches a stale fiber."""
    word = tuple(word)
    for kept in _FIBERS:
        if kept.code is code and kept.word == word:
            if kept is not _FIBERS[0]:
                _FIBERS.reverse()  # of two, the one asked goes first
            return kept
    kept = Fiber(code, word)
    _FIBERS[:] = [kept, *_FIBERS[:1]]
    return kept


def pruned_layers(code, word):
    """Layers restricted to complete preimage paths, as a tuple, or None
    for an empty fiber.  Every symbol of a live forward layer has a
    predecessor in the layer before, so the backward sweep empties no
    layer."""
    layers = fiber_of(code, word).forward
    if layers is None:
        return None
    return tuple(_back_sweep(code.domain, layers[-1], layers))


def _letter_masks(code, letters):
    """Per slot, the mask of the domain symbols that code sends to the
    slot's letter: one track of a side closure."""
    return tuple(map(code.letter_mask, letters))


_first = itemgetter(0)


def _side_closures(domain, tracks, labels, cycle):
    """Left and right side closures of the fiber-matrix engine.

    Slots are letters, or phases of a cycle; labels[slot] is the letter
    index a word records.  Any slot may follow any other, or, when cycle
    is set, slot p + 1 follows slot p and slot 0 the last.  tracks hold
    one mask per slot each: tracks[k][slot] is the set of domain symbols
    that the k-th code sends to its letter at the slot, and each track's
    code sends the symbols carrying the first track's letter to its own.

    A block's fiber matrix has row s = the end symbols of its fiber paths
    from s.  Its left side is (tail slot, the tuples (row s of each
    track's matrix) whose first-track row is nonzero), its right side
    (head slot, the same tuples of columns).  Appending a slot steps
    every row forwards, prepending one steps every column backwards,
    through the domain's kept stepper of each mask and direction
    (VertexShift.kept_stepper), asked for on the closure's first step.
    Tuples whose first track empties are dropped, and so is a side with
    none left.  Both closures start from the one-letter blocks, whose
    rows and columns are alike.
    Returns the (left, right) closures: graphs.closure generators, which
    grow a level only when it is asked for, each bounded by
    core.DEFAULT_CAP as it is at the call.  They read nothing but these
    arguments, the cap and the domain's successor masks.
    """
    slots = range(len(labels))
    if cycle:
        follows = [((p + 1) % len(slots),) for p in slots]
        precedes = [((p - 1) % len(slots),) for p in slots]
    else:
        follows = precedes = [slots] * len(slots)
    seeds = []
    for slot, mask in enumerate(tracks[0]):
        if mask:
            unit = frozenset((1 << s,) * len(tracks) for s in iter_bits(mask))
            seeds.append(((slot, unit), (labels[slot],)))

    def grower(back, nexts):
        # steppers[slot] holds each track's stepper for the slot, asked of
        # the domain on the first call: a minimum proved at the seeds
        # asks for none, so a shift that no closure steps builds none
        steppers = None

        def grow(side, word):
            nonlocal steppers
            if steppers is None:
                steppers = list(
                    zip(*([domain.kept_stepper(m, back) for m in ms] for ms in tracks))
                )
            # the side's tuples track by track: each track's stepper maps
            # its column, zip puts the stepped tuples back together, and
            # _first drops those whose first track emptied
            by_track = tuple(zip(*side[1]))
            for slot in nexts[side[0]]:
                moved = zip(*map(map, steppers[slot], by_track))
                vecs = frozenset(filter(_first, moved))
                if vecs:
                    label = (labels[slot],)
                    yield (slot, vecs), label + word if back else word + label

        return grow

    return (
        closure(seeds, grower(False, follows), core.DEFAULT_CAP),
        closure(seeds, grower(True, precedes), core.DEFAULT_CAP),
    )


def _side_minimum(domain, tracks, labels, cycle, score):
    """_closure_minimum of score over _side_closures(domain, tracks,
    labels, cycle), computed once per distinct question.

    A last track whose masks equal the first track's slot by slot (psi
    one-to-one on phi's letters) is dropped first: its rows would repeat
    the first track's in every tuple, so score reads the same sets from
    the one track, and the closures grow the same levels.  The minimum
    is then kept in _MINIMA under everything the closures and score
    read: the domain's successor masks (its predecessor masks and step
    tables follow from them), the tracks, labels, cycle, score and
    core.DEFAULT_CAP as it is at the call.
    Words are label indices, so equal keys give equal answers whatever
    the symbols are called, and a relative degree over a one-to-one psi
    shares the absolute degree's entry.  A closure that passes the cap
    raises ResourceLimit and keeps nothing.
    """
    if tracks[-1] == tracks[0]:
        tracks = tracks[:1]
    labels = tuple(labels)
    key = (domain.succ_masks, tracks, labels, cycle, score, core.DEFAULT_CAP)
    if key in _MINIMA:
        return _MINIMA[key]
    found = _closure_minimum(_side_closures(domain, tracks, labels, cycle), score)
    return remember(_MINIMA, key, found)


class _Side:
    """A side as _closure_minimum and its scores read it: its slot (tail
    or head), its tuples (rows or columns), its word, and the union of
    their first tracks (a left side's ends, a right side's heads), made
    once when the side is pulled.  kept is a score's own dict, kept as
    long as the side is, for what it makes of the side alone."""

    __slots__ = ("slot", "vecs", "word", "union", "kept")

    def __init__(self, state, word):
        self.slot, self.vecs = state
        self.word = word
        self.union = reduce(or_, map(_first, self.vecs), 0)
        self.kept = {}


def _closure_minimum(sides, score):
    """Exact minimum of score over every block and split point.

    sides are the (left, right) closures of _side_closures, generators of
    levels; score(left, right, k) of two _Sides is true when the value of
    their split, at least 1, is k, and is asked only once every split was
    ruled out below k.  Block u + v[1:] splits into u's left side and v's
    right side, u's tail slot being v's head slot.  Every side keeps the
    least of its shortest words, so the pairs reach the shortest block
    attaining the minimum, lexicographically least among those, at its
    first attaining split.  Returns (value, word, split, depth) for it,
    with depth the larger count of levels pulled from the two closures.

    Each side pulled becomes a _Side, and the right sides of a level are
    kept by head slot.  For k = 1, 2, ... the pairs are asked one total
    length at a time (total length t needs levels 1..t of each closure):
    one min over the split la, the left sides of level la and the right
    sides of level t + 1 - la whose head slot is the left side's tail
    slot, and the least pair that scores k is the answer.  Levels are
    pulled as the lengths grow, so a value of 1 returns before any later
    level is grown; once both closures are complete, nothing more is
    pulled and later rounds ask the same pairs.

    Some mask of the first track is nonzero, so the closures have a
    seed, and a one-letter block's pair scores the size of its letter's
    mask: some round returns.  No guard checks this, as every caller
    meets it.  A code's map is total on its domain, whose alphabet is
    never empty, so the code's masks_by_index, the first track of
    class_degree, relative_class_degree and find_magic_block, hold every
    domain symbol between them; and periodic_point_relative_degree
    raises EmptyFiber before the closure unless every letter of its
    cycle, each a slot of its first track, has a phi-preimage.
    """
    left_levels, right_levels = sides
    left = []
    right = []  # per right level pulled: head slot -> [_Side]
    for k in count(1):
        for total in count(1):
            for level in islice(left_levels, 1):
                left.append([_Side(*side) for side in level])
            for level in islice(right_levels, 1):
                by_head = {}
                for side in level:
                    side = _Side(*side)
                    by_head.setdefault(side.slot, []).append(side)
                right.append(by_head)
            if total >= len(left) + len(right):
                break
            best = min(
                (
                    (side.word + other.word[1:], la)
                    for la in range(
                        max(1, total + 1 - len(right)), min(total, len(left)) + 1
                    )
                    for side in left[la - 1]
                    for other in right[total - la].get(side.slot, ())
                    if score(side, other, k)
                ),
                default=None,
            )
            if best is not None:
                return (k, *best, max(len(left), len(right)))


def iter_fiber(code, word_layers):
    """Yield preimage paths through pruned layers (None: an empty fiber)
    in lexicographic order of domain symbol indices, by core.iter_paths;
    past DEFAULT_CAP paths, raise ResourceLimit."""
    if word_layers is not None:
        yield from iter_paths(
            code.domain.succ_masks, word_layers, "fiber larger than {cap} blocks"
        )


@dataclass(frozen=True, slots=True)
class FiberSlice:
    """All preimage blocks of a word, with the per-coordinate symbol sets."""

    w: Block
    preimages: tuple
    by_coordinate: tuple

    def __len__(self):
        return len(self.preimages)


def preimage_blocks(code, w):
    word = tuple(w.symbols)
    layers = pruned_layers(code, word)
    spell = code.domain.alphabet.symbols.__getitem__
    if layers is None:
        return FiberSlice(w, (), tuple(() for _ in word))
    pre = tuple(Block(tuple(map(spell, p))) for p in iter_fiber(code, layers))
    by_coord = tuple(tuple(map(spell, iter_bits(m))) for m in layers)
    return FiberSlice(w, pre, by_coord)


def preimage_symbol_count(code, w, i):
    """Number of distinct symbols occurring at coordinate i (1-based)
    among the preimages of w.  Zero when the fiber is empty."""
    word = tuple(w.symbols)
    layers = pruned_layers(code, word)
    if not 1 <= i <= len(word):
        raise InvalidBlock(f"coordinate {i} outside 1..{len(word)}")
    if layers is None:
        return 0
    return layers[i - 1].bit_count()


@dataclass(frozen=True, slots=True)
class StabilizationInfo:
    scanned_length: int
    certified: bool


@dataclass(frozen=True, slots=True)
class MagicBlockResult:
    block: Block
    coordinate: int
    value: int
    certified: StabilizationInfo


def _magic_score(left, right, k):
    """Whether the split has k preimage symbols, or fewer but some: the
    ends of the left piece's paths that start the right piece's, the
    unions' common symbols."""
    return 0 < (left.union & right.union).bit_count() <= k


def find_magic_block(code, max_len=None):
    """Minimise the per-coordinate preimage symbol count over all codomain
    blocks, exactly, by the fiber-matrix closure.

    Ties break to the shortest block, then lexicographic in
    codomain_alphabet order, then the smallest coordinate.  The reported
    scanned_length is the larger number of levels grown in the two side
    closures: all of them, unless a coordinate with one preimage symbol
    ends the search at its block's length.  ResourceLimit when a closure
    passes the cap first.  max_len is neither read nor checked: it stays
    only for callers that still pass a scan length positionally.
    """
    letters = code.codomain_alphabet.symbols
    value, word, coordinate, depth = _side_minimum(
        code.domain, (code.masks_by_index,), range(len(letters)), False, _magic_score
    )
    block = Block(tuple(letters[i] for i in word))
    return MagicBlockResult(block, coordinate, value, StabilizationInfo(depth, True))


def degree_finite_to_one(code):
    """Preimage count of typical points of a finite-to-one code, read off
    the magic block minimum."""
    if not is_finite_to_one(code):
        raise NotFiniteToOne("code has unboundedly many preimages")
    return find_magic_block(code).value
