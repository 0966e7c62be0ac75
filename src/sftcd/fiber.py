"""Fibers of blocks under a letter-to-letter code.

The preimage set of a codomain word is handled as a layered graph: layer i
holds the domain symbols that can sit at coordinate i of a preimage.  A
forward sweep and a backward sweep prune the layers so that exactly the
symbols lying on complete preimage paths remain.  iter_fiber lists the
paths with core.iter_paths, the depth-first lister that also lists a
shift's blocks; on pruned layers every prefix extends, so the first path
costs only its length and a long fiber is listed lazily.

One slot, _FIBER, keeps the fiber of the last word asked of a code: the
code (compared by identity), its own tuple of the word, the forward
layers and, once something reads them, the endpoint pairs (_end_pairs,
read through end_pairs).  Its word, layers and pairs are tuples, so no
caller can change what a later one reads.  forward_layers, pruned_layers
and end_pairs read it when the code and word match and replace it
otherwise.  Depth, relative depth and both certificate replays of one
block ask about one fiber, w's under phi, so a block sweeps its forward
layers once and reads its pairs once however many of them it makes.

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
least pair through one loop (_least_split) over the same pairs: each
left side with every right side it joins (_joinable_pairs).  A score is
one function of two sides and k.  It reads each side as a _Side, made
once when the side is pulled: its slot, tuples and word, the union of
its first track, and one dict in which the score keeps what it makes of
the side alone, as long as the minimum runs; nothing made of a pair is
kept.  A pair whose unions miss each other has no endpoint pair, so no
score counts it.  What outlives the minimum is its answer, and it holds
no code: the closures read nothing but the domain's successor masks and
each track's letter masks, so _side_minimum keeps each minimum under
those, the slot labels, the walk, the score and core.DEFAULT_CAP as it
is at the call (graphs.remember), and answers a repeated question
without growing a side.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import count, islice
from operator import itemgetter, or_

from . import core
from .codes import is_finite_to_one
from .core import Block, iter_bits, iter_paths, stepper
from .errors import InvalidBlock, NotFiniteToOne, UnknownSymbol
from .graphs import closure, remember


def _sweep(step, mask, layers):
    """[mask, then mask stepped into each of layers in turn]."""
    hist = [mask]
    for layer in layers:
        mask = step(mask) & layer
        hist.append(mask)
    return hist


def _forward_sweep(code, word):
    """Raw forward filter: layers[i] = symbols carrying word[i] reachable
    from layer i-1, as a tuple.  None when a layer dies, and with it the
    last."""
    try:
        layers = list(map(code.letter_masks.__getitem__, word))
    except KeyError as missing:
        raise UnknownSymbol(
            f"symbol {missing.args[0]!r} not in codomain alphabet"
        ) from None
    layers = _sweep(code.domain.step_mask, layers[0], layers[1:])
    return tuple(layers) if layers[-1] else None


def _end_pairs(domain, layers):
    """(s, t) for every path from s to t through forward or pruned
    layers, s ascending, then t: each start symbol is stepped to the last
    layer keeping only the current mask.  A lone start reaches the whole
    last layer, so it is paired with each of its symbols with no step."""
    if not layers[0] & (layers[0] - 1):
        return [(layers[0].bit_length() - 1, t) for t in iter_bits(layers[-1])]
    step, ahead = domain.step_mask, layers[1:]
    pairs = []
    for s in iter_bits(layers[0]):
        mask = 1 << s
        for layer in ahead:
            mask = step(mask) & layer
        pairs += [(s, t) for t in iter_bits(mask)]
    return pairs


# the fiber of the last word asked of a code: (the code, the word as a
# tuple, its forward layers, their endpoint pairs or None until read).
# Readers use the tuple they took, so a replaced slot never mixes two
# fibers
_FIBER = None

# side-closure minima by their whole input, oldest first (graphs.remember)
_MINIMA = {}


def _kept_fiber(code, word):
    """The slot, holding word's fiber under code: kept when the code (by
    identity) and the word (by value) are those of the last ask, swept
    anew otherwise.  The slot holds its own tuple of the word, so a
    caller's list mutated after a call never matches a stale fiber."""
    global _FIBER
    word = tuple(word)
    kept = _FIBER
    if kept is None or kept[0] is not code or kept[1] != word:
        kept = _FIBER = (code, word, _forward_sweep(code, word), None)
    return kept


def forward_layers(code, word):
    """_forward_sweep(code, word), read from the slot when it holds
    word's fiber under code."""
    return _kept_fiber(code, word)[2]


def end_pairs(code, word):
    """_end_pairs of word's forward layers under code, as a tuple, made on
    the first read of each fiber the slot holds; word's fiber must not be
    empty."""
    global _FIBER
    kept = _kept_fiber(code, word)
    if kept[3] is None:
        kept = _FIBER = kept[:3] + (tuple(_end_pairs(code.domain, kept[2])),)
    return kept[3]


def pruned_layers(code, word):
    """Layers restricted to complete preimage paths, as a tuple, or None
    for an empty fiber.  Every symbol of a live forward layer has a
    predecessor in the layer before, so the backward sweep empties no
    layer."""
    layers = forward_layers(code, word)
    if layers is None:
        return None
    return tuple(_sweep(code.domain.step_mask_back, layers[-1], layers[-2::-1])[::-1])


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


def _joinable_pairs(left, right, total):
    """(split, left side, right side) for every pair of a left side and a
    right side with its tail slot as head that join into a block of
    total length total, split ascending."""
    for la in range(max(1, total + 1 - len(right)), min(total, len(left)) + 1):
        by_head = right[total - la]
        for side in left[la - 1]:
            for other in by_head.get(side.slot, ()):
                yield la, side, other


def _least_split(left, right, total, score, k):
    """The least (word, split) among the pairs of total length total that
    score k, or None."""
    return min(
        (
            (side.word + other.word[1:], la)
            for la, side, other in _joinable_pairs(left, right, total)
            if score(side, other, k)
        ),
        default=None,
    )


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
    with depth the larger count of levels pulled from the two closures;
    None when the closures have no seeds.

    Each side pulled becomes a _Side, and the right sides of a level are
    kept by head slot, so each left side walks only the right sides it
    joins (_joinable_pairs).  For k = 1, 2, ... the pairs are asked one
    total length at a time (total length t needs levels 1..t of each
    closure), and the first total length with a pair that scores k
    returns the least such pair (_least_split).  Levels are pulled as
    the lengths grow, so a value of 1 returns before any later level is
    grown; once both closures are complete, nothing more is pulled and
    later rounds ask the same pairs.  A one-letter block's pair scores
    the size of its letter's mask, so some round returns.
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
            best = _least_split(left, right, total, score, k)
            if best is not None:
                return (k, *best, max(len(left), len(right)))
        if not left:
            return None


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
    found = _side_minimum(
        code.domain, (code.masks_by_index,), range(len(letters)), False, _magic_score
    )
    if found is None:
        raise InvalidBlock("codomain language is empty")
    value, word, coordinate, depth = found
    block = Block(tuple(letters[i] for i in word))
    return MagicBlockResult(block, coordinate, value, StabilizationInfo(depth, True))


def degree_finite_to_one(code):
    """Preimage count of typical points of a finite-to-one code, read off
    the magic block minimum."""
    if not is_finite_to_one(code):
        raise NotFiniteToOne("code has unboundedly many preimages")
    return find_magic_block(code).value
