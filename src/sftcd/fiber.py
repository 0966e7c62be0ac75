"""Fibers of blocks under a letter-to-letter code.

The preimage set of a codomain word is handled as a layered graph: layer i
holds the domain symbols that can sit at coordinate i of a preimage.  A
forward sweep and a backward sweep prune the layers so that exactly the
symbols lying on complete preimage paths remain.  On pruned layers every
prefix extends, so iter_fiber grows the paths one layer at a time.

Minimising a quantity over all blocks is done exactly on fiber matrices:
P_w has row s = the end symbols of the fiber paths of w starting at s.
What a block u + v[1:] shows at its split depends only on u's left side
(its last letter and the set of nonzero rows of P_u) and v's right side
(its first letter and the set of nonzero columns of P_v).  Rows step on
their own when a letter is appended and columns when one is prepended,
so the reachable sides form two finite sets: a level-by-level closure of
each (graphs.closure) with a minimum over joinable pairs is exhaustive
(Lind & Marcus, section 9.1).  The minimum pulls the levels of both
closures one block length at a time and stops at a pair of value 1, the
least any score takes, so such a minimum is proved without growing the
closures to their end.

A closure steps every row or column through core.stepper: per track,
letter mask and direction, a stepper of the domain's successor or
predecessor masks with the letter's mask folded in, built on the
closure's first step past the one-letter seeds.  A side is stepped track
by track: the side's tuples are split into one column per track, each
column is mapped through its track's stepper, and zip rejoins the
stepped tuples, so no Python frame runs per tuple.  Those steppers live
only as long as one closure; kept on the codes, they would live as long
as each code does.  What is kept is the minimum, and it holds no code:
the closures read nothing but the domain's successor masks and each
track's letter masks, so _side_minimum keeps each minimum under those,
the slot labels, the walk, the score and the cap (graphs.remember), and
answers a repeated question without growing a side.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import count, islice
from operator import itemgetter

from .core import Block, DEFAULT_CAP, iter_bits, stepper
from .errors import InvalidBlock, NotFiniteToOne, ResourceLimit, UnknownSymbol
from .graphs import closure, remember


def _sweep(step, mask, layers):
    """[mask, then mask stepped into each of layers in turn]."""
    hist = [mask]
    for layer in layers:
        mask = step(mask) & layer
        hist.append(mask)
    return hist


def forward_layers(code, word):
    """Raw forward filter: layers[i] = symbols carrying word[i] reachable
    from layer i-1.  None when a layer dies, and with it the last."""
    try:
        layers = list(map(code.letter_masks.__getitem__, word))
    except KeyError as missing:
        raise UnknownSymbol(
            f"symbol {missing.args[0]!r} not in codomain alphabet"
        ) from None
    layers = _sweep(code.domain.step_mask, layers[0], layers[1:])
    return layers if layers[-1] else None


def pruned_layers(code, word):
    """Layers restricted to complete preimage paths, or None for an empty
    fiber.  Every symbol of a live forward layer has a predecessor in the
    layer before, so the backward sweep empties no layer."""
    layers = forward_layers(code, word)
    if layers is None:
        return None
    return _sweep(code.domain.step_mask_back, layers[-1], layers[-2::-1])[::-1]


# side-closure minima by their whole input, oldest first (graphs.remember)
_MINIMA = {}


def _letter_masks(code, letters):
    """Per slot, the mask of the domain symbols that code sends to the
    slot's letter: one track of a side closure."""
    return tuple(map(code.letter_mask, letters))


_first = itemgetter(0)


def _track_steppers(domain, masks, back):
    """Per slot of a track, a stepper of the domain's successor masks
    (back: predecessor masks) within the slot's mask, one per distinct
    mask: a cycle's phases and the letters psi merges share theirs."""
    steps = domain.pred_masks if back else domain.succ_masks
    steppers = {keep: stepper(steps, keep) for keep in dict.fromkeys(masks)}
    return [steppers[keep] for keep in masks]


def _side_closures(domain, tracks, labels, cycle, cap):
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
    through one stepper per mask and direction, built on the closure's
    first step and dropped with it.  Tuples whose first track empties
    are dropped, and so is a side with none left.  Both closures start
    from the one-letter blocks, whose rows and columns are alike.
    Returns the (left, right) closures: graphs.closure generators, which
    grow a level only when it is asked for.  They read nothing but these
    arguments and the domain's successor masks.
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
        # steppers[slot] holds each track's stepper for the slot, built on
        # the first call: a minimum proved at the seeds needs none
        steppers = None

        def grow(side, word):
            nonlocal steppers
            if steppers is None:
                steppers = list(
                    zip(*(_track_steppers(domain, masks, back) for masks in tracks))
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
        closure(seeds, grower(False, follows), cap),
        closure(seeds, grower(True, precedes), cap),
    )


def _side_minimum(domain, tracks, labels, cycle, score, cap):
    """_closure_minimum of score over _side_closures(domain, tracks,
    labels, cycle, cap), computed once per distinct question.

    A last track whose masks equal the first track's slot by slot (psi
    one-to-one on phi's letters) is dropped first: its rows would repeat
    the first track's in every tuple, so score reads the same sets from
    the one track, and the closures grow the same levels.  The minimum
    is then kept in _MINIMA under everything the closures and score
    read: the domain's successor masks (its predecessor masks and step
    tables follow from them), the tracks, labels, cycle, score and cap.
    Words are label indices, so equal keys give equal answers whatever
    the symbols are called, and a relative degree over a one-to-one psi
    shares the absolute degree's entry.  A closure that passes cap
    raises ResourceLimit and keeps nothing.
    """
    if tracks[-1] == tracks[0]:
        tracks = tracks[:1]
    labels = tuple(labels)
    key = (domain.succ_masks, tracks, labels, cycle, score, cap)
    if key in _MINIMA:
        return _MINIMA[key]
    found = _closure_minimum(_side_closures(domain, tracks, labels, cycle, cap), score)
    return remember(_MINIMA, key, found)


def _closure_minimum(sides, score):
    """Exact minimum of score over every block and split point.

    sides are the (left, right) closures of _side_closures, generators of
    levels.  Block u + v[1:] splits into u's left side and v's right
    side, u's tail slot being v's head slot; score(rows, cols, limit)
    returns the pair's value, at least 1, when it is at most limit (None:
    no limit), otherwise None.  Pairs are scored one total length at a
    time, each once, and limit never grows from one call to the next.
    Total length t needs levels 1..t of each closure, so each level is
    pulled when its total length comes up, and a value of 1 ends the
    search before any later level is grown.  Every side keeps the least
    of its shortest words, so the pairs reach the shortest block
    attaining the minimum, lexicographically least among those, at its
    first attaining split.  Returns (value, word, split, depth) for it,
    with depth the larger count of levels pulled from the two closures
    (all of them unless the value is 1); None when no pair scores.
    """
    left_levels, right_levels = sides
    left = []
    heads = []  # per right level pulled: head slot -> [(cols, word)]
    best = None  # (value, total length, word, split)
    limit = None  # ties allowed within best's total length, not after it
    for total in count(1):
        left.extend(islice(left_levels, 1))
        for level in islice(right_levels, 1):
            by_head = {}
            for (head, cols), word in level:
                by_head.setdefault(head, []).append((cols, word))
            heads.append(by_head)
        if total >= len(left) + len(heads):
            break
        for la in range(max(1, total + 1 - len(heads)), min(total, len(left)) + 1):
            by_head = heads[total - la]
            for (tail, rows), word_a in left[la - 1]:
                for cols, word_b in by_head.get(tail, ()):
                    value = score(rows, cols, limit)
                    if value is None:
                        continue
                    key = (value, total, word_a + word_b[1:], la)
                    if best is None or key < best:
                        best = key
                        limit = value
        if best is not None:
            if best[0] == 1:
                break
            limit = best[0] - 1
    if best is None:
        return None
    return best[0], best[2], best[3], max(len(left), len(heads))


def iter_fiber(code, word_layers, cap=DEFAULT_CAP):
    """Yield preimage paths through pruned layers in lexicographic order
    of domain symbol indices; past cap paths, raise ResourceLimit.

    Prefixes grow one layer at a time, each by the iter_bits list of its
    last symbol's successors in the next layer, and the last layer is
    added one path at a time as they are yielded.  On pruned layers every
    prefix extends, so the first cap + 1 prefixes of a layer hold the
    first cap + 1 paths and the rest are dropped."""
    if word_layers is None:
        return
    succ = code.domain.succ_masks
    paths = [(s,) for s in iter_bits(word_layers[0])]
    if len(word_layers) > 1:
        for layer in word_layers[1:-1]:
            paths = [p + (t,) for p in paths for t in iter_bits(succ[p[-1]] & layer)]
            del paths[cap + 1 :]
        last = word_layers[-1]
        paths = (p + (t,) for p in paths for t in iter_bits(succ[p[-1]] & last))
    for count, path in enumerate(paths, 1):
        if count > cap:
            raise ResourceLimit(f"fiber larger than {cap} blocks")
        yield path


@dataclass(frozen=True)
class FiberSlice:
    """All preimage blocks of a word, with the per-coordinate symbol sets."""

    w: Block
    preimages: tuple
    by_coordinate: tuple

    def __len__(self):
        return len(self.preimages)


def preimage_blocks(code, w, cap=DEFAULT_CAP):
    word = tuple(w.symbols)
    layers = pruned_layers(code, word)
    symbols = code.domain.alphabet.symbols
    if layers is None:
        return FiberSlice(w, (), tuple(() for _ in word))
    pre = tuple(
        Block(tuple(symbols[i] for i in path)) for path in iter_fiber(code, layers, cap)
    )
    by_coord = tuple(tuple(symbols[i] for i in iter_bits(m)) for m in layers)
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


@dataclass(frozen=True)
class StabilizationInfo:
    scanned_length: int
    certified: bool


@dataclass(frozen=True)
class MagicBlockResult:
    block: Block
    coordinate: int
    value: int
    certified: StabilizationInfo


def _magic_score(rows, cols, limit):
    """Preimage symbols at the split: ends of the left piece's paths that
    start the right piece's."""
    ends = starts = 0
    for row in rows:
        ends |= row[0]
    for col in cols:
        starts |= col[0]
    count = (ends & starts).bit_count()
    return count if count and (limit is None or count <= limit) else None


def find_magic_block(code, max_len=None, cap=DEFAULT_CAP):
    """Minimise the per-coordinate preimage symbol count over all codomain
    blocks, exactly, by the fiber-matrix closure.

    Ties break to the shortest block, then lexicographic in
    codomain_alphabet order, then the smallest coordinate.  The reported
    scanned_length is the larger number of levels grown in the two side
    closures: all of them, unless a coordinate with one preimage symbol
    ends the search at its block's length.  ResourceLimit when a closure
    passes cap sides first.  max_len is neither read nor checked: it
    stays only for callers that still pass a scan length positionally.
    """
    letters = code.codomain_alphabet.symbols
    tracks = (_letter_masks(code, letters),)
    found = _side_minimum(
        code.domain, tracks, range(len(letters)), False, _magic_score, cap
    )
    if found is None:
        raise InvalidBlock("codomain language is empty")
    value, word, coordinate, depth = found
    block = Block(tuple(letters[i] for i in word))
    return MagicBlockResult(block, coordinate, value, StabilizationInfo(depth, True))


def degree_finite_to_one(code, *, cap=DEFAULT_CAP):
    """Preimage count of typical points of a finite-to-one code, read off
    the magic block minimum."""
    from .codes import is_finite_to_one

    if not is_finite_to_one(code):
        raise NotFiniteToOne("code has unboundedly many preimages")
    return find_magic_block(code, cap=cap).value
