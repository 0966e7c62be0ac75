"""Fibers of blocks under a letter-to-letter code.

The preimage set of a codomain word is handled as a layered graph: layer i
holds the domain symbols that can sit at coordinate i of a preimage.  A
forward sweep and a backward sweep prune the layers so that exactly the
symbols lying on complete preimage paths remain.  On pruned layers every
prefix extends, so iter_fiber grows the paths one layer at a time, and
count_fiber counts them by a sweep of per-symbol path counts without
listing any.

Minimising a quantity over all blocks is done exactly on fiber matrices:
P_w has row s = the end symbols of the fiber paths of w starting at s.
What a block shows at a split point depends only on the matrices of the
two pieces, and the reachable matrices form a finite set, so a
breadth-first closure of that set followed by a minimum over joinable
pairs is exhaustive (Lind & Marcus, section 9.1).

A closure steps every row of a matrix by a table lookup: per track and
distinct letter it builds a union_table of the domain's successor masks
with the letter's mask folded in (domains past WALK_TABLE_SYMBOLS
symbols step through code.step instead).  Those per-letter tables live
only as long as one walk; kept on the codes, they would stay alive with
every code the harness caches hold.  The scoring of a split reads sides
computed once per state.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import groupby

from .core import Block, DEFAULT_CAP, iter_bits, union_table
from .errors import InvalidBlock, NotFiniteToOne, ResourceLimit, UnknownSymbol
from .graphs import closure


def forward_layers(code, word):
    """Raw forward filter: layers[i] = symbols carrying word[i] reachable
    from layer i-1.  Returns None as soon as a layer dies."""
    layers = [code.letter_mask(letter) for letter in word]
    step = code.domain.step_mask
    mask = layers[0]
    for i in range(1, len(layers)):
        if not mask:
            return None
        mask = layers[i] = step(mask) & layers[i]
    return layers if mask else None


def pruned_layers(code, word):
    """Layers restricted to complete preimage paths, or None for an empty
    fiber.  Every symbol of a live forward layer has a predecessor in the
    layer before, so the backward sweep empties no layer."""
    layers = forward_layers(code, word)
    if layers is None:
        return None
    back = code.domain.step_mask_back
    mask = layers[-1]
    for i in range(len(layers) - 2, -1, -1):
        mask = layers[i] = back(mask) & layers[i]
    return layers


def _letter_matrix(code, letter):
    """P_a as row bitmasks: row s is {s} when s carries letter, else empty."""
    mask = code.letter_mask(letter)
    return tuple(mask & (1 << s) for s in range(len(code.domain.alphabet)))


# a walk steps rows through one union_table (2**n entries) up to this many
# domain symbols, through code.step beyond it: building up to 1024 entries
# per letter costs less than a second lookup on every row step
WALK_TABLE_SYMBOLS = 10


def _row_stepper(code, letter):
    """One row of a fiber-matrix step: successors of the row that carry
    letter, read off a table with the letter mask folded in."""
    masks = code.domain.succ_masks
    if len(masks) <= WALK_TABLE_SYMBOLS:
        return union_table(masks, code.letter_mask(letter)).__getitem__
    return partial(code.step, letter=letter)


def _track_steppers(code, letters):
    """_row_stepper for every slot, one per distinct letter: a cycle's
    phases and the letters psi merges share theirs."""
    steppers = {letter: _row_stepper(code, letter) for letter in dict.fromkeys(letters)}
    return [steppers[letter] for letter in letters]


def _walk(tracks, labels, follows):
    """Seeds and successors of a fiber-matrix closure.

    A state is (head, tail, P_1, ..., P_k): head and tail are the slots of
    the block's first and last letter, one matrix per track.  Slots are
    letters, or phases of a cycle; labels[slot] is the letter index a word
    records and follows(slot) the slots that may come next, in order.
    tracks are (code, letters) with letters[slot] the code's codomain
    letter there.  A block belongs when its first matrix is nonzero.

    Each track steps its matrix rows through one table per letter,
    built here and dropped with the walk (see the module docstring).
    """
    # steppers[slot] holds each track's stepper for the slot
    steppers = list(zip(*(_track_steppers(code, letters) for code, letters in tracks)))

    seeds = []
    for slot in sorted(range(len(labels)), key=labels.__getitem__):
        mats = tuple(_letter_matrix(code, letters[slot]) for code, letters in tracks)
        if any(mats[0]):
            seeds.append(((slot, slot) + mats, (labels[slot],)))

    def successors(state):
        for slot in follows(state[1]):
            # each track's rows through that track's stepper
            mats = tuple(map(tuple, map(map, steppers[slot], state[2:])))
            if any(mats[0]):
                yield labels[slot], (state[0], slot) + mats

    return seeds, successors


def _block_walk(tracks):
    """Closure inputs over every block of the first track's codomain."""
    letters = range(len(tracks[0][1]))
    return _walk(tracks, letters, lambda _: letters)


def _closure_minimum(seeds, successors, side, score, cap):
    """Exact minimum of score over every block and split point.

    seeds are (state, word) for the one-letter blocks in letter order and
    successors(state) yields (letter, state) in letter order, so
    graphs.closure keeps the shortlex-least word of every state.
    side(state) is what score needs of a state, computed once, when the
    state's length is first reached.  Block u + v[1:] splits into states
    (A, B) with A's tail equal to B's head; score(side(A), side(B), limit)
    returns the pair's value when it is at most limit (None: no limit),
    otherwise None.  Pairs are scored one total length at a time, and
    limit never grows from one call to the next.  Returns (value, word,
    split, depth) for the shortest block attaining the minimum,
    lexicographically least among those, at its first attaining split,
    with depth the closure's number of levels; None when no pair scores.
    Raises ResourceLimit past cap states.
    """
    words = closure(seeds, successors, cap)
    if not words:
        return None
    depth = max(map(len, words.values()))
    # words is in breadth-first order, so its states come level by level
    levels = groupby(words.items(), lambda item: len(item[1]))
    by_len = [[] for _ in range(depth + 1)]
    by_head = {}
    best = None  # (value, total length, word, split)
    limit = None  # ties allowed within best's total length, not after it
    for total in range(1, 2 * depth):
        if total <= depth:  # states of length n first pair up at total n
            n, level = next(levels)
            assert n == total
            for state, word in level:
                entry = (state[1], word, side(state))
                by_len[total].append(entry)
                by_head.setdefault((total, state[0]), []).append(entry)
        for la in range(max(1, total + 1 - depth), min(total, depth) + 1):
            lb = total + 1 - la
            for tail, word_a, side_a in by_len[la]:
                for _, word_b, side_b in by_head.get((lb, tail), ()):
                    value = score(side_a, side_b, limit)
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
    return best[0], best[2], best[3], depth


def _check_word(code, block):
    for s in block.symbols:
        if s not in code.codomain_alphabet:
            raise UnknownSymbol(f"symbol {s!r} not in codomain alphabet")
    return tuple(block.symbols)


def iter_fiber(code, word_layers, cap=DEFAULT_CAP):
    """Yield preimage paths through pruned layers in lexicographic order
    of domain symbol indices; past cap paths, raise ResourceLimit.

    Prefixes grow one layer at a time, each symbol's successors in the
    next layer listed once, and the last layer is added one path at a
    time as they are yielded.  On pruned layers every prefix extends, so
    the first cap + 1 prefixes of a layer hold the first cap + 1 paths
    and the rest are dropped."""
    if word_layers is None:
        return
    succ = code.domain.succ_masks
    paths = [(s,) for s in iter_bits(word_layers[0])]
    if len(word_layers) > 1:
        for prev, layer in zip(word_layers, word_layers[1:-1]):
            ext = _extensions(succ, prev, layer)
            paths = [path + t for path in paths for t in ext[path[-1]]]
            del paths[cap + 1 :]
        ext = _extensions(succ, word_layers[-2], word_layers[-1])
        paths = (path + t for path in paths for t in ext[path[-1]])
    for count, path in enumerate(paths, 1):
        if count > cap:
            raise ResourceLimit(f"fiber larger than {cap} blocks")
        yield path


def _extensions(succ, prev, layer):
    """{s: [(t,) for each successor t of s in layer]} for s in prev."""
    return {s: [(t,) for t in iter_bits(succ[s] & layer)] for s in iter_bits(prev)}


def count_fiber(code, word_layers):
    """Number of preimage paths through pruned layers (0 for None), by a
    forward sweep of per-symbol path counts."""
    if word_layers is None:
        return 0
    succ = code.domain.succ_masks
    counts = dict.fromkeys(iter_bits(word_layers[0]), 1)
    for layer in word_layers[1:]:
        nxt = {}
        for s, c in counts.items():
            for t in iter_bits(succ[s] & layer):
                nxt[t] = nxt.get(t, 0) + c
        counts = nxt
    return sum(counts.values())


@dataclass(frozen=True)
class FiberSlice:
    """All preimage blocks of a word, with the per-coordinate symbol sets."""

    w: Block
    preimages: tuple
    by_coordinate: tuple

    def __len__(self):
        return len(self.preimages)


def preimage_blocks(code, w, cap=DEFAULT_CAP):
    word = _check_word(code, w)
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
    word = _check_word(code, w)
    if not 1 <= i <= len(word):
        raise InvalidBlock(f"coordinate {i} outside 1..{len(word)}")
    layers = pruned_layers(code, word)
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


def _magic_side(state):
    """(ends, starts) of the first matrix: the end symbols of its paths
    and the start symbols that have one."""
    ends = starts = 0
    for s, row in enumerate(state[2]):
        if row:
            ends |= row
            starts |= 1 << s
    return ends, starts


def _magic_score(a, b, limit):
    """Preimage symbols at the split: ends of A's paths that start B's."""
    count = (a[0] & b[1]).bit_count()
    return count if count and (limit is None or count <= limit) else None


def find_magic_block(code, max_len, cap=DEFAULT_CAP):
    """Minimise the per-coordinate preimage symbol count over all codomain
    blocks, exactly, by the fiber-matrix closure.

    Ties break to the shortest block, then lexicographic in
    codomain_alphabet order, then the smallest coordinate.  max_len is
    only checked to be positive; the reported scanned_length is the
    closure depth.
    """
    if max_len < 1:
        raise InvalidBlock("max_len must be positive")
    letters = code.codomain_alphabet.symbols
    found = _closure_minimum(
        *_block_walk(((code, letters),)), _magic_side, _magic_score, cap
    )
    if found is None:
        raise InvalidBlock("codomain language is empty")
    value, word, coordinate, depth = found
    block = Block(tuple(letters[i] for i in word))
    return MagicBlockResult(block, coordinate, value, StabilizationInfo(depth, True))


def degree_finite_to_one(code, max_len, cap=DEFAULT_CAP):
    """Preimage count of typical points of a finite-to-one code, read off
    the magic block minimum."""
    from .codes import is_finite_to_one

    if not is_finite_to_one(code):
        raise NotFiniteToOne("code has unboundedly many preimages")
    return find_magic_block(code, max_len, cap).value
