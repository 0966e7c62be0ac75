"""Vertex shifts of finite type, their blocks, and periodic points.

A shift is presented by a finite directed graph on its alphabet: a word is a
block of the shift exactly when every adjacent pair of symbols is an allowed
edge.  Coordinates are 1-based in the public interface, matching the usual
window notation w|_1 .. w|_{|w|}.

Sets of symbols are bitmasks over the alphabet index.  One function,
stepper, steps a set: step(mask) is the union of masks[i] (a symbol's
successors, say) over the set bits i of mask, read off one union_table
per run of TABLE_SYMBOLS masks, with an optional keep mask folded into
every entry.  A shift keeps one stepper of its successor or predecessor
masks per (direction, keep mask), built on the first ask
(VertexShift.kept_stepper), so the closures on one shift share them and
they go when the shift does; step_mask and step_mask_back are its
entries with nothing kept out.  A shift of at most TABLE_SYMBOLS symbols
has one table per stepper, and the step is that table's own
__getitem__, one lookup with no Python frame of its own.
Listing the members of a set reads a table of the bit lists of every
byte.

Construction keeps what it validates.  An Alphabet keeps the symbol
index that its duplicate check builds, and a VertexShift the successor
and predecessor masks of the one pass that checks its pairs and finds
stranded symbols.  VertexShift.build trims on masks built in one such
pass and, when it trims nothing, hands them to the shift it returns, so
the pairs are not walked again.  Whatever a
shift computes on first read (its steppers, irreducibility) is kept by
cached, functools.cached_property without the lock.

Every enumeration and closure stops at one bound, DEFAULT_CAP, read when
it starts.  One lister, iter_paths, lists a shift's blocks (paths through
full layers) and a fiber's preimages by a depth-first walk that holds one
prefix at a time, and nothing here recurses.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidBlock, InvariantViolation, ResourceLimit, UnknownSymbol
from .graphs import reach

# the one bound of every enumeration and closure, read when each starts
DEFAULT_CAP = 10**6

SEPARATOR = "·"  # interpunct, used to join multi-character symbols


# _BYTE_BITS[b] = the set bit positions of the byte b, lowest first
_BYTE_BITS = tuple(tuple(i for i in range(8) if b >> i & 1) for b in range(256))


def iter_bits(mask):
    """Set bit positions of mask, lowest first, as a tuple: the bit list
    of each byte read off _BYTE_BITS and moved to that byte's offset."""
    bits = _BYTE_BITS[mask & 0xFF]
    mask >>= 8
    offset = 8
    while mask:
        if mask & 0xFF:
            bits += tuple([offset + i for i in _BYTE_BITS[mask & 0xFF]])
        mask >>= 8
        offset += 8
    return bits


def union_table(masks, keep=-1):
    """table[b] = the union of masks[i] over the set bits i of b,
    intersected with keep: 2**len(masks) entries."""
    table = [0]
    for m in masks:
        m &= keep
        table += [t | m for t in table]
    return tuple(table)


class cached:
    """An attribute computed on its first read and kept: the value goes
    into the instance's __dict__ under the attribute's name, where every
    later read finds it before this (non-data) descriptor.  It is
    functools.cached_property without the lock that Python 3.10 and 3.11
    take on each first read; nothing here reads one from two threads.
    A class that uses it keeps its __dict__, so it is not slotted."""

    def __init__(self, fn):
        self.fn = fn
        self.__doc__ = fn.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


# masks per stepper table (2**10 entries): domains of up to 10 symbols,
# mod3's 9 among them, step by one lookup
TABLE_SYMBOLS = 10
_RUN = (1 << TABLE_SYMBOLS) - 1


def stepper(masks, keep=-1):
    """step(mask) = the union of masks[i] over the set bits i of mask,
    intersected with keep.  One union_table per run of TABLE_SYMBOLS
    masks, keep folded in; with a single run, step is that table's own
    __getitem__."""
    tables = [
        union_table(masks[i : i + TABLE_SYMBOLS], keep)
        for i in range(0, len(masks), TABLE_SYMBOLS)
    ]
    if len(tables) == 1:
        return tables[0].__getitem__

    def step(mask):
        out = 0
        for table in tables:
            out |= table[mask & _RUN]
            mask >>= TABLE_SYMBOLS
        return out

    return step


@dataclass(frozen=True)
class Alphabet:
    symbols: tuple[str, ...]

    def __post_init__(self):
        if not self.symbols:
            raise InvariantViolation("alphabet is empty")
        # symbol -> alphabet index, kept from the duplicate check
        index = {s: i for i, s in enumerate(self.symbols)}
        if len(index) != len(self.symbols):
            raise InvariantViolation("alphabet has duplicate symbols")
        for s in self.symbols:
            if not s or SEPARATOR in s:
                raise InvariantViolation(f"bad symbol {s!r}")
        object.__setattr__(self, "_index", index)

    def index(self, symbol):
        try:
            return self._index[symbol]
        except KeyError:
            raise UnknownSymbol(f"symbol {symbol!r} not in alphabet") from None

    def __contains__(self, symbol):
        return symbol in self._index

    def __len__(self):
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    @property
    def single_char(self):
        return all(len(s) == 1 for s in self.symbols)


@dataclass(frozen=True, slots=True)
class Block:
    """A finite word.  Validity against a particular shift is checked
    separately by validate_block."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        if not self.symbols:
            raise InvalidBlock("empty block")

    def __len__(self):
        return len(self.symbols)

    def at(self, i):
        """Symbol at 1-based coordinate i."""
        if not 1 <= i <= len(self.symbols):
            raise InvalidBlock(f"coordinate {i} outside 1..{len(self.symbols)}")
        return self.symbols[i - 1]

    def window(self, i, j):
        """Sub-block on coordinates i..j inclusive, 1-based."""
        if not 1 <= i <= j <= len(self.symbols):
            raise InvalidBlock(f"window {i}..{j} outside 1..{len(self.symbols)}")
        return Block(self.symbols[i - 1 : j])

    def text(self):
        if all(len(s) == 1 for s in self.symbols):
            return "".join(self.symbols)
        return SEPARATOR.join(self.symbols)


def parse_block_text(alphabet, text):
    """Parse a block written with interpunct-separated symbols or as plain
    characters.  Plain text is one symbol, unless the alphabet has only
    one-character symbols or the text is no symbol but each character is."""
    if not text:
        raise InvalidBlock("empty block text")
    if SEPARATOR in text:
        parts = tuple(text.split(SEPARATOR))
    elif alphabet.single_char or (
        text not in alphabet and all(c in alphabet for c in text)
    ):
        parts = tuple(text)
    else:
        parts = (text,)
    for p in parts:
        if p not in alphabet:
            raise UnknownSymbol(f"symbol {p!r} not in alphabet")
    return Block(parts)


@dataclass(frozen=True)
class VertexShift:
    """One-step shift of finite type presented on its alphabet.

    Invariant: every symbol has at least one outgoing and one incoming
    allowed pair, so every symbol occurs in a bi-infinite point.  Use
    VertexShift.build to construct from raw data; it trims stranded
    symbols iteratively before fixing the alphabet.

    succ_masks[i] (pred_masks[i]) is the bitmask of the successors
    (predecessors) of the symbol of alphabet index i, built in the one
    pass over allowed that checks its pairs.
    """

    alphabet: Alphabet
    allowed: frozenset

    def __post_init__(self):
        succ, pred = _adjacency(self.alphabet._index, self.allowed)
        for s, out, into in zip(self.alphabet.symbols, succ, pred):
            if not out or not into:
                raise InvariantViolation(
                    f"symbol {s!r} is stranded (use VertexShift.build to trim)"
                )
        object.__setattr__(self, "succ_masks", tuple(succ))
        object.__setattr__(self, "pred_masks", tuple(pred))

    @staticmethod
    def build(symbols, pairs):
        """Construct a shift, trimming symbols with no outgoing or no
        incoming pair until the presentation is essential.  When nothing
        is trimmed, the masks the trimming read are handed to the shift,
        so the pairs are walked once."""
        symbols = list(symbols)
        pairs = set(tuple(p) for p in pairs)
        index = {s: i for i, s in enumerate(dict.fromkeys(symbols))}
        succ, pred = _adjacency(index, pairs)
        # alive: the mask of the symbols not yet trimmed
        alive = (1 << len(index)) - 1
        while True:
            held = 0
            for i in iter_bits(alive):
                if succ[i] & alive and pred[i] & alive:
                    held |= 1 << i
            if held == alive:
                break
            alive = held
            if not alive:
                raise InvariantViolation("every symbol was trimmed away")
        alphabet = Alphabet(tuple(s for s in symbols if alive >> index[s] & 1))
        if alive != (1 << len(index)) - 1:
            kept_pairs = frozenset(
                (a, b) for a, b in pairs if (alive >> index[a]) & (alive >> index[b]) & 1
            )
            return VertexShift(alphabet, kept_pairs)
        # nothing trimmed: succ and pred are the shift's own masks and no
        # symbol is stranded, so the constructor's walk is not repeated
        shift = object.__new__(VertexShift)
        object.__setattr__(shift, "alphabet", alphabet)
        object.__setattr__(shift, "allowed", frozenset(pairs))
        object.__setattr__(shift, "succ_masks", tuple(succ))
        object.__setattr__(shift, "pred_masks", tuple(pred))
        return shift

    @staticmethod
    def full_shift(symbols):
        symbols = tuple(symbols)
        return VertexShift(
            Alphabet(symbols), frozenset((a, b) for a in symbols for b in symbols)
        )

    def allows(self, a, b):
        return (a, b) in self.allowed

    def successors(self, a):
        """The successors of the symbol a, in alphabet order."""
        spell = self.alphabet.symbols.__getitem__
        return tuple(map(spell, iter_bits(self.succ_masks[self.alphabet.index(a)])))

    @cached
    def irreducible(self):
        """Its presentation graph is strongly connected: symbol 0 reaches
        every symbol forwards and backwards."""
        full = (1 << len(self.alphabet)) - 1
        return reach(self.succ_masks, 1) == full == reach(self.pred_masks, 1)

    @cached
    def _steppers(self):
        # (back, keep) -> kept_stepper(keep, back), filled on first ask
        return {}

    def kept_stepper(self, keep=-1, back=False):
        """step(mask): the union of the successors (back: predecessors) of
        every symbol in mask, intersected with keep.  Built by stepper on
        the first ask and kept with the shift, so every closure on it
        shares one stepper per (direction, keep), and the tables go when
        the shift does."""
        step = self._steppers.get((back, keep))
        if step is None:
            masks = self.pred_masks if back else self.succ_masks
            step = self._steppers[back, keep] = stepper(masks, keep)
        return step

    @cached
    def step_mask(self):
        """step_mask(mask): union of successors of every symbol in mask."""
        return self.kept_stepper()

    @cached
    def step_mask_back(self):
        """step_mask_back(mask): union of predecessors of every symbol in
        mask."""
        return self.kept_stepper(back=True)


def _adjacency(index, pairs):
    """(succ, pred) in one pass over pairs: succ[i] (pred[i]) the mask of
    the indices of the symbols that may follow (precede) the symbol of
    index i, index mapping symbol -> alphabet index.  A pair outside
    index raises UnknownSymbol, naming the least such pair as
    _check_pairs does."""
    succ = [0] * len(index)
    pred = [0] * len(index)
    try:
        for a, b in pairs:
            i, j = index[a], index[b]
            succ[i] |= 1 << j
            pred[j] |= 1 << i
    except KeyError:
        _check_pairs(index, pairs)
        raise
    return succ, pred


def _check_pairs(index, pairs):
    """UnknownSymbol naming the least pair that uses a symbol outside
    index (symbol -> alphabet index): least by its first symbol's index,
    then its second's, an unknown symbol coming after every known one and
    unknown ones in name order, so the message never depends on the order
    a set of pairs is iterated in."""
    strays = [p for p in pairs if p[0] not in index or p[1] not in index]
    if strays:
        a, b = min(strays, key=lambda p: [(index.get(s, len(index)), s) for s in p])
        raise UnknownSymbol(f"pair ({a!r}, {b!r}) uses unknown symbols")


def validate_block(shift, block):
    """True when the word is a block of the shift.  Unknown symbols raise."""
    for s in block.symbols:
        if s not in shift.alphabet:
            raise UnknownSymbol(f"symbol {s!r} not in alphabet")
    return all(
        shift.allows(a, b) for a, b in zip(block.symbols, block.symbols[1:])
    )


def iter_paths(succ, layers, too_many, names=None):
    """Yield the paths through layers, bitmasks of symbol indices (succ[i]
    the mask of symbol i's successors), in lexicographic order of the
    indices, each as the tuple of names[i] over its symbols i (default:
    the indices); past DEFAULT_CAP paths, raise
    ResourceLimit(too_many.format(cap=DEFAULT_CAP)).  The walk is depth
    first from an explicit stack: stack[k] holds the untried symbols of
    layers[k] that can follow the current prefix, whose spelled symbols
    are kept in one list.  Each symbol of the last-but-one layer is
    spelled with the prefix once and extended by each of its successors
    in the last layer, spelled once per call.  So the walk holds one
    prefix and a path costs its length; where every prefix extends
    (pruned fiber layers, or full layers of an essential shift), so does
    the first path."""
    cap = DEFAULT_CAP
    spell = (range(len(succ)) if names is None else names).__getitem__
    if len(layers) == 1:
        # a one-layer path is its symbol, extended by nothing
        tails = dict.fromkeys(iter_bits(layers[0]), ((),))
    else:
        tails = {
            s: [(spell(t),) for t in iter_bits(succ[s] & layers[-1])]
            for s in iter_bits(layers[-2])
        }
    bottom = len(layers) - 1  # stack depth at the last-but-one layer
    left = cap
    prefix = []
    stack = [iter(iter_bits(layers[0]))]
    while stack:
        for s in stack[-1]:
            if len(stack) < bottom:
                prefix.append(spell(s))
                stack.append(iter(iter_bits(succ[s] & layers[len(stack)])))
                break
            head = (*prefix, spell(s))
            ends = tails[s]
            left -= len(ends)
            # past the cap, yield the paths up to it and raise
            for t in ends if left >= 0 else ends[:left]:
                yield head + t
            if left < 0:
                raise ResourceLimit(too_many.format(cap=cap))
        else:
            stack.pop()
            del prefix[-1:]


def enumerate_blocks(shift, length):
    """All blocks of the given length in lexicographic order of the
    alphabet: the paths through length full layers.  Raises
    ResourceLimit beyond DEFAULT_CAP blocks."""
    if length < 1:
        raise InvalidBlock("length must be positive")
    full = [(1 << len(shift.alphabet)) - 1] * length
    too_many = "more than {cap} blocks of length " + str(length)
    paths = iter_paths(shift.succ_masks, full, too_many, shift.alphabet.symbols)
    return list(map(Block, paths))


def count_blocks(shift, length):
    """Number of blocks of the given length, by dynamic programming."""
    return block_counts(shift, length)[-1]


def block_counts(shift, longest):
    """(number of blocks of length 1, ..., of length longest), in one
    dynamic programme: counts[i] is the number of blocks of the current
    length that start with the symbol of index i."""
    if longest < 1:
        raise InvalidBlock("length must be positive")
    counts = [1] * len(shift.alphabet)
    totals = [len(counts)]
    for _ in range(longest - 1):
        counts = [sum(map(counts.__getitem__, iter_bits(m))) for m in shift.succ_masks]
        totals.append(sum(counts))
    return tuple(totals)


def is_irreducible(shift):
    """Irreducible = its presentation graph is strongly connected, decided
    once per shift (VertexShift.irreducible)."""
    return shift.irreducible


@dataclass(frozen=True, slots=True)
class PeriodicPoint:
    """The bi-infinite repetition of a primitive cycle.

    Coordinate i carries cycle[(i - 1 + phase) mod period].  Construction
    through PeriodicPoint.make normalises to the lexicographically least
    rotation of the primitive cycle, so equal points compare equal.
    """

    cycle: Block
    phase: int

    @staticmethod
    def make(cycle, phase=0):
        if isinstance(cycle, Block):
            symbols = cycle.symbols
        else:
            symbols = tuple(cycle)
        if not symbols:
            raise InvalidBlock("empty cycle")
        # primitive reduction: the least period divides the length
        n = len(symbols)
        for d in range(1, n + 1):
            if n % d == 0 and symbols == symbols[: d] * (n // d):
                symbols = symbols[:d]
                break
        n = len(symbols)
        phase %= n
        # canonical rotation; rotating the cycle left by r means the phase
        # must drop by r to describe the same point
        best_r = min(range(n), key=lambda r: symbols[r:] + symbols[:r])
        rotated = symbols[best_r:] + symbols[:best_r]
        return PeriodicPoint(Block(rotated), (phase - best_r) % n)

    @property
    def period(self):
        return len(self.cycle)

    def symbol_at(self, i):
        return self.cycle.symbols[(i - 1 + self.phase) % self.period]

    def window(self, i, j):
        """Block on coordinates i..j inclusive."""
        if j < i:
            raise InvalidBlock(f"bad window {i}..{j}")
        return Block(tuple(self.symbol_at(k) for k in range(i, j + 1)))

    def shifted(self, k):
        """The point moved k coordinates to the left (coordinate i of the
        result is coordinate i + k of self)."""
        return PeriodicPoint.make(self.cycle, self.phase + k)

    def text(self):
        base = "(" + self.cycle.text() + ")"
        return base if self.phase == 0 else base + f"@{self.phase}"


def parse_point_text(alphabet, text):
    """Parse a periodic point written as "(cycle)" or "(cycle)@phase"."""
    body = text.strip()
    phase = 0
    if "@" in body:
        body, _, tail = body.partition("@")
        try:
            phase = int(tail)
        except ValueError:
            raise InvalidBlock(f"bad phase {tail!r}") from None
    if not (body.startswith("(") and body.endswith(")")):
        raise InvalidBlock(f"point text {text!r} lacks parentheses")
    cycle = parse_block_text(alphabet, body[1:-1])
    return PeriodicPoint.make(cycle, phase)


def is_point_of(shift, point):
    """True when every wrap-around pair of the cycle is allowed."""
    syms = point.cycle.symbols
    for s in syms:
        if s not in shift.alphabet:
            raise UnknownSymbol(f"symbol {s!r} not in alphabet")
    n = len(syms)
    return all(shift.allows(syms[k], syms[(k + 1) % n]) for k in range(n))


def blocks_of_periodic_point(point, length):
    """The set of blocks of the given length occurring in the point, in
    sorted order.  At most period many."""
    if length < 1:
        raise InvalidBlock("length must be positive")
    p = point.period
    seen = set()
    for start in range(p):
        seen.add(tuple(point.symbol_at(start + k) for k in range(1, length + 1)))
    return [Block(t) for t in sorted(seen)]


def periodic_points_of(shift, max_period):
    """Periodic points of period at most max_period, via cycle
    enumeration: one point for each start of a cycle at its least symbol,
    so every orbit is present, once per occurrence of that symbol (the
    golden mean shift gives (0001), (0001)@1 and (0001)@2).  Sorted by
    (period, cycle, phase).  Paths are walked from an explicit stack;
    past DEFAULT_CAP points, raises ResourceLimit."""
    if max_period < 1:
        raise InvalidBlock("max_period must be positive")
    cap = DEFAULT_CAP
    found = set()
    symbols = shift.alphabet.symbols
    succ = shift.succ_masks
    for s, start in enumerate(symbols):
        # only canonical starts: no symbol named below start
        within = sum(1 << i for i, name in enumerate(symbols) if name >= start)
        stack = [((start,), s)]
        while stack:
            path, last = stack.pop()
            if succ[last] >> s & 1:
                found.add(PeriodicPoint.make(path))
                if len(found) > cap:
                    raise ResourceLimit(f"more than {cap} periodic points")
            if len(path) < max_period:
                for t in iter_bits(succ[last] & within):
                    stack.append((path + (symbols[t],), t))
    return sorted(found, key=lambda q: (q.period, q.cycle.symbols, q.phase))
