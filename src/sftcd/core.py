"""Vertex shifts of finite type, their blocks, and periodic points.

A shift is presented by a finite directed graph on its alphabet: a word is a
block of the shift exactly when every adjacent pair of symbols is an allowed
edge.  Coordinates are 1-based in the public interface, matching the usual
window notation w|_1 .. w|_{|w|}.

Sets of symbols are bitmasks over the alphabet index.  One function,
stepper, steps a set: step(mask) is the union of masks[i] (a symbol's
successors, say) over the set bits i of mask, read off one union_table
per run of TABLE_SYMBOLS masks, with an optional keep mask folded into
every entry.  A shift's step_mask and step_mask_back are steppers of its
successor and predecessor masks, built on first use and kept; a shift of
at most TABLE_SYMBOLS symbols has one table, and its step is that
table's own __getitem__, one lookup with no Python frame of its own.
Listing the members of a set reads a table of the bit lists of every
byte.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import InvalidBlock, InvariantViolation, ResourceLimit, UnknownSymbol
from .graphs import reach

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
        if len(set(self.symbols)) != len(self.symbols):
            raise InvariantViolation("alphabet has duplicate symbols")
        for s in self.symbols:
            if not s or SEPARATOR in s:
                raise InvariantViolation(f"bad symbol {s!r}")

    @cached_property
    def _index(self):
        return {s: i for i, s in enumerate(self.symbols)}

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


@dataclass(frozen=True)
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
    """Parse a block written either as plain characters (single-character
    alphabets) or with interpunct-separated symbols."""
    if not text:
        raise InvalidBlock("empty block text")
    if SEPARATOR in text:
        parts = tuple(text.split(SEPARATOR))
    elif alphabet.single_char:
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
    """

    alphabet: Alphabet
    allowed: frozenset

    def __post_init__(self):
        _check_pairs(self.alphabet._index, self.allowed)
        outs = {s: 0 for s in self.alphabet}
        ins = {s: 0 for s in self.alphabet}
        for a, b in self.allowed:
            outs[a] += 1
            ins[b] += 1
        for s in self.alphabet:
            if outs[s] == 0 or ins[s] == 0:
                raise InvariantViolation(
                    f"symbol {s!r} is stranded (use VertexShift.build to trim)"
                )

    @staticmethod
    def build(symbols, pairs):
        """Construct a shift, trimming symbols with no outgoing or no
        incoming pair until the presentation is essential."""
        symbols = list(symbols)
        pairs = set(tuple(p) for p in pairs)
        _check_pairs({s: i for i, s in enumerate(dict.fromkeys(symbols))}, pairs)
        alive = set(symbols)
        while True:
            outs = {s: 0 for s in alive}
            ins = {s: 0 for s in alive}
            for a, b in pairs:
                if a in alive and b in alive:
                    outs[a] += 1
                    ins[b] += 1
            dead = {s for s in alive if outs[s] == 0 or ins[s] == 0}
            if not dead:
                break
            alive -= dead
            if not alive:
                raise InvariantViolation("every symbol was trimmed away")
        kept = tuple(s for s in symbols if s in alive)
        kept_pairs = frozenset((a, b) for a, b in pairs if a in alive and b in alive)
        return VertexShift(Alphabet(kept), kept_pairs)

    @staticmethod
    def full_shift(symbols):
        symbols = tuple(symbols)
        return VertexShift(
            Alphabet(symbols), frozenset((a, b) for a in symbols for b in symbols)
        )

    # cached adjacency structure, all keyed by alphabet index

    @cached_property
    def succ_masks(self):
        masks = [0] * len(self.alphabet)
        for a, b in self.allowed:
            masks[self.alphabet.index(a)] |= 1 << self.alphabet.index(b)
        return tuple(masks)

    @cached_property
    def pred_masks(self):
        masks = [0] * len(self.alphabet)
        for a, b in self.allowed:
            masks[self.alphabet.index(b)] |= 1 << self.alphabet.index(a)
        return tuple(masks)

    @cached_property
    def succ_lists(self):
        return {
            s: tuple(
                self.alphabet.symbols[i]
                for i in iter_bits(self.succ_masks[self.alphabet.index(s)])
            )
            for s in self.alphabet
        }

    def allows(self, a, b):
        return (a, b) in self.allowed

    def successors(self, a):
        return self.succ_lists[a]

    @cached_property
    def irreducible(self):
        """Its presentation graph is strongly connected: symbol 0 reaches
        every symbol forwards and backwards."""
        full = (1 << len(self.alphabet)) - 1
        return reach(self.step_mask, 1) == full == reach(self.step_mask_back, 1)

    @cached_property
    def step_mask(self):
        """step_mask(mask): union of successors of every symbol in mask."""
        return stepper(self.succ_masks)

    @cached_property
    def step_mask_back(self):
        """step_mask_back(mask): union of predecessors of every symbol in
        mask."""
        return stepper(self.pred_masks)


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


def enumerate_blocks(shift, length, cap=DEFAULT_CAP):
    """All blocks of the given length in lexicographic order of the
    alphabet.  Raises ResourceLimit beyond cap blocks."""
    if length < 1:
        raise InvalidBlock("length must be positive")
    out = []
    symbols = shift.alphabet.symbols
    succ = shift.succ_lists

    def extend(prefix):
        if len(prefix) == length:
            out.append(Block(tuple(prefix)))
            if len(out) > cap:
                raise ResourceLimit(f"more than {cap} blocks of length {length}")
            return
        for nxt in succ[prefix[-1]]:
            prefix.append(nxt)
            extend(prefix)
            prefix.pop()

    for first in symbols:
        extend([first])
    return out


def count_blocks(shift, length):
    """Number of blocks of the given length, by dynamic programming."""
    if length < 1:
        raise InvalidBlock("length must be positive")
    counts = {s: 1 for s in shift.alphabet}
    for _ in range(length - 1):
        counts = {
            s: sum(counts[t] for t in shift.successors(s)) for s in shift.alphabet
        }
    return sum(counts.values())


def is_irreducible(shift):
    """Irreducible = its presentation graph is strongly connected, decided
    once per shift (VertexShift.irreducible)."""
    return shift.irreducible


@dataclass(frozen=True)
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


def periodic_points_of(shift, max_period, cap=DEFAULT_CAP):
    """Periodic points of period at most max_period, via cycle
    enumeration: one point for each start of a cycle at its least symbol,
    so every orbit is present, once per occurrence of that symbol (the
    golden mean shift gives (0001), (0001)@1 and (0001)@2).  Sorted by
    (period, cycle, phase)."""
    if max_period < 1:
        raise InvalidBlock("max_period must be positive")
    found = set()
    symbols = shift.alphabet.symbols

    def walk(path, start):
        if len(found) > cap:
            raise ResourceLimit(f"more than {cap} periodic points")
        last = path[-1]
        if shift.allows(last, start):
            found.add(PeriodicPoint.make(tuple(path)))
        if len(path) == max_period:
            return
        for nxt in shift.successors(last):
            # only canonical starts: avoid cycles through smaller symbols
            if nxt >= start:
                path.append(nxt)
                walk(path, start)
                path.pop()

    for s in symbols:
        walk([s], s)
    return sorted(found, key=lambda q: (q.period, q.cycle.symbols, q.phase))
