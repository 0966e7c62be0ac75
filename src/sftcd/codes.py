"""Letter-to-letter codes between vertex shifts, and compositions of them.

A OneBlockCode maps each domain symbol to a codomain symbol and acts on
blocks and points coordinate-wise.  It keeps the letter masks (codomain
symbol -> mask of the domain symbols mapped to it) that its image check
builds, also as a tuple by codomain index, and the edge-compatibility
check, check_onto's memo key and the side closures read them.  compose
makes that check only when its inner code was not already checked
against the very shift it lands in.  Sliding-block rules with memory
and anticipation are supported through recoding: the domain is replaced
by its window shift (symbols are the valid windows, edges are overlaps)
on which the rule becomes letter-to-letter.  A CodeTriple is its two
codes, phi: X -> Y and psi: Y -> Z; CodeTriple.build also checks it.

Surjectivity (check_onto) is decided exactly, on the level-by-level
closure of graphs.py that also closes the fiber-matrix engine's sides,
and so is finite-to-one-ness (is_finite_to_one), by reachability on the
pair graph of same-image symbol pairs, kept as one bitmask per symbol.
Each surjectivity question is closed once per process: _ONTO keeps the
answer, its missing block as alphabet indices, under the masks the
closure reads and core.DEFAULT_CAP, so a repeated question, or the same
one under other symbol names, is read back and spelled in the asker's
symbols.  Constructors that refuse a pair of symbols name the least one
in alphabet-index order, found from successor masks, so a message never
depends on the order a set of pairs is iterated in.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    AlphabetMismatch,
    InvalidBlock,
    InvariantViolation,
    UnknownSymbol,
)
from .core import (
    Alphabet,
    Block,
    PeriodicPoint,
    VertexShift,
    cached,
    enumerate_blocks,
    is_irreducible,
    iter_bits,
    validate_block,
)
from . import core
from .graphs import closure, remember


@dataclass(frozen=True)
class OneBlockCode:
    """Symbol map between shifts.  mapping[i] is the image of the i-th
    domain symbol.  When a codomain shift is attached the map is checked
    to be edge-compatible with it.

    letter_masks maps each codomain symbol, in codomain alphabet order,
    to the bitmask of the domain symbols that map to it; it is built in
    the pass that checks every image is a codomain symbol, and
    masks_by_index holds its masks by codomain index, for the memo keys,
    the side closures and the soundness walk that read them."""

    domain: VertexShift
    codomain_alphabet: Alphabet
    mapping: tuple[str, ...]
    codomain: VertexShift | None = None

    def __post_init__(self):
        if len(self.mapping) != len(self.domain.alphabet):
            raise InvariantViolation("mapping length does not match domain alphabet")
        masks = dict.fromkeys(self.codomain_alphabet, 0)
        for i, s in enumerate(self.mapping):
            if s not in masks:
                raise UnknownSymbol(f"image symbol {s!r} not in codomain alphabet")
            masks[s] |= 1 << i
        object.__setattr__(self, "letter_masks", masks)
        object.__setattr__(self, "masks_by_index", tuple(masks.values()))
        if self.codomain is not None:
            if self.codomain.alphabet != self.codomain_alphabet:
                raise AlphabetMismatch(
                    "attached codomain shift disagrees with codomain alphabet"
                )
            bad = _unsound_pair(self, self.codomain)
            if bad:
                (a, b), (fa, fb) = bad
                raise InvariantViolation(
                    f"code is not edge-compatible: ({a!r},{b!r}) maps to "
                    f"forbidden pair ({fa!r},{fb!r})"
                )

    @staticmethod
    def from_dict(domain, codomain_alphabet, mapping, codomain=None):
        if not isinstance(codomain_alphabet, Alphabet):
            codomain_alphabet = Alphabet(tuple(codomain_alphabet))
        symbols = domain.alphabet.symbols
        missing = [s for s in symbols if s not in mapping]
        if missing:
            raise InvariantViolation(f"mapping not total, missing {missing}")
        # every domain symbol is a key, so a key outside them is one more
        if len(mapping) > len(symbols):
            extra = [s for s in mapping if s not in domain.alphabet]
            raise UnknownSymbol(f"mapping mentions unknown symbols {extra}")
        return OneBlockCode(
            domain, codomain_alphabet, tuple(map(mapping.__getitem__, symbols)), codomain
        )

    @cached
    def symbol_map(self):
        return dict(zip(self.domain.alphabet.symbols, self.mapping))

    def apply_symbol(self, s):
        try:
            return self.symbol_map[s]
        except KeyError:
            raise UnknownSymbol(f"symbol {s!r} not in domain alphabet") from None

    def apply_word(self, word):
        """The images of word's symbols, as a tuple, in one map call over
        symbol_map; UnknownSymbol as apply_symbol raises it."""
        try:
            return tuple(map(self.symbol_map.__getitem__, word))
        except KeyError as missing:
            s = missing.args[0]
            raise UnknownSymbol(f"symbol {s!r} not in domain alphabet") from None

    def letter_mask(self, letter):
        try:
            return self.letter_masks[letter]
        except KeyError:
            raise UnknownSymbol(f"symbol {letter!r} not in codomain alphabet") from None

    def step(self, mask, letter):
        """Forward one position: successors of mask that carry letter."""
        return self.domain.step_mask(mask) & self.letter_mask(letter)


def _unsound_pair(code, shift):
    """The least allowed pair of code's domain, by the alphabet index of
    its first symbol and then its second, whose image pair shift (on
    code's codomain alphabet) forbids: ((a, b), (image of a, image of
    b)), or None.  Walks the domain symbols by index with their successor
    masks, so the answer never depends on the order of a set of pairs."""
    letters = code.masks_by_index
    # fits[y]: the domain symbols whose image may follow the letter y
    fits = [0] * len(letters)
    for y, nexts in enumerate(shift.succ_masks):
        for z in iter_bits(nexts):
            fits[y] |= letters[z]
    fit = dict(zip(shift.alphabet.symbols, fits))
    for a, (nexts, image) in enumerate(zip(code.domain.succ_masks, code.mapping)):
        bad = nexts & ~fit[image]
        if bad:
            b = (bad & -bad).bit_length() - 1
            pair = code.domain.alphabet.symbols[a], code.domain.alphabet.symbols[b]
            return pair, (code.mapping[a], code.mapping[b])
    return None


def identity_code(shift):
    return OneBlockCode(shift, shift.alphabet, shift.alphabet.symbols, shift)


def trivial_code(shift, target="z"):
    """Collapse everything onto the one-symbol full shift."""
    z = VertexShift.full_shift((target,))
    return OneBlockCode(shift, z.alphabet, (target,) * len(shift.alphabet), z)


def apply_to_block(code, block):
    """Image of a block under the code.  The block must be valid in the
    domain shift."""
    if not validate_block(code.domain, block):
        raise InvalidBlock(f"{block.text()!r} is not a block of the domain")
    return Block(code.apply_word(block.symbols))


def apply_to_point(code, point):
    """Image of a periodic point; the cycle maps coordinate-wise and the
    result is renormalised."""
    return PeriodicPoint.make(code.apply_word(point.cycle.symbols), point.phase)


@dataclass(frozen=True)
class SlidingBlockCode:
    """Code given by a local rule reading a window of memory + anticipation
    + 1 symbols: output at i depends on input coordinates i-memory .. i+anticipation.

    rule is stored as a sorted tuple of (window symbols, output symbol) and
    must be defined on exactly the valid windows of the domain."""

    domain: VertexShift
    codomain_alphabet: Alphabet
    memory: int
    anticipation: int
    rule: tuple
    codomain: VertexShift | None = None

    def __post_init__(self):
        if self.memory < 0 or self.anticipation < 0:
            raise InvariantViolation("memory and anticipation must be >= 0")
        if self.codomain is not None and self.codomain.alphabet != self.codomain_alphabet:
            raise AlphabetMismatch(
                "attached codomain shift disagrees with codomain alphabet"
            )
        width = self.memory + self.anticipation + 1
        valid = {b.symbols for b in enumerate_blocks(self.domain, width)}
        seen = set()
        for window, out in self.rule:
            if window not in valid:
                raise InvalidBlock(f"rule window {window!r} is not a valid block")
            if window in seen:
                raise InvariantViolation(f"duplicate rule window {window!r}")
            seen.add(window)
            if out not in self.codomain_alphabet:
                raise UnknownSymbol(f"rule output {out!r} not in codomain alphabet")
        if seen != valid:
            missing = sorted(valid - seen)
            raise InvariantViolation(f"rule not total, missing windows {missing}")

    @staticmethod
    def from_dict(domain, codomain_alphabet, memory, anticipation, rule, codomain=None):
        if not isinstance(codomain_alphabet, Alphabet):
            codomain_alphabet = Alphabet(tuple(codomain_alphabet))
        items = tuple(sorted((tuple(w), out) for w, out in rule.items()))
        return SlidingBlockCode(
            domain, codomain_alphabet, memory, anticipation, items, codomain
        )

    @property
    def width(self):
        return self.memory + self.anticipation + 1

    @cached
    def rule_map(self):
        return dict(self.rule)

    def apply_window(self, symbols):
        try:
            return self.rule_map[tuple(symbols)]
        except KeyError:
            raise InvalidBlock(f"no rule for window {symbols!r}") from None


def apply_sliding_to_point(code, point):
    """Image of a periodic point under a sliding-block rule."""
    p = point.period
    out = tuple(
        code.apply_window(
            tuple(point.symbol_at(i + k) for k in range(-code.memory, code.anticipation + 1))
        )
        for i in range(1, p + 1)
    )
    return PeriodicPoint.make(out, 0)


@dataclass(frozen=True, slots=True)
class RecodedCode:
    """Result of passing to the window shift: the letter-to-letter code
    together with the conjugacy back down (window symbol -> central symbol)."""

    window_shift: VertexShift
    conjugacy: OneBlockCode
    code: OneBlockCode
    width: int
    offset: int  # index of the central symbol inside a window (= memory)
    constituents: tuple

    def lift_point(self, point):
        """Image of a domain periodic point under the window conjugacy."""
        span = range(-self.offset, self.width - self.offset)
        windows = (
            tuple(point.symbol_at(i + k) for k in span)
            for i in range(1, point.period + 1)
        )
        names = _window_names(self.conjugacy.codomain_alphabet, windows)
        return PeriodicPoint.make(names, point.phase)


def _window_names(alphabet, windows):
    """Each window's symbols joined into its name: plainly on a
    single-character alphabet (xor2's 00, 01, ...), else by "_", never by
    SEPARATOR, which no symbol of the window shift may contain.  When a
    symbol of the alphabet contains "_", every symbol's "\\" and "_" are
    escaped by a "\\" first (a_b and c give a\\_b_c), so distinct windows
    of one width always get distinct names."""
    if alphabet.single_char:
        return tuple(map("".join, windows))
    if any("_" in s for s in alphabet):
        windows = (
            [s.replace("\\", "\\\\").replace("_", "\\_") for s in w] for w in windows
        )
    return tuple(map("_".join, windows))


def recode_to_one_block(code):
    """Replace a sliding-block code by a letter-to-letter one on the window
    shift of its domain.  Window symbols are named by _window_names and
    ordered lexicographically; w -> w' is an edge when the windows overlap
    by all but one symbol and the joint word stays valid."""
    if isinstance(code, OneBlockCode):
        raise InvariantViolation("code is already letter-to-letter")
    width = code.width
    constituents = [b.symbols for b in enumerate_blocks(code.domain, width)]
    names = _window_names(code.domain.alphabet, constituents)
    if len(set(names)) != len(names):
        raise InvariantViolation("window names collide")
    # join each window's tail w[1:] against the windows indexed by their
    # head w2[:-1]: linear in the edges, not quadratic in the windows
    by_head = {}
    for j, w2 in enumerate(constituents):
        by_head.setdefault(w2[:-1], []).append(j)
    allows = code.domain.allows
    pairs = set()
    for i, w in enumerate(constituents):
        for j in by_head.get(w[1:], ()):
            if allows(w[-1], constituents[j][-1]):
                pairs.add((names[i], names[j]))
    window_shift = VertexShift(Alphabet(names), frozenset(pairs))
    conj = OneBlockCode(
        window_shift,
        code.domain.alphabet,
        tuple(w[code.memory] for w in constituents),
        code.domain,
    )
    one_block = OneBlockCode(
        window_shift,
        code.codomain_alphabet,
        tuple(code.apply_window(w) for w in constituents),
        code.codomain,
    )
    return RecodedCode(
        window_shift, conj, one_block, width, code.memory, tuple(constituents)
    )


def compose(f, g):
    """The code 'g after f'.  f's codomain alphabet must equal g's domain
    alphabet and f must land inside g's domain shift.  When f's attached
    codomain is g's domain itself, f was checked against it when f was
    built, so the check is not made again; an equal but distinct shift
    is checked."""
    if f.codomain_alphabet != g.domain.alphabet:
        raise AlphabetMismatch("codomain of f does not match domain of g")
    bad = f.codomain is not g.domain and _unsound_pair(f, g.domain)
    if bad:
        (a, b), (fa, fb) = bad
        raise InvariantViolation(
            f"composition unsound: f maps ({a!r},{b!r}) onto pair "
            f"({fa!r},{fb!r}) forbidden in g's domain"
        )
    return OneBlockCode(
        f.domain,
        g.codomain_alphabet,
        g.apply_word(f.mapping),
        g.codomain,
    )


@dataclass(frozen=True, slots=True)
class OntoCheck:
    ok: bool
    checked_length: int
    missing_block: Block | None = None

    def __bool__(self):
        return self.ok


# check_onto's answers by everything its closure reads, oldest first
# (graphs.remember): (ok, checked_length, missing word as indices or None)
_ONTO = {}


def check_onto(code, codomain_shift):
    """Does every block of the codomain shift have a preimage block?

    Exact: closes the product of the codomain graph with the subset
    automaton of fiber end symbols, whose states are (y, mask), with
    words of alphabet indices.  A state with mask 0 ends a block without
    preimage and is not extended; the first one in level order names the
    shortest, then least (in alphabet order), missing block, and no
    later level is grown.  checked_length is that block's length, or the
    closure depth when the code is onto.  Raises ResourceLimit once the
    levels grown hold more than core.DEFAULT_CAP states.

    Each question is closed once: the answer is kept in _ONTO under all
    the closure reads, the domain's successor masks, the letter masks in
    codomain order, the codomain's successor masks and the cap as it
    is at the call.  The missing word is kept as indices and spelled in
    the caller's symbols, so a renamed copy of a code shares its entry.
    A closure that raises ResourceLimit keeps nothing.
    """
    if code.codomain_alphabet != codomain_shift.alphabet:
        raise AlphabetMismatch("codomain shift alphabet mismatch")
    symbols = codomain_shift.alphabet.symbols
    # letter_masks runs in codomain alphabet order, the shift's own
    letters = code.masks_by_index
    succ = codomain_shift.succ_masks
    cap = core.DEFAULT_CAP
    key = (code.domain.succ_masks, letters, succ, cap)
    found = _ONTO.get(key)
    if found is None:
        found = remember(_ONTO, key, _onto_closure(code.domain, letters, succ, cap))
    ok, length, word = found
    return OntoCheck(ok, length, word and Block(tuple(symbols[y] for y in word)))


def _onto_closure(domain, letters, succ, cap):
    """check_onto's closure over the codomain successor masks succ, with
    letters[y] the domain symbols carrying the codomain letter y: (ok,
    checked_length, the least missing word as indices or None)."""
    step = domain.step_mask
    seeds = [((y, mask), (y,)) for y, mask in enumerate(letters)]

    def grow(state, word):
        y, mask = state
        if mask:
            for y2 in iter_bits(succ[y]):
                yield (y2, step(mask) & letters[y2]), word + (y2,)

    depth = 0
    for depth, level in enumerate(closure(seeds, grow, cap), 1):
        for (_, mask), word in level:
            if not mask:
                return False, len(word), word
    return True, depth, None


def is_finite_to_one(code):
    """Exact test: the code on an irreducible domain is finite-to-one iff
    no two distinct equal-image paths share both endpoints.  Runs on the
    pair graph of ordered same-image symbol pairs; the bad pattern is an
    off-diagonal pair that is reached from the diagonal and reaches back
    to it."""
    domain = code.domain
    same = [code.letter_masks[z] for z in code.mapping]
    ahead = _pairs_reached(domain.succ_masks, domain.step_mask, same)
    behind = _pairs_reached(domain.pred_masks, domain.step_mask_back, same)
    return not any(f & b & ~(1 << a) for a, (f, b) in enumerate(zip(ahead, behind)))


def _pairs_reached(masks_of, step, same):
    """pairs[a] = mask of the b for which the same-image pair (a, b) is
    reached from the diagonal, each step moving both sides one edge:
    masks_of[a] and step are the domain's successors (or predecessors),
    and same[a] is the mask of the symbols sharing a's image."""
    pairs = [1 << a for a in range(len(same))]
    todo = list(range(len(same)))
    while todo:
        a = todo.pop()
        out = step(pairs[a])
        for a2 in iter_bits(masks_of[a]):
            grown = pairs[a2] | out & same[a2]
            if grown != pairs[a2]:
                pairs[a2] = grown
                todo.append(a2)
    return pairs


@dataclass(frozen=True, slots=True)
class CodeTriple:
    """A composition X --phi--> Y --psi--> Z of letter-to-letter codes,
    given by the two: the shifts are read off them, and pi, the composite,
    is made once here.  It checks only that the codes meet; see build."""

    phi: OneBlockCode
    psi: OneBlockCode
    pi: OneBlockCode = field(init=False)

    def __post_init__(self):
        if self.phi.codomain is None:
            raise InvariantViolation("phi needs an attached codomain shift")
        if self.psi.domain != self.phi.codomain:
            raise AlphabetMismatch("psi's domain shift is not phi's codomain")
        object.__setattr__(self, "pi", compose(self.phi, self.psi))

    @staticmethod
    def build(phi, psi):
        """The triple of phi and psi, checked: X and Y irreducible, phi
        onto Y (exactly, by check_onto).  The constructor's errors come
        first."""
        triple = CodeTriple(phi, psi)
        if not is_irreducible(triple.X):
            raise InvariantViolation("X is not irreducible")
        if not is_irreducible(triple.Y):
            raise InvariantViolation("Y is not irreducible")
        onto = check_onto(phi, triple.Y)
        if not onto.ok:
            raise InvariantViolation(
                f"phi is not onto: block {onto.missing_block.text()!r} has no preimage"
            )
        return triple

    @property
    def X(self):
        return self.phi.domain

    @property
    def Y(self):
        return self.phi.codomain

    @property
    def Z_alphabet(self):
        return self.psi.codomain_alphabet

    @property
    def Z_shift(self):
        return self.psi.codomain
