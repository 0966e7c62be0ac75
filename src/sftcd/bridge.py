"""Bridges between points of a fiber, and a class oracle over fixed points.

A bridge from x to x' is a point that follows x up to coordinate m and x'
from coordinate n on, stays in the same fiber, and fills the gap with an
explicitly checkable middle block.  Routing certificates give bridges
constructively: when the windows of x and x' over a presented block both
reroute through one symbol, splicing the two rerouted witnesses at that
symbol yields bridges in both directions.  depth._codes_of names the
codes of a mode: the windows lie in the u-code's fiber, and a bridge's
image condition is the witness code's.

Every path here comes from one search: the least path by symbol index
through given layer masks.  A rerouted window is what
fiber.Fiber.lex_path_through finds, in the witness word's Fiber, through
the splice symbol.  That search wrote the witness a certificate lists
for the window's endpoint pair, so a window the certificate routes
through the splice symbol gets that very witness back.  Both windows of
a splice ask one Fiber (fiber.fiber_of, which may hand out the one the
certificate's depth call left kept) and share its sweep toward that
symbol.  A searched bridge's middle is fiber._least_path across the
fiber frontier; a class representative is the shortest, then least,
cycle through its component's least symbol.

verify_bridge and the self-checks of bounded_bridge_exists and
construct_bridge run one replay, _replays.  Each of the two has computed
and compared the images of its two ends once, so it passes that image
in and the replay makes every other check (ordering, middle length,
seams, middle images).  An image is compared and read as letters, not
as a canonical point: the image letters of both ends at coordinates
1..L, L the lcm of their periods (_shared_image).  Both image sequences
repeat with period L, so equal stretches mean equal images.

The class oracle counts, for a fixed codomain symbol z, the mutual-
reachability classes of periodic preimages of z^oo.  Inside the mask F
of symbols over z, the class of v is what v reaches forwards intersected
with what it reaches backwards (graphs.reach), and a class counts when
it carries a cycle, an edge from the class into itself.  Classes come in
the order of their least symbols, and forward reach from one class
gives the one-way transition preorder between them.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from math import lcm

from .codes import apply_to_block
from .core import Block, PeriodicPoint, iter_bits
from .depth import _codes_of, RoutingCertificate
from .errors import (
    ImageMismatch,
    InvalidBlock,
    InvariantViolation,
    NoFixedPoint,
    NotRoutable,
    PreconditionUnmet,
)
from .fiber import _least_path, fiber_of
from .graphs import reach


@dataclass(frozen=True, slots=True)
class BridgeWitness:
    """Middle block gluing the left tail of one point to the right tail of
    another inside a fiber.  The middle fills the open coordinate interval
    (m, n)."""

    left: PeriodicPoint
    right: PeriodicPoint
    m: int
    n: int
    middle: Block | None  # None when n = m + 1, a direct seam
    mode: str
    provenance: str = ""

    @property
    def middle_symbols(self):
        return () if self.middle is None else self.middle.symbols


@dataclass(frozen=True, slots=True)
class BridgeSearch:
    found: bool
    witness: BridgeWitness | None
    window: int
    note: str

    def __bool__(self):
        return self.found


def verify_bridge(subject, b: BridgeWitness) -> bool:
    """Mechanical replay: seam pairs allowed, middle valid and inside the
    fiber of the shared image point under the witness code of b's mode.
    Relative-mode class preservation is recorded provenance, not
    re-checked here (it concerns infinite tails)."""
    return _replays(_codes_of(subject, b.mode)[1], b)


def _image_letters(code, point, length):
    """The image letters of point at coordinates 1..length, a multiple of
    its period."""
    symbols, k = point.cycle.symbols, point.phase
    return code.apply_word(symbols[k:] + symbols[:k]) * (length // point.period)


def _shared_image(code, x, xp):
    """The image letters of x and x' at coordinates 1..L, L the lcm of
    their periods, or None when their images differ.  Coordinate i of
    the common image carries letter (i - 1) mod L."""
    length = lcm(x.period, xp.period)
    image = _image_letters(code, x, length)
    return image if image == _image_letters(code, xp, length) else None


def _replays(code, b, image=None):
    """verify_bridge's replay under code.  A caller that has already
    computed and compared the images of b's two ends passes that
    _shared_image, and the replay checks everything else."""
    if b.n <= b.m or len(b.middle_symbols) != b.n - b.m - 1:
        return False
    if image is None:
        image = _shared_image(code, b.left, b.right)
        if image is None:
            return False
    seam = (
        [b.left.symbol_at(b.m)] + list(b.middle_symbols) + [b.right.symbol_at(b.n)]
    )
    shift = code.domain
    for a, c in zip(seam, seam[1:]):
        if not shift.allows(a, c):
            return False
    period = len(image)
    for j, s in enumerate(b.middle_symbols):
        if code.apply_symbol(s) != image[(b.m + j) % period]:
            return False
    return True


def _witness_through(wit, alphabet, n, u, a):
    """The least block of wit's fiber with u's endpoints passing through
    symbol a at position n, from the search that wrote the witness the
    certificate lists for those endpoints."""
    idx = alphabet.index
    path = wit.lex_path_through(idx(u.at(1)), idx(a), idx(u.at(len(u))), n)
    if path is None:
        raise NotRoutable(f"{u.text()!r} has no witness through {a!r}")
    return Block(tuple(alphabet.symbols[i] for i in path))


def construct_bridge(subject, x, xp, occurrence, cert: RoutingCertificate, a):
    """Two-way bridges between x and x' across an occurrence of the
    certified block.

    Both points must show cert.w in their (phi-)images starting at
    `occurrence`.  Their windows are rerouted through the symbol a at the
    certificate's position and the rerouted blocks are spliced there,
    giving one bridge each way: follow x, run the spliced middle, continue
    as x'; and symmetrically.  Returns the pair (x to x', x' to x).
    InvalidBlock when the certificate's position lies outside 1..|w|,
    before any fiber is read.
    """
    u_code, wit_code, to_wit = _codes_of(subject, cert.mode)
    length = len(cert.w)
    if not 1 <= cert.n <= length:
        raise InvalidBlock(f"position {cert.n} outside 1..{length}")
    u = x.window(occurrence, occurrence + length - 1)
    up = xp.window(occurrence, occurrence + length - 1)
    for point, w in ((x, u), (xp, up)):
        if apply_to_block(u_code, w) != cert.w:
            raise PreconditionUnmet(
                f"{point.text()} does not show {cert.w.text()!r} at {occurrence}"
            )
    # one Fiber of the witness word serves both windows: it sweeps, on
    # first read, the backward sets of their two end symbols and never a
    # forward set, which lex_path_through does not read
    alphabet = u_code.domain.alphabet
    wit = fiber_of(wit_code, to_wit(cert.w.symbols))
    v = _witness_through(wit, alphabet, cert.n, u, a)
    vp = _witness_through(wit, alphabet, cert.n, up, a)
    cut = cert.n
    mid_fwd = v.symbols[: cut - 1] + (a,) + vp.symbols[cut:]
    mid_rev = vp.symbols[: cut - 1] + (a,) + v.symbols[cut:]
    note = (
        f"spliced rerouted fiber blocks at {a!r}, position {cut} of "
        f"{cert.w.text()!r}; image class preserved by construction"
    )
    fwd = BridgeWitness(
        x, xp, occurrence - 1, occurrence + length, Block(mid_fwd), cert.mode, note
    )
    rev = BridgeWitness(
        xp, x, occurrence - 1, occurrence + length, Block(mid_rev), cert.mode, note
    )
    # both bridges replay against one image, computed once per end
    image = _shared_image(wit_code, x, xp)
    if image is None or not all(_replays(wit_code, b, image) for b in (fwd, rev)):
        raise InvariantViolation("constructed bridge failed replay")
    return fwd, rev


def bounded_bridge_exists(code, x, xp, m, window=None):
    """Search for a bridge from x to x' cut at m, with the rejoin
    coordinate n ranging over (m, m+window].

    The middle is found by stepping the fiber frontier along the image
    point's letters from x's symbol at m until it covers x's-partner
    symbol at n.  A miss only means no bridge this short exists.  A step
    reads only the frontier and n mod L, L the shared image's length (a
    multiple of the period of x'), so the search stops at the first
    repeated pair: every later step would repeat one that missed.
    """
    if window is None:
        window = 2 * len(code.domain.alphabet)
    image = _shared_image(code, x, xp)
    if image is None:
        raise ImageMismatch(
            f"{x.text()} and {xp.text()} have different image points"
        )
    period = len(image)
    idx = code.domain.alphabet.index
    symbols = code.domain.alphabet.symbols
    start = idx(x.symbol_at(m))
    frontier = [1 << start]
    seen = set()
    for j in range(1, window + 1):
        n = m + j
        cur = code.step(frontier[-1], image[(n - 1) % period])
        if not cur or (cur, n % period) in seen:
            break
        seen.add((cur, n % period))
        frontier.append(cur)
        t = idx(xp.symbol_at(n))
        if (cur >> t) & 1:
            path = _least_path(code.domain, start, t, frontier)
            middle = (
                Block(tuple(symbols[i] for i in path[1:-1])) if j > 1 else None
            )
            witness = BridgeWitness(
                x, xp, m, n, middle, "absolute", "found by bounded fiber search"
            )
            if not _replays(code, witness, image):
                raise InvariantViolation("searched bridge failed replay")
            return BridgeSearch(True, witness, window, "")
    return BridgeSearch(
        False, None, window, f"no bridge found with rejoin within {window} steps"
    )


@dataclass(frozen=True, slots=True)
class ClassOracleResult:
    count: int
    representatives: tuple
    preorder: tuple
    caveat: str


def _least_cycle(shift, comp):
    """Shortest, then least by symbol index, cycle through the least
    symbol of the component comp (a mask): the first least path from it
    back to itself through k = 0, 1, ... layers of the component."""
    home = comp & -comp
    s = home.bit_length() - 1
    loops = (_least_path(shift, s, s, [home] + [comp] * k + [home]) for k in count())
    path = next(p for p in loops if p is not None)
    symbols = shift.alphabet.symbols
    return PeriodicPoint.make(Block(tuple(symbols[i] for i in path[:-1])), 0)


def fixed_point_class_oracle(code, z):
    """Transition classes of periodic preimages of the fixed point on z.

    Restricts the domain graph to symbols mapping to z, takes its
    mutual-reachability classes that contain a cycle, and reports one
    periodic representative per class plus the reachability preorder
    between classes.  Aperiodic preimages of z^oo are outside this
    census; the caveat field says so.
    """
    fiber = code.letter_mask(z)
    if code.codomain is not None and not code.codomain.allows(z, z):
        raise NoFixedPoint(f"{z!r} is not a fixed symbol of the codomain")
    shift = code.domain
    ahead, behind = shift.succ_masks, shift.pred_masks
    cyclic = []
    left = fiber
    while left:
        v = left & -left
        comp = reach(ahead, v, fiber) & reach(behind, v, fiber)
        left &= ~comp
        if any(ahead[s] & comp for s in iter_bits(comp)):
            cyclic.append(comp)
    if not cyclic:
        raise NoFixedPoint(f"no periodic preimage of {z!r} repeated forever")
    reps = tuple(_least_cycle(shift, c) for c in cyclic)
    reached = [reach(ahead, c, fiber) for c in cyclic]
    preorder = tuple(
        (i, j)
        for i in range(len(cyclic))
        for j in range(len(cyclic))
        if i != j and reached[i] & cyclic[j]
    )
    return ClassOracleResult(
        len(cyclic),
        reps,
        preorder,
        "counts transition classes among periodic preimage points only; "
        "aperiodic preimages are not examined",
    )
