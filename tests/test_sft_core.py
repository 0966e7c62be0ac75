import importlib
import pkgutil

import pytest
from hypothesis import assume, given, settings, strategies as st

import sftcd
from conftest import reference_step_mask, reference_step_mask_back, run_under_hash_seeds
from sftcd.codes import OneBlockCode

from sftcd.core import (
    Alphabet,
    Block,
    PeriodicPoint,
    VertexShift,
    blocks_of_periodic_point,
    count_blocks,
    enumerate_blocks,
    is_irreducible,
    is_point_of,
    iter_bits,
    parse_block_text,
    parse_point_text,
    periodic_points_of,
    stepper,
    union_table,
    validate_block,
)
import sftcd.core as core_module
from sftcd.errors import InvalidBlock, InvariantViolation, UnknownSymbol
from sftcd.graphs import closure, reach


def golden():
    return VertexShift.build(("0", "1"), [("0", "0"), ("0", "1"), ("1", "0")])


class TestBlock:
    def test_indexing_is_one_based(self):
        b = Block(("a", "b", "c"))
        assert b.at(1) == "a"
        assert b.at(3) == "c"
        assert b.window(2, 3).symbols == ("b", "c")

    def test_empty_block_rejected(self):
        with pytest.raises(InvalidBlock):
            Block(())

    def test_text_single_char_vs_separator(self):
        assert Block(("0", "1")).text() == "01"
        assert Block(("00", "01")).text() == "00·01"

    def test_parse_round_trip(self):
        alpha = Alphabet(("00", "01", "10", "11"))
        b = parse_block_text(alpha, "00·01·11")
        assert b.symbols == ("00", "01", "11")
        assert parse_block_text(alpha, b.text()) == b

    def test_parse_single_char(self):
        alpha = Alphabet(("0", "1"))
        assert parse_block_text(alpha, "0110").symbols == ("0", "1", "1", "0")

    def test_parse_unknown_symbol(self):
        with pytest.raises(UnknownSymbol):
            parse_block_text(Alphabet(("0", "1")), "012")


class TestVertexShift:
    def test_full_shift_allows_everything(self):
        full = VertexShift.full_shift(("a", "b"))
        assert all(full.allows(x, y) for x in "ab" for y in "ab")

    def test_golden_forbids_11(self):
        g = golden()
        assert g.allows("0", "1") and g.allows("1", "0")
        assert not g.allows("1", "1")

    def test_build_trims_stranded_symbols(self):
        # c has no successor at all; a dead end must not survive build
        shift = VertexShift.build(
            ("a", "b", "c"), [("a", "b"), ("b", "a"), ("a", "c")]
        )
        assert shift.alphabet.symbols == ("a", "b")

    def test_build_rejects_unknown_pair_symbol(self):
        with pytest.raises(UnknownSymbol):
            VertexShift.build(("a",), [("a", "b")])

    @pytest.mark.parametrize(
        "make",
        [
            "VertexShift(Alphabet(('b', 'a')), frozenset(pairs))",
            "VertexShift.build(('b', 'a'), pairs)",
        ],
    )
    def test_unknown_pair_is_the_least_in_alphabet_order(self, make):
        # (a, x), (y, b) and (b, z) use unknown symbols; b comes first in
        # the alphabet, so (b, z) is named in every process, where the
        # set's order varies with the hash seed and names put (a, x) first
        snippet = (
            "from sftcd.core import Alphabet, VertexShift\n"
            "from sftcd.errors import UnknownSymbol\n"
            "pairs = [('a', 'x'), ('y', 'b'), ('b', 'a'), ('a', 'b'), ('b', 'z')]\n"
            f"try:\n    {make}\n"
            "except UnknownSymbol as e:\n    print(e)\n"
        )
        outputs = run_under_hash_seeds(snippet, "0123")
        expected = "pair ('b', 'z') uses unknown symbols"
        assert [out.decode().strip() for out in outputs] == [expected] * 4

    def test_build_rejects_everything_stranded(self):
        with pytest.raises(InvariantViolation):
            VertexShift.build(("a", "b"), [("a", "b")])

    def test_validate_block(self):
        g = golden()
        assert validate_block(g, parse_block_text(g.alphabet, "0101"))
        assert not validate_block(g, Block(("1", "1")))
        with pytest.raises(UnknownSymbol):
            validate_block(g, Block(("2",)))

    def test_block_counts_follow_fibonacci(self):
        g = golden()
        # language sizes of the no-11 shift: 2, 3, 5, 8, 13
        assert [count_blocks(g, n) for n in range(1, 6)] == [2, 3, 5, 8, 13]
        assert len(enumerate_blocks(g, 4)) == 8

    def test_irreducibility(self):
        assert is_irreducible(golden())
        oneway = VertexShift.build(
            ("a", "b"), [("a", "a"), ("a", "b"), ("b", "b")]
        )
        assert not is_irreducible(oneway)
        # decided once per shift and kept on it
        assert oneway.__dict__["irreducible"] is False


class TestPeriodicPoint:
    def test_make_normalizes_rotation(self):
        p = PeriodicPoint.make(Block(("b", "a")), 0)
        q = PeriodicPoint.make(Block(("a", "b")), 1)
        assert p == q
        assert p.cycle.symbols[0] == "a"

    def test_make_rejects_nonprimitive_cycle(self):
        p = PeriodicPoint.make(Block(("a", "b", "a", "b")), 0)
        assert p.period == 2

    def test_symbol_at_phase(self):
        p = PeriodicPoint.make(Block(("a", "b")), 0)
        assert [p.symbol_at(i) for i in range(1, 5)] == ["a", "b", "a", "b"]
        assert p.shifted(1).symbol_at(1) == "b"

    def test_window_matches_symbols(self):
        p = PeriodicPoint.make(Block(("0", "1", "0")), 0)
        w = p.window(1, 7)
        assert w.symbols == tuple(p.symbol_at(i) for i in range(1, 8))

    def test_point_membership(self):
        g = golden()
        assert is_point_of(g, PeriodicPoint.make(Block(("0", "1")), 0))
        assert not is_point_of(g, PeriodicPoint.make(Block(("1",)), 0))

    def test_blocks_of_point(self):
        p = PeriodicPoint.make(Block(("0", "1")), 0)
        texts = sorted(b.text() for b in blocks_of_periodic_point(p, 3))
        assert texts == ["010", "101"]

    def test_periodic_points_enumeration(self):
        g = golden()
        pts = periodic_points_of(g, 2)
        assert [p.text() for p in pts] == ["(0)", "(01)"]

    @pytest.mark.parametrize("max_period", [0, -1])
    def test_periodic_points_need_a_positive_period(self, max_period):
        with pytest.raises(InvalidBlock, match="max_period must be positive"):
            periodic_points_of(golden(), max_period)

    def test_periodic_points_order_is_the_same_in_every_process(self):
        # phases of one cycle used to tie on (period, cycle) and come back
        # in set order, which moves with the hash seed
        snippet = (
            "from sftcd.core import VertexShift, periodic_points_of\n"
            "g = VertexShift.build(('0', '1'), [('0', '0'), ('0', '1'), ('1', '0')])\n"
            "print([p.text() for p in periodic_points_of(g, 4)])\n"
        )
        expected = "['(0)', '(01)', '(001)', '(001)@1', '(0001)', '(0001)@1', '(0001)@2']"
        for out in run_under_hash_seeds(snippet, [str(seed) for seed in range(6)]):
            assert out.decode().strip() == expected

    def test_parse_point_text(self):
        alpha = Alphabet(("0", "1"))
        p = parse_point_text(alpha, "(01)")
        assert p == PeriodicPoint.make(Block(("0", "1")), 0)
        q = parse_point_text(alpha, "(01)@1")
        assert q == p.shifted(1)

    def test_parse_point_requires_parens(self):
        with pytest.raises(InvalidBlock):
            parse_point_text(Alphabet(("0",)), "00")


@given(st.lists(st.sampled_from("ab"), min_size=1, max_size=8), st.integers(0, 7))
def test_point_shift_consistency(cycle, k):
    p = PeriodicPoint.make(Block(tuple(cycle)), 0)
    assert p.shifted(k).symbol_at(1) == p.symbol_at(1 + k)


@given(st.lists(st.sampled_from("ab"), min_size=1, max_size=8), st.integers(0, 7))
def test_point_normal_form_is_canonical(cycle, phase):
    p = PeriodicPoint.make(Block(tuple(cycle)), phase)
    q = PeriodicPoint.make(p.cycle, p.phase)
    assert p == q
    assert p.period <= len(cycle)
    assert 0 <= p.phase < p.period


@given(st.lists(st.sampled_from("abc"), min_size=1, max_size=6))
def test_block_window_round_trip(symbols):
    b = Block(tuple(symbols))
    assert b.window(1, len(b)) == b
    for i in range(1, len(b) + 1):
        assert b.window(i, i).symbols == (b.at(i),)


@st.composite
def shifts_with_masks(draw):
    """A vertex shift on 1..20 symbols (1, 2 or 3 bytes of mask), a code
    on it, and masks over its alphabet, the empty one included."""
    n = draw(st.integers(1, 20))
    symbols = tuple(f"s{i}" for i in range(n))
    # a cycle through every symbol keeps the presentation essential
    pairs = {(symbols[i], symbols[(i + 1) % n]) for i in range(n)}
    pairs |= draw(st.sets(st.tuples(st.sampled_from(symbols), st.sampled_from(symbols))))
    shift = VertexShift(Alphabet(symbols), frozenset(pairs))
    letters = Alphabet(("a", "b", "c"))
    images = st.lists(st.sampled_from(letters.symbols), min_size=n, max_size=n)
    mapping = tuple(draw(images))
    masks = draw(st.lists(st.integers(0, 2**n - 1), min_size=1, max_size=8)) + [0]
    return shift, OneBlockCode(shift, letters, mapping), masks


@settings(max_examples=150, deadline=None)
@given(shifts_with_masks())
def test_mask_steps_match_the_bit_loop(subject):
    shift, code, masks = subject
    for mask in masks:
        forward = reference_step_mask(shift, mask)
        assert shift.step_mask(mask) == forward
        assert shift.step_mask_back(mask) == reference_step_mask_back(shift, mask)
        for letter in code.codomain_alphabet:
            carriers = sum(1 << i for i, s in enumerate(code.mapping) if s == letter)
            assert code.step(mask, letter) == forward & carriers


def set_reach(edges, starts, within):
    """The symbols reachable from starts by walks inside within, starts
    included, by a search over symbol sets along the (a, b) edges."""
    seen, todo = set(starts), list(starts)
    while todo:
        a = todo.pop()
        for b in {b for x, b in edges if x == a} & within - seen:
            seen.add(b)
            todo.append(b)
    return seen


@settings(max_examples=150, deadline=None)
@given(shifts_with_masks())
def test_reach_matches_a_set_search(subject):
    shift, _, masks = subject
    symbols = shift.alphabet.symbols
    back = {(b, a) for a, b in shift.allowed}

    def members(mask):
        return {s for i, s in enumerate(symbols) if mask >> i & 1}

    for step, edges in ((shift.step_mask, shift.allowed), (shift.step_mask_back, back)):
        for start in masks:
            for within in masks + [-1]:
                want = set_reach(edges, members(start), members(within))
                assert reach(step, start, within) == sum(
                    1 << i for i, s in enumerate(symbols) if s in want
                )


@pytest.mark.parametrize("size, tables", [(10, 1), (11, 2)])
def test_mask_steps_on_both_sides_of_one_table(size, tables, monkeypatch):
    # up to TABLE_SYMBOLS = 10 symbols a step is one table's own lookup,
    # from 11 on a loop over two; both must match the bit loop on every
    # mask of the alphabet
    built = []

    def counting_union_table(masks, keep=-1):
        built.append(len(masks))
        return union_table(masks, keep)

    monkeypatch.setattr(core_module, "union_table", counting_union_table)
    symbols = tuple(f"s{i}" for i in range(size))
    pairs = {(symbols[i], symbols[(i + 1) % size]) for i in range(size)}
    pairs |= {(symbols[i], symbols[(3 * i + 2) % size]) for i in range(size)}
    shift = VertexShift(Alphabet(symbols), frozenset(pairs))
    forward, backward = shift.step_mask, shift.step_mask_back
    # one table per run in each direction, the runs covering every symbol
    assert (len(built), sum(built)) == (2 * tables, 2 * size)
    for mask in range(2**size):
        assert forward(mask) == reference_step_mask(shift, mask)
        assert backward(mask) == reference_step_mask_back(shift, mask)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 2**25 - 1), min_size=1, max_size=25),
    st.integers(-1, 2**25 - 1),
    st.data(),
)
def test_stepper_matches_the_bit_loop(masks, keep, data):
    # 1..25 masks: one table up to TABLE_SYMBOLS, a loop over up to three
    # past it, keep folded into every entry either way
    step = stepper(masks, keep)
    for mask in data.draw(st.lists(st.integers(0, 2 ** len(masks) - 1), max_size=8)):
        want = 0
        for i, m in enumerate(masks):
            if mask >> i & 1:
                want |= m
        assert step(mask) == want & keep


def shifted_bits(mask):
    """The set bit positions of mask by the plain shift-and-mask loop that
    iter_bits answers from a byte table."""
    bits = []
    i = 0
    while mask:
        if mask & 1:
            bits.append(i)
        mask >>= 1
        i += 1
    return tuple(bits)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**300))
def test_iter_bits_match_the_shift_loop(mask):
    assert iter_bits(mask) == shifted_bits(mask)


@pytest.mark.parametrize("mask", [0, 255, 256, 2**64 + 1])
def test_iter_bits_at_byte_edges(mask):
    assert iter_bits(mask) == shifted_bits(mask)


class TestLanguageOracles:
    def test_block_counts_match_walk_dp(self):
        from conftest import walk_count

        shifts = [
            golden(),
            VertexShift.full_shift(("0", "1")),
            VertexShift.full_shift(("a", "b", "c")),
            VertexShift.build(
                ("p", "q", "r"), [("p", "q"), ("q", "r"), ("r", "p"), ("p", "p")]
            ),
        ]
        for shift in shifts:
            for length in range(1, 7):
                blocks = enumerate_blocks(shift, length)
                assert len(blocks) == walk_count(shift, length)
                assert len(blocks) == count_blocks(shift, length)
                assert all(validate_block(shift, b) for b in blocks)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_irreducibility_matches_joining_words(self, data):
        # drawn shifts have no cycle forced through every symbol, so
        # reducible ones occur among them
        n = data.draw(st.integers(1, 7))
        symbols = tuple(f"s{i}" for i in range(n))
        pairs = data.draw(
            st.sets(st.tuples(st.sampled_from(symbols), st.sampled_from(symbols)), min_size=1)
        )
        try:
            drawn = VertexShift.build(symbols, sorted(pairs))
        except InvariantViolation:  # every symbol was trimmed away
            assume(False)

        def brute(shift):
            syms = set(shift.alphabet.symbols)
            for u in syms:
                ends = {u}
                reach = {u}
                for _ in range(len(syms)):
                    ends = {t for s in ends for t in shift.successors(s)}
                    reach |= ends
                if reach != syms:
                    return False
            return True

        cases = [
            golden(),
            VertexShift.full_shift(("0", "1")),
            VertexShift.build(("x", "y"), [("x", "y"), ("y", "x")]),
            VertexShift.build(("a", "b"), [("a", "a"), ("a", "b"), ("b", "b")]),
            VertexShift.build(
                ("a", "b", "c"),
                [("a", "b"), ("b", "a"), ("b", "c"), ("c", "c")],
            ),
            drawn,
        ]
        for shift in cases:
            assert is_irreducible(shift) == brute(shift)

    def test_point_blocks_lie_in_the_language(self):
        for shift in (golden(), VertexShift.full_shift(("0", "1"))):
            for p in periodic_points_of(shift, 4):
                for length in range(1, 6):
                    lang = set(enumerate_blocks(shift, length))
                    assert set(blocks_of_periodic_point(p, length)) <= lang


class TestClosure:
    @staticmethod
    def _prepend(state, word):
        # the state is the set of letters the word uses
        for a in (0, 1):
            yield state | {a}, (a,) + word

    def test_prepending_keeps_the_least_word(self):
        # (1, 0) reaches {0, 1} before (0, 1) in generation order
        seeds = [(frozenset({0}), (0,)), (frozenset({1}), (1,))]
        levels = list(closure(seeds, self._prepend, 10))
        assert levels[1] == [(frozenset({0, 1}), (0, 1))]
        assert len(levels) == 2


def test_every_submodule_is_a_package_attribute():
    # a package-level name must not shadow a submodule: import sftcd.depth
    # as m has to bind the module, not a function exported under its name
    names = [info.name for info in pkgutil.iter_modules(sftcd.__path__)]
    assert "depth" in names
    for name in names:
        # importing the submodule binds it on the package unless a name
        # defined in sftcd/__init__.py shadows it
        module = importlib.import_module(f"sftcd.{name}")
        assert getattr(sftcd, name) is module, name
