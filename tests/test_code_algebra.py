import dataclasses

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sftcd.codes as codes_module
from conftest import fiber_paths, naive_finite_to_one, run_under_hash_seeds, small_codes
from sftcd.codes import (
    CodeTriple,
    OneBlockCode,
    SlidingBlockCode,
    apply_sliding_to_point,
    apply_to_block,
    apply_to_point,
    check_onto,
    compose,
    identity_code,
    is_finite_to_one,
    recode_to_one_block,
    trivial_code,
)
from sftcd.core import (
    Alphabet,
    Block,
    PeriodicPoint,
    VertexShift,
    enumerate_blocks,
    is_point_of,
    parse_block_text,
    validate_block,
)
from sftcd.corpus import BUILTIN_NAMES, builtin_triple
from sftcd.errors import (
    AlphabetMismatch,
    InvalidBlock,
    InvariantViolation,
    ResourceLimit,
    SftcdError,
    UnknownSymbol,
)
from sftcd.harness import generate_triple, spec_for_seed


def golden():
    return VertexShift.build(("0", "1"), [("0", "0"), ("0", "1"), ("1", "0")])


def xor_sliding(n=2):
    """Sum of two consecutive symbols mod n, on the full n-shift."""
    full = VertexShift.full_shift(tuple(str(i) for i in range(n)))
    rule = {
        (str(a), str(b)): str((a + b) % n)
        for a in range(n)
        for b in range(n)
    }
    return SlidingBlockCode.from_dict(full, full.alphabet, 0, 1, rule)


class TestOneBlockCode:
    def test_apply_symbolwise(self, xor2):
        phi = xor2.phi
        assert phi.apply_symbol("00") == "0"
        assert phi.apply_symbol("01") == "1"

    def test_apply_to_block_images_letterwise(self, xor2):
        # 00 -> 0, 01 -> 1, 11 -> 0: images are taken letter by letter
        w = parse_block_text(xor2.X.alphabet, "00·01·11")
        assert apply_to_block(xor2.phi, w).text() == "010"

    def test_apply_to_block_rejects_invalid_word(self, xor2):
        # 00 cannot be followed by 10: windows must overlap
        w = Block(("00", "10"))
        with pytest.raises(InvalidBlock):
            apply_to_block(xor2.phi, w)

    def test_apply_to_point_renormalizes(self, xor2):
        p = PeriodicPoint.make(Block(("01", "10")), 0)
        assert apply_to_point(xor2.phi, p).text() == "(1)"

    def test_apply_to_point_reduces_a_period_four_point(self, xor2):
        # 00·01·11·10 maps to 0·1·0·1: the image keeps phase 1 on the
        # primitive least rotation 01, so coordinate 1 still carries 1
        p = PeriodicPoint.make(("00", "01", "11", "10"), 1)
        assert (p.period, p.phase) == (4, 1)
        image = apply_to_point(xor2.phi, p)
        assert image == PeriodicPoint(Block(("0", "1")), 1)
        assert [image.symbol_at(i) for i in range(1, 9)] == [
            xor2.phi.apply_symbol(p.symbol_at(i)) for i in range(1, 9)
        ]

    def test_word_maps_name_a_foreign_symbol_as_apply_symbol_does(self, xor2):
        # psi.apply_word and apply_to_point map a whole word at once; a symbol
        # outside the domain alphabet raises apply_symbol's exact error
        with pytest.raises(UnknownSymbol) as want_psi:
            xor2.psi.apply_symbol("2")
        with pytest.raises(UnknownSymbol) as got_psi:
            xor2.psi.apply_word(("0", "2", "1"))
        with pytest.raises(UnknownSymbol) as want_phi:
            xor2.phi.apply_symbol("02")
        with pytest.raises(UnknownSymbol) as got_phi:
            apply_to_point(xor2.phi, PeriodicPoint.make(("00", "02")))
        assert str(got_psi.value) == str(want_psi.value) == (
            "symbol '2' not in domain alphabet"
        )
        assert str(got_phi.value) == str(want_phi.value) == (
            "symbol '02' not in domain alphabet"
        )

    def test_mapping_must_cover_alphabet(self):
        g = golden()
        with pytest.raises(InvariantViolation):
            OneBlockCode.from_dict(g, ("a",), {"0": "a"})
        # a missing symbol is named before a key outside the alphabet, and
        # every such key is named, in the mapping's order
        with pytest.raises(InvariantViolation, match=r"^mapping not total, missing \['1'\]$"):
            OneBlockCode.from_dict(g, ("a",), {"0": "a", "x": "a"})
        message = r"^mapping mentions unknown symbols \['y', 'x'\]$"
        with pytest.raises(UnknownSymbol, match=message):
            OneBlockCode.from_dict(g, ("a",), {"y": "a", "0": "a", "1": "a", "x": "a"})

    def test_identity_and_trivial(self):
        g = golden()
        ident = identity_code(g)
        assert ident.codomain is g
        assert apply_to_block(ident, Block(("0", "1"))).symbols == ("0", "1")
        triv = trivial_code(g)
        assert set(triv.mapping) == {"z"}
        assert triv.codomain.alphabet.symbols == ("z",)


# a code from the full shift on (b, a) into the 2-cycle x <-> y: b -> x
# and a -> y, so (b, b) and (a, a) both map onto forbidden loops; (b, b)
# comes first in alphabet-index order, (a, a) first by name
_UNSOUND_SETUP = (
    "from sftcd.codes import OneBlockCode, compose, identity_code\n"
    "from sftcd.core import VertexShift\n"
    "from sftcd.errors import InvariantViolation\n"
    "cyc = VertexShift.build('xy', [('x', 'y'), ('y', 'x')])\n"
    "ba = VertexShift.full_shift(('b', 'a'))\n"
    "try:\n"
    "    {}\n"
    "except InvariantViolation as e:\n"
    "    print(e)\n"
)


@pytest.mark.parametrize(
    "make, message",
    [
        (
            "OneBlockCode.from_dict(ba, cyc.alphabet, {'b': 'x', 'a': 'y'}, cyc)",
            "code is not edge-compatible: ('b','b') maps to forbidden pair ('x','x')",
        ),
        (
            "compose(OneBlockCode(ba, cyc.alphabet, ('x', 'y')), identity_code(cyc))",
            "composition unsound: f maps ('b','b') onto pair ('x','x') forbidden "
            "in g's domain",
        ),
    ],
)
def test_unsound_pair_is_the_least_in_alphabet_order(make, message):
    # the offending pair is named in alphabet-index order, the same in
    # every process, not in the order of the domain's set of pairs
    outputs = run_under_hash_seeds(_UNSOUND_SETUP.format(make), "0123")
    assert [out.decode().strip() for out in outputs] == [message] * 4


class TestSlidingRecode:
    def test_xor_rule_windows(self):
        code = xor_sliding()
        assert code.apply_window(("1", "1")) == "0"
        assert code.width == 2

    def test_recode_window_shift_of_full_2_shift(self):
        rec = recode_to_one_block(xor_sliding())
        names = rec.window_shift.alphabet.symbols
        assert names == ("00", "01", "10", "11")
        assert rec.window_shift.allows("00", "01")
        assert not rec.window_shift.allows("00", "10")

    def test_recode_golden_has_three_windows(self):
        g = golden()
        rule = {("0", "0"): "a", ("0", "1"): "b", ("1", "0"): "b"}
        code = SlidingBlockCode.from_dict(g, ("a", "b"), 0, 1, rule)
        rec = recode_to_one_block(code)
        # 11 is not a golden block, so only three windows exist
        assert rec.window_shift.alphabet.symbols == ("00", "01", "10")

    def test_recoded_code_matches_sliding_on_points(self):
        code = xor_sliding()
        rec = recode_to_one_block(code)
        p = PeriodicPoint.make(Block(("0", "1", "1")), 0)
        lifted = rec.lift_point(p)
        assert apply_to_point(rec.code, lifted) == apply_sliding_to_point(code, p)

    @pytest.mark.parametrize("symbols", [("a0", "a1"), ("a", "bc")])
    def test_lift_point_on_a_multi_character_domain(self, symbols):
        # windows are named by joining their symbols with "_", every
        # window alike, so lift_point lands on symbols of the window shift
        full = VertexShift.full_shift(symbols)
        rule = {
            (a, b): str((i + j) % 2)
            for i, a in enumerate(symbols)
            for j, b in enumerate(symbols)
        }
        code = SlidingBlockCode.from_dict(full, ("0", "1"), 0, 1, rule)
        rec = recode_to_one_block(code)
        a, b = symbols
        names = (f"{a}_{a}", f"{a}_{b}", f"{b}_{a}", f"{b}_{b}")
        assert rec.window_shift.alphabet.symbols == names
        p = PeriodicPoint.make((a, b, b))
        lifted = rec.lift_point(p)
        assert is_point_of(rec.window_shift, lifted)
        assert apply_to_point(rec.code, lifted) == apply_sliding_to_point(code, p)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.text(alphabet="ab_\\", min_size=1, max_size=3),
            min_size=2,
            max_size=4,
            unique=True,
        ),
        st.integers(1, 3),
    )
    def test_window_names_are_distinct(self, symbols, width):
        # symbols may hold "_", the joiner of multi-character windows,
        # and "\\", its escape: the names of all windows of one width
        # still differ from each other
        alphabet = Alphabet(tuple(symbols))
        windows = [()]
        for _ in range(width):
            windows = [w + (s,) for w in windows for s in symbols]
        names = codes_module._window_names(alphabet, windows)
        assert len(set(names)) == len(windows)

    def test_conjugacy_is_window_to_central_symbol(self):
        rec = recode_to_one_block(xor_sliding())
        assert rec.width == 2
        assert rec.offset == 0
        assert rec.conjugacy.apply_symbol("01") == "0"

    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    @pytest.mark.parametrize("shift", ["golden", "full2", "full3"])
    def test_window_edges_are_the_all_pairs_rule(self, shift, width):
        # the edges join windows by overlap; they must be exactly the
        # pairs the all-pairs rule finds, in the same named window shift
        domain = {
            "golden": golden(),
            "full2": VertexShift.full_shift(("0", "1")),
            "full3": VertexShift.full_shift(("0", "1", "2")),
        }[shift]
        windows = [b.symbols for b in enumerate_blocks(domain, width)]
        rule = {w: str(sum(map(int, w)) % 2) for w in windows}
        memory = width // 2
        code = SlidingBlockCode.from_dict(
            domain, ("0", "1"), memory, width - 1 - memory, rule
        )
        names = tuple("".join(w) for w in windows)
        pairs = frozenset(
            (names[i], names[j])
            for i, w in enumerate(windows)
            for j, w2 in enumerate(windows)
            if w[1:] == w2[:-1] and domain.allows(w[-1], w2[-1])
        )
        rec = recode_to_one_block(code)
        assert rec.window_shift == VertexShift(Alphabet(names), pairs)
        assert rec.window_shift.alphabet.symbols == names


class TestCompose:
    def test_compose_order(self, xor2):
        pi = compose(xor2.phi, xor2.psi)
        assert pi.mapping == xor2.pi.mapping

    def test_compose_checks_alphabets(self, xor2):
        with pytest.raises(AlphabetMismatch):
            compose(xor2.psi, xor2.phi)

    def test_soundness_is_checked_once_per_shift(self, xor2, monkeypatch):
        # phi was checked against Y when it was built, and psi's domain is
        # that very shift, so the one soundness walk is the composite's
        # own, against Z; over an equal copy of Y, phi is walked again
        walks = []
        unsound = codes_module._unsound_pair

        def walking(code, shift):
            walks.append((code, shift))
            return unsound(code, shift)

        monkeypatch.setattr(codes_module, "_unsound_pair", walking)
        assert xor2.phi.codomain is xor2.psi.domain
        pi = compose(xor2.phi, xor2.psi)
        assert [(c is pi, s is xor2.Z_shift) for c, s in walks] == [(True, True)]
        copy = VertexShift(xor2.Y.alphabet, xor2.Y.allowed)
        assert copy == xor2.Y and copy is not xor2.Y
        psi = OneBlockCode(copy, xor2.Z_alphabet, xor2.psi.mapping, xor2.Z_shift)
        walks.clear()
        assert compose(xor2.phi, psi).mapping == pi.mapping
        assert [(c is xor2.phi, s is copy) for c, s in walks] == [
            (True, True),
            (False, False),
        ]

    def test_a_distinct_domain_is_still_checked(self):
        # f lands soundly in the full shift on x and y, an unequal shift
        # on g's domain alphabet: f is walked against g's domain, and the
        # unsound pair is named as before
        cyc = VertexShift.build("xy", [("x", "y"), ("y", "x")])
        full = VertexShift.full_shift(("x", "y"))
        ba = VertexShift.full_shift(("b", "a"))
        f = OneBlockCode(ba, full.alphabet, ("x", "y"), full)
        message = (
            "^composition unsound: f maps \\('b','b'\\) onto pair "
            "\\('x','x'\\) forbidden in g's domain$"
        )
        with pytest.raises(InvariantViolation, match=message):
            compose(f, identity_code(cyc))


def _onto_abc():
    """An onto code into the full 2-shift whose closure passes a cap of 2."""
    full = VertexShift.full_shift(("0", "1"))
    edges = [("a", "a"), ("a", "b"), ("a", "c"), ("b", "c"), ("c", "a"), ("c", "c")]
    images = {"a": "0", "b": "0", "c": "1"}
    return OneBlockCode.from_dict(VertexShift.build("abc", edges), full.alphabet, images, full), full


class TestCheckOnto:
    def test_xor2_phi_onto_certified(self, xor2):
        # exact: the subset automaton closes after the one-letter blocks
        res = check_onto(xor2.phi, xor2.Y)
        assert res.ok
        assert res.checked_length == 1
        assert res.missing_block is None

    def test_missing_block_named(self):
        g = golden()
        sub = OneBlockCode.from_dict(
            g, ("0", "1"), {"0": "0", "1": "0"}, codomain=g
        )
        res = check_onto(sub, g)
        assert not res.ok
        assert res.missing_block.text() == "1"
        assert res.checked_length == 1

    def test_bool_protocol(self, xor2):
        assert check_onto(xor2.phi, xor2.Y)

    def test_closure_depth_and_shortest_missing_block(self):
        # "10" reaches the state (0, {a}), a strict part of the mask of 0,
        # so the closure needs two levels; without a -> c nothing carrying
        # 1 follows it, and "101" is the shortest, then least, block
        # without preimage
        full = VertexShift.full_shift(("0", "1"))
        edges = [("a", "a"), ("a", "b"), ("b", "c"), ("c", "a"), ("c", "c")]
        images = {"a": "0", "b": "0", "c": "1"}
        onto = OneBlockCode.from_dict(
            VertexShift.build("abc", edges + [("a", "c")]), full.alphabet, images, full
        )
        res = check_onto(onto, full)
        assert (res.ok, res.checked_length) == (True, 2)
        gap = OneBlockCode.from_dict(
            VertexShift.build("abc", edges), full.alphabet, images, full
        )
        res = check_onto(gap, full)
        assert (res.ok, res.checked_length, res.missing_block.text()) == (False, 3, "101")

    def test_least_missing_block_in_alphabet_order(self):
        # "ba" and "ab" both lack a preimage; b comes first in the
        # alphabet, so "ba" is the least, where sorting text gives "ab"
        full = VertexShift.full_shift(("b", "a"))
        loops = VertexShift.build(("p", "q"), [("p", "p"), ("q", "q")])
        code = OneBlockCode.from_dict(loops, full.alphabet, {"p": "b", "q": "a"}, full)
        res = check_onto(code, full)
        assert (res.ok, res.checked_length, res.missing_block.text()) == (False, 2, "ba")

    def test_cap_raises_resource_limit(self, monkeypatch):
        code, full = _onto_abc()
        monkeypatch.setattr("sftcd.core.DEFAULT_CAP", 2)
        with pytest.raises(ResourceLimit, match="cap of 2"):
            check_onto(code, full)


    def test_a_kept_answer_does_not_serve_a_smaller_cap(self, monkeypatch):
        # the answer kept at the default cap is keyed by that cap, so the
        # same question under a cap of 2 closes again and passes it
        code, full = _onto_abc()
        assert check_onto(code, full).ok
        assert len(codes_module._ONTO) == 1
        monkeypatch.setattr("sftcd.core.DEFAULT_CAP", 2)
        with pytest.raises(ResourceLimit, match="cap of 2"):
            check_onto(code, full)

    def test_a_closure_past_its_cap_keeps_nothing(self, monkeypatch):
        code, full = _onto_abc()
        monkeypatch.setattr("sftcd.core.DEFAULT_CAP", 2)
        for _ in range(2):
            with pytest.raises(ResourceLimit, match="cap of 2"):
                check_onto(code, full)
        assert codes_module._ONTO == {}

    def test_a_renamed_copy_is_answered_in_its_own_symbols(self, monkeypatch):
        # the gap code of test_closure_depth_and_shortest_missing_block
        # with every symbol renamed: the kept answer serves the copy, with
        # the missing block spelled in the copy's letters, as a fresh
        # closure spells it
        def gap(names, letters):
            full = VertexShift.full_shift(letters)
            edges = [("a", "a"), ("a", "b"), ("b", "c"), ("c", "a"), ("c", "c")]
            images = {"a": letters[0], "b": letters[0], "c": letters[1]}
            X = VertexShift.build(
                [names[s] for s in "abc"], [(names[a], names[b]) for a, b in edges]
            )
            return OneBlockCode.from_dict(
                X, full.alphabet, {names[s]: y for s, y in images.items()}, full
            ), full

        plain = check_onto(*gap({s: s for s in "abc"}, ("0", "1")))
        assert (plain.ok, plain.checked_length, plain.missing_block.text()) == (False, 3, "101")
        closures = []
        real = codes_module._onto_closure
        monkeypatch.setattr(
            codes_module, "_onto_closure", lambda *a: closures.append(a) or real(*a)
        )
        copy = gap({"a": "p", "b": "q", "c": "r"}, ("L", "H"))
        kept = check_onto(*copy)
        assert closures == []
        codes_module._ONTO.clear()
        assert check_onto(*copy) == kept
        assert len(closures) == 1
        assert (kept.ok, kept.checked_length, kept.missing_block.text()) == (False, 3, "HLH")

    def test_missing_block_ends_the_closure(self, monkeypatch):
        # a 4-cycle read 0100: "11" has no preimage, and the closure
        # reaches it at level 2 with 5 states of the 8 it holds over 4
        # levels; no later level is grown, so a cap of 5 is not passed
        full = VertexShift.full_shift(("0", "1"))
        code = OneBlockCode.from_dict(
            VertexShift.build("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]),
            full.alphabet,
            {"a": "0", "b": "1", "c": "0", "d": "0"},
            full,
        )
        monkeypatch.setattr("sftcd.core.DEFAULT_CAP", 5)
        res = check_onto(code, full)
        assert (res.ok, res.checked_length, res.missing_block.text()) == (False, 2, "11")
        monkeypatch.setattr("sftcd.core.DEFAULT_CAP", 4)
        with pytest.raises(ResourceLimit, match="cap of 4 at level 2$"):
            check_onto(code, full)

@st.composite
def small_onto_subjects(draw):
    """A code from a vertex shift of at most 4 symbols into an irreducible
    one of at most 3, edge-compatible by construction."""
    ys = tuple(f"y{i}" for i in range(draw(st.integers(1, 3))))
    order = draw(st.permutations(ys))
    y_pairs = {(order[i], order[(i + 1) % len(ys)]) for i in range(len(ys))}
    y_pairs |= draw(st.sets(st.tuples(st.sampled_from(ys), st.sampled_from(ys))))
    Y = VertexShift.build(ys, sorted(y_pairs))
    xs = tuple(f"x{i}" for i in range(draw(st.integers(1, 4))))
    images = dict(zip(xs, draw(st.lists(st.sampled_from(ys), min_size=len(xs), max_size=len(xs)))))
    compatible = [(a, b) for a in xs for b in xs if Y.allows(images[a], images[b])]
    x_pairs = draw(st.sets(st.sampled_from(compatible))) if compatible else set()
    try:
        X = VertexShift.build(xs, sorted(x_pairs))
    except SftcdError:
        assume(False)
    mapping = {s: images[s] for s in X.alphabet.symbols}
    return OneBlockCode.from_dict(X, Y.alphabet, mapping, codomain=Y), Y


@settings(max_examples=80, deadline=None)
@given(small_onto_subjects())
def test_check_onto_against_brute_force_fibers(subject):
    code, Y = subject
    res = check_onto(code, Y)
    if res.ok:
        for length in range(1, 7):
            for block in enumerate_blocks(Y, length):
                assert fiber_paths(code, block.symbols)
        return
    missing = res.missing_block
    assert res.checked_length == len(missing)
    assert validate_block(Y, missing)
    assert not fiber_paths(code, missing.symbols)
    for length in range(1, len(missing) + 1):
        for block in enumerate_blocks(Y, length):
            if block == missing:
                break
            assert fiber_paths(code, block.symbols)


class TestFiniteToOne:
    def test_builtin_codes(self, xor2, mod3, golden_identity):
        assert is_finite_to_one(xor2.phi)
        assert not is_finite_to_one(xor2.psi)
        assert is_finite_to_one(mod3.phi)
        assert is_finite_to_one(golden_identity.psi)

    def test_diamond_code_is_infinite_to_one(self):
        # two parallel tracks a->b and a->c with equal images reconverging
        dom = VertexShift.build(
            ("a", "b", "c", "d"),
            [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"), ("d", "a")],
        )
        code = OneBlockCode.from_dict(
            dom, ("p", "q", "r"), {"a": "p", "b": "q", "c": "q", "d": "r"}
        )
        assert not is_finite_to_one(code)

    @settings(max_examples=100, deadline=None)
    @given(small_codes())
    def test_against_pair_counting_oracle(self, xor2, mod3, drawn):
        cases = [xor2.phi, xor2.psi, xor2.pi, mod3.phi, mod3.psi, drawn]
        dom = VertexShift.build(
            ("a", "b", "c", "d"),
            [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"), ("d", "a")],
        )
        cases.append(
            OneBlockCode.from_dict(
                dom, ("p", "q", "r"), {"a": "p", "b": "q", "c": "q", "d": "r"}
            )
        )
        cases.append(identity_code(golden()))
        cases.append(trivial_code(golden()))
        for code in cases:
            assert is_finite_to_one(code) == naive_finite_to_one(code)


def _raised(make, *args, **kwargs):
    """(type, text) of the error make(*args, **kwargs) raises."""
    with pytest.raises(SftcdError) as caught:
        make(*args, **kwargs)
    return type(caught.value), str(caught.value)


class TestCodeTriple:
    def test_build_recomputes_pi(self, xor2):
        assert xor2.pi.mapping == tuple(
            xor2.psi.apply_symbol(xor2.phi.apply_symbol(s))
            for s in xor2.X.alphabet.symbols
        )
        # a triple with another psi carries that psi's composite
        other = dataclasses.replace(xor2, psi=identity_code(xor2.Y))
        assert other.pi == compose(xor2.phi, other.psi)
        assert other.pi.mapping == xor2.phi.mapping
        assert other.Z_alphabet == xor2.Y.alphabet
        assert _raised(dataclasses.replace, xor2, psi=trivial_code(golden())) == (
            AlphabetMismatch,
            "psi's domain shift is not phi's codomain",
        )

    def test_build_requires_attached_codomain(self):
        g = golden()
        phi = OneBlockCode.from_dict(g, ("z",), {"0": "z", "1": "z"})
        psi = identity_code(VertexShift.full_shift(("z",)))
        expected = (InvariantViolation, "phi needs an attached codomain shift")
        assert _raised(CodeTriple.build, phi, psi) == expected
        # the constructor raises it too, and before a psi that does not fit
        assert _raised(CodeTriple, phi, psi) == expected
        assert _raised(CodeTriple, phi, trivial_code(g)) == expected

    def test_build_requires_onto_phi(self):
        g = golden()
        phi = OneBlockCode.from_dict(g, ("0", "1"), {"0": "0", "1": "0"}, codomain=g)
        psi = trivial_code(g)
        with pytest.raises(InvariantViolation):
            CodeTriple.build(phi, psi)

    def test_build_requires_irreducible_shifts(self):
        # X's two loops never reach each other; then, with X one loop,
        # Y's two loops do not
        two_loops = VertexShift.build(("a", "b"), [("a", "a"), ("b", "b")])
        y = VertexShift.full_shift(("y",))
        phi = OneBlockCode.from_dict(two_loops, ("y",), {"a": "y", "b": "y"}, codomain=y)
        expected = (InvariantViolation, "X is not irreducible")
        assert _raised(CodeTriple.build, phi, identity_code(y)) == expected
        one_loop = VertexShift.build(("a",), [("a", "a")])
        y = VertexShift.build(("y0", "y1"), [("y0", "y0"), ("y1", "y1")])
        phi = OneBlockCode.from_dict(one_loop, ("y0", "y1"), {"a": "y0"}, codomain=y)
        expected = (InvariantViolation, "Y is not irreducible")
        assert _raised(CodeTriple.build, phi, identity_code(y)) == expected

    def test_build_requires_matching_psi_domain(self, xor2):
        other = trivial_code(golden())
        expected = (AlphabetMismatch, "psi's domain shift is not phi's codomain")
        assert _raised(CodeTriple.build, xor2.phi, other) == expected
        assert _raised(CodeTriple, xor2.phi, other) == expected

    def test_shifts_and_pi_are_read_off_the_codes(self):
        triples = [builtin_triple(name) for name in BUILTIN_NAMES]
        triples += [generate_triple(spec_for_seed(seed)) for seed in range(1, 21)]
        for t in triples:
            assert t.X == t.phi.domain and t.Y == t.phi.codomain
            assert t.Z_alphabet == t.psi.codomain_alphabet
            assert t.Z_shift == t.psi.codomain
            assert t.pi == compose(t.phi, t.psi)
            assert CodeTriple(t.phi, t.psi) == t
        assert [f.name for f in dataclasses.fields(CodeTriple)] == ["phi", "psi", "pi"]
        for name in ("X", "Y", "Z_alphabet", "Z_shift"):
            assert isinstance(vars(CodeTriple)[name], property), name

    def test_psi_word(self, xor2):
        assert xor2.psi.apply_word(("0", "1", "0")) == ("z", "z", "z")

    def test_z_shift_is_full(self, xor2):
        z = xor2.Z_shift
        assert z.alphabet.symbols == ("z",)
        assert z.allows("z", "z")
