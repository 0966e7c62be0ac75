from contextlib import nullcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fiber_paths, reference_step_mask, reference_step_mask_back, small_codes
from sftcd.codes import OneBlockCode
from sftcd.core import DEFAULT_CAP, Block, VertexShift, iter_bits, parse_block_text
from sftcd.depth import _endpoint_pairs, _forward_sets
from sftcd.errors import InvalidBlock, NotFiniteToOne, ResourceLimit, UnknownSymbol
from sftcd.fiber import (
    _letter_masks,
    _side_closures,
    degree_finite_to_one,
    find_magic_block,
    forward_layers,
    iter_fiber,
    preimage_blocks,
    preimage_symbol_count,
    pruned_layers,
)
from sftcd.graphs import closure


def w(triple, text):
    return parse_block_text(triple.Y.alphabet, text)


class TestLayers:
    def test_forward_layers_track_reachable_symbols(self, xor2):
        layers = forward_layers(xor2.phi, ("0", "0"))
        # starts {00, 11}; both continue to a 0-image successor
        assert layers[0].bit_count() == 2
        assert layers[1].bit_count() == 2

    def test_pruning_removes_dead_ends(self):
        # b sits on no complete preimage of pq: it cannot reach the q layer
        dom = VertexShift.build(
            ("a", "b", "c"), [("a", "b"), ("a", "c"), ("c", "a"), ("b", "a")]
        )
        code = OneBlockCode.from_dict(
            dom, ("p", "q"), {"a": "p", "b": "p", "c": "q"}
        )
        fwd = forward_layers(code, ("p", "q"))
        assert fwd[0].bit_count() == 2
        pruned = pruned_layers(code, ("p", "q"))
        assert pruned[0].bit_count() == 1

    def test_empty_fiber_is_none(self):
        g = VertexShift.build(("0", "1"), [("0", "0"), ("0", "1"), ("1", "0")])
        sub = OneBlockCode.from_dict(g, ("0", "1"), {"0": "0", "1": "0"})
        assert pruned_layers(sub, ("1",)) is None

    def test_foreign_letter_is_named(self, xor2):
        # the layers read code.letter_masks; a missing key is named as a
        # foreign codomain symbol, and pruning the layers raises it too
        for take in (
            lambda: forward_layers(xor2.phi, ("0", "q")),
            lambda: pruned_layers(xor2.phi, ("0", "q")),
        ):
            with pytest.raises(UnknownSymbol) as err:
                take()
            assert str(err.value) == "symbol 'q' not in codomain alphabet"


class TestIterFiber:
    def test_lex_order(self, xor2):
        layers = pruned_layers(xor2.pi, ("z", "z", "z"))
        paths = list(iter_fiber(xor2.pi, layers))
        assert paths == sorted(paths)
        # 4 starts, then 2 compatible successors at each of 2 more steps
        assert len(paths) == 16

    def test_matches_brute_force(self, xor2, mod3):
        for triple, text in [
            (xor2, "00"),
            (xor2, "010"),
            (mod3, "012"),
            (mod3, "00"),
        ]:
            word = tuple(w(triple, text).symbols)
            layers = pruned_layers(triple.phi, word)
            symbols = triple.X.alphabet.symbols
            got = {
                tuple(symbols[i] for i in p)
                for p in iter_fiber(triple.phi, layers)
            }
            assert got == set(fiber_paths(triple.phi, word))

    def test_cap_enforced(self, xor2):
        layers = pruned_layers(xor2.pi, ("z",) * 6)
        with pytest.raises(ResourceLimit):
            list(iter_fiber(xor2.pi, layers, cap=3))

    def test_cap_is_inclusive(self, xor2):
        layers = pruned_layers(xor2.pi, ("z",) * 3)
        assert len(list(iter_fiber(xor2.pi, layers, cap=16))) == 16
        with pytest.raises(ResourceLimit, match="fiber larger than 15 blocks"):
            list(iter_fiber(xor2.pi, layers, cap=15))


@settings(max_examples=80, deadline=None)
@given(
    small_codes(),
    st.lists(st.sampled_from(("a", "b")), min_size=1, max_size=7),
    st.integers(min_value=0, max_value=12),
)
def test_iter_fiber_and_count_against_brute_force(code, word, cap):
    # small_codes names its symbols x0, x1, ... in index order, so symbol
    # tuples sort like index tuples
    layers = pruned_layers(code, word)
    symbols = code.domain.alphabet.symbols
    paths = [tuple(symbols[i] for i in p) for p in iter_fiber(code, layers)]
    assert paths == sorted(fiber_paths(code, word))
    # capped: the first cap paths, then ResourceLimit past cap
    capped = iter_fiber(code, layers, cap)
    got = []
    with pytest.raises(ResourceLimit) if len(paths) > cap else nullcontext():
        got.extend(capped)
    assert got == list(iter_fiber(code, layers))[:cap]


@settings(max_examples=80, deadline=None)
@given(small_codes(), st.lists(st.sampled_from(("a", "b")), min_size=1, max_size=7))
def test_endpoint_pairs_on_forward_and_pruned_layers(code, word):
    # the certificate replay reads a fiber's endpoint pairs off forward
    # layers: a dead-end symbol reaches no end symbol, so they give the
    # pairs of the pruned layers, those of the fiber's paths
    pruned = pruned_layers(code, word)
    if pruned is None:
        assert forward_layers(code, word) is None
        return
    forward = _endpoint_pairs(_forward_sets(code.domain, forward_layers(code, word)))
    ends = sorted({(p[0], p[-1]) for p in iter_fiber(code, pruned)})
    assert forward == _endpoint_pairs(_forward_sets(code.domain, pruned)) == ends


def _side_closures_vector_by_vector(domain, tracks, labels, cap):
    """Reference for _side_closures on every block (no cycle): each tuple
    of a side stepped on its own, track by track, by the plain pair loop
    of conftest.reference_step_mask, and kept when its first track is
    nonzero."""
    slots = range(len(labels))
    seeds = [
        ((slot, frozenset((1 << s,) * len(tracks) for s in iter_bits(mask))), (labels[slot],))
        for slot, mask in enumerate(tracks[0])
        if mask
    ]

    def grower(back):
        ref = reference_step_mask_back if back else reference_step_mask

        def grow(side, word):
            for slot in slots:
                moved = [
                    tuple(ref(domain, m) & masks[slot] for m, masks in zip(vec, tracks))
                    for vec in side[1]
                ]
                vecs = frozenset(vec for vec in moved if vec[0])
                if vecs:
                    label = (labels[slot],)
                    yield (slot, vecs), label + word if back else word + label

        return grow

    return closure(seeds, grower(False), cap), closure(seeds, grower(True), cap)


@settings(max_examples=80, deadline=None)
@given(small_codes(), st.booleans())
def test_side_closures_step_as_each_vector_would(code, relative):
    # a side is stepped track by track, each track's members through one
    # stepper; every level of both closures must hold the sides and words
    # that stepping each tuple on its own gives.  Relative mode adds the
    # track of a psi that merges both letters, whose masks hold every
    # domain symbol
    letters = code.codomain_alphabet.symbols
    tracks = (_letter_masks(code, letters),)
    if relative:
        everything = (1 << len(code.domain.alphabet)) - 1
        tracks += ((everything,) * len(letters),)
    labels = tuple(range(len(letters)))
    got = _side_closures(code.domain, tracks, labels, False, DEFAULT_CAP)
    want = _side_closures_vector_by_vector(code.domain, tracks, labels, DEFAULT_CAP)
    for side, reference in zip(got, want):
        assert list(side) == list(reference)


def test_endpoint_pairs_past_a_dead_end():
    # b carries 0 but steps only to c, which carries 1: over 00 it is a
    # dead end in the first forward layer, which pruning removes
    dom = VertexShift.build(
        ("a", "b", "c"), [("a", "a"), ("a", "b"), ("b", "c"), ("c", "a")]
    )
    code = OneBlockCode.from_dict(dom, ("0", "1"), {"a": "0", "b": "0", "c": "1"})
    forward = forward_layers(code, ("0", "0"))
    pruned = pruned_layers(code, ("0", "0"))
    assert (forward, pruned) == ([3, 3], [1, 3])
    pairs = [_endpoint_pairs(_forward_sets(dom, layers)) for layers in (forward, pruned)]
    assert pairs == [[(0, 0), (0, 1)]] * 2


class TestPreimageBlocks:
    def test_xor2_fiber_of_00(self, xor2):
        slice_ = preimage_blocks(xor2.phi, w(xor2, "00"))
        assert [b.text() for b in slice_.preimages] == ["00·00", "11·11"]
        assert slice_.by_coordinate == (("00", "11"), ("00", "11"))

    def test_empty_fiber_slice(self):
        g = VertexShift.build(("0", "1"), [("0", "0"), ("0", "1"), ("1", "0")])
        sub = OneBlockCode.from_dict(g, ("0", "1"), {"0": "0", "1": "0"})
        slice_ = preimage_blocks(sub, Block(("1",)))
        assert len(slice_) == 0
        assert slice_.by_coordinate == ((),)

    def test_unknown_symbol(self, xor2):
        with pytest.raises(UnknownSymbol):
            preimage_blocks(xor2.phi, Block(("z",)))


class TestSymbolCount:
    def test_xor2_counts(self, xor2):
        assert preimage_symbol_count(xor2.phi, w(xor2, "00"), 1) == 2
        assert preimage_symbol_count(xor2.pi, Block(("z",) * 3), 2) == 4

    def test_coordinate_bounds(self, xor2):
        with pytest.raises(InvalidBlock):
            preimage_symbol_count(xor2.phi, w(xor2, "00"), 3)

    def test_zero_on_empty_fiber(self):
        g = VertexShift.build(("0", "1"), [("0", "0"), ("0", "1"), ("1", "0")])
        sub = OneBlockCode.from_dict(g, ("0", "1"), {"0": "0", "1": "0"})
        assert preimage_symbol_count(sub, Block(("1",)), 1) == 0


class TestMagicBlock:
    def test_xor2_phi(self, xor2):
        res = find_magic_block(xor2.phi)
        assert (res.block.text(), res.coordinate, res.value) == ("0", 1, 2)
        assert res.certified.certified

    def test_trivial_pi_floor_is_alphabet_size(self, xor2):
        # every coordinate of every preimage can carry any of the four
        # symbols, so no block does better than 4
        res = find_magic_block(xor2.pi)
        assert res.value == 4
        assert res.block.text() == "z"
        assert res.coordinate == 1
        assert res.certified.certified

    def test_mod3_phi(self, mod3):
        res = find_magic_block(mod3.phi)
        assert res.value == 3
        assert res.certified.certified

    def test_identity_is_instantly_magic(self, golden_identity):
        res = find_magic_block(golden_identity.phi)
        assert res.value == 1
        assert len(res.block) == 1
        assert res.certified.certified

    def test_counts_lower_bound_fiber_spread(self, xor2, mod3):
        # the reported value equals the count seen at the block itself
        for triple in (xor2, mod3):
            res = find_magic_block(triple.phi)
            assert (
                preimage_symbol_count(triple.phi, res.block, res.coordinate)
                == res.value
            )


class TestDegreeFiniteToOne:
    def test_xor2_phi_degree(self, xor2):
        assert degree_finite_to_one(xor2.phi) == 2

    def test_mod3_phi_degree(self, mod3):
        assert degree_finite_to_one(mod3.phi) == 3

    def test_rejects_infinite_to_one(self, xor2):
        with pytest.raises(NotFiniteToOne):
            degree_finite_to_one(xor2.psi)


class TestFiberInvariants:
    def test_min_count_monotone_under_extension(self, xor2, mod3):
        from sftcd.core import enumerate_blocks, validate_block

        for code in (xor2.phi, xor2.pi, mod3.phi):
            Y = code.codomain
            for length in range(1, 5):
                for wb in enumerate_blocks(Y, length):
                    base = preimage_blocks(code, wb)
                    if not base.preimages:
                        continue
                    m0 = min(len(c) for c in base.by_coordinate)
                    for a in Y.alphabet.symbols:
                        for ext_syms in ((a,) + wb.symbols, wb.symbols + (a,)):
                            ext = Block(ext_syms)
                            if not validate_block(Y, ext):
                                continue
                            sl = preimage_blocks(code, ext)
                            if not sl.preimages:
                                continue
                            assert min(len(c) for c in sl.by_coordinate) <= m0

    def test_projection_consistency(self, xor2, mod3):
        from sftcd.core import enumerate_blocks

        for code in (xor2.phi, mod3.phi, xor2.pi):
            for length in range(1, 5):
                for wb in enumerate_blocks(code.codomain, length):
                    sl = preimage_blocks(code, wb)
                    if not sl.preimages:
                        continue
                    for col in sl.by_coordinate:
                        assert len(col) <= len(sl.preimages)
                        assert len(col) <= len(code.domain.alphabet.symbols)
                        assert len(set(col)) == len(col)

    def test_degree_is_min_periodic_preimage_count(
        self, xor2, mod3, golden_identity
    ):
        from conftest import periodic_preimage_points
        from sftcd.core import periodic_points_of

        for t, expect in ((xor2, 2), (mod3, 3), (golden_identity, 1)):
            best = min(
                periodic_preimage_points(t.phi, p)
                for p in periodic_points_of(t.Y, 6)
            )
            assert best == degree_finite_to_one(t.phi) == expect
