import tracemalloc
from contextlib import nullcontext
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fiber_paths, reference_step_mask, reference_step_mask_back, small_codes
from sftcd.codes import OneBlockCode, trivial_code
from sftcd.core import (
    DEFAULT_CAP,
    Block,
    VertexShift,
    enumerate_blocks,
    iter_bits,
    parse_block_text,
)
from sftcd.corpus import BUILTIN_NAMES, builtin_triple
from sftcd.errors import InvalidBlock, NotFiniteToOne, ResourceLimit, UnknownSymbol
from sftcd.fiber import (
    Fiber,
    _letter_masks,
    _side_closures,
    degree_finite_to_one,
    fiber_of,
    find_magic_block,
    iter_fiber,
    preimage_blocks,
    preimage_symbol_count,
    pruned_layers,
)
from sftcd.graphs import closure
from sftcd.harness import generate_triple, spec_for_seed


def w(triple, text):
    return parse_block_text(triple.Y.alphabet, text)


class TestLayers:
    def test_forward_layers_track_reachable_symbols(self, xor2):
        layers = fiber_of(xor2.phi, ("0", "0")).forward
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
        fwd = fiber_of(code, ("p", "q")).forward
        assert fwd[0].bit_count() == 2
        pruned = pruned_layers(code, ("p", "q"))
        assert pruned[0].bit_count() == 1

    def test_empty_fiber_is_none(self):
        g = VertexShift.build(("0", "1"), [("0", "0"), ("0", "1"), ("1", "0")])
        sub = OneBlockCode.from_dict(g, ("0", "1"), {"0": "0", "1": "0"})
        assert pruned_layers(sub, ("1",)) is None

    def test_foreign_letter_is_named(self, xor2):
        # a Fiber reads code.letter_masks; a missing key is named as a
        # foreign codomain symbol, and pruning the layers raises it too
        for take in (
            lambda: fiber_of(xor2.phi, ("0", "q")),
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

    def test_cap_enforced(self, xor2, monkeypatch):
        layers = pruned_layers(xor2.pi, ("z",) * 6)
        monkeypatch.setattr("sftcd.core.DEFAULT_CAP", 3)
        with pytest.raises(ResourceLimit):
            list(iter_fiber(xor2.pi, layers))

    def test_cap_is_inclusive(self, xor2, monkeypatch):
        layers = pruned_layers(xor2.pi, ("z",) * 3)
        monkeypatch.setattr("sftcd.core.DEFAULT_CAP", 16)
        assert len(list(iter_fiber(xor2.pi, layers))) == 16
        monkeypatch.setattr("sftcd.core.DEFAULT_CAP", 15)
        with pytest.raises(ResourceLimit, match="fiber larger than 15 blocks"):
            list(iter_fiber(xor2.pi, layers))

    def test_the_first_path_costs_only_its_length(self, monkeypatch):
        # a fiber of 2**60 paths: the first one is yielded before any
        # other prefix is built.  A lister that built each layer's
        # prefixes up to the cap first would hold tens of MB even at this
        # cap, and gigabytes at the default one
        monkeypatch.setattr("sftcd.core.DEFAULT_CAP", 10**4)
        code = trivial_code(VertexShift.full_shift(("a", "b")))
        layers = pruned_layers(code, ("z",) * 60)
        tracemalloc.start()
        try:
            path = next(iter_fiber(code, layers))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path == (0,) * 60
        assert peak < 2**20


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
    got = []
    with patch("sftcd.core.DEFAULT_CAP", cap):
        with pytest.raises(ResourceLimit) if len(paths) > cap else nullcontext():
            got.extend(iter_fiber(code, layers))
    assert got == list(iter_fiber(code, layers))[:cap]


def _pairs_off_forward_sets(domain, layers):
    """Reference for Fiber.pairs: (s, t) for each start symbol s and each
    symbol t of the last layer of its whole forward sets, swept here
    layer by layer with conftest.reference_step_mask."""
    fs = {}
    for s in iter_bits(layers[0]):
        hist = [1 << s]
        for layer in layers[1:]:
            hist.append(reference_step_mask(domain, hist[-1]) & layer)
        fs[s] = hist
    return [(s, t) for s, hist in fs.items() for t in iter_bits(hist[-1])]


@settings(max_examples=80, deadline=None)
@given(small_codes(), st.lists(st.sampled_from(("a", "b")), min_size=1, max_size=7))
def test_end_pairs_read_off_end_masks(code, word):
    # a Fiber reads its pairs off the last layer of each start's forward
    # set over the unpruned letter masks, or off the last forward layer
    # for a lone start; they are the pairs the reference reads off whole
    # forward sets over the forward or the pruned layers, in the same
    # order, and those are the endpoints of the fiber's paths in index
    # order.  An empty pruned fiber has no forward layers and no pairs
    fiber = fiber_of(code, word)
    pruned = pruned_layers(code, word)
    if pruned is None:
        assert (fiber.forward, fiber.pairs) == (None, ())
        return
    ends = sorted({(p[0], p[-1]) for p in iter_fiber(code, pruned)})
    for layers in (fiber.forward, pruned):
        assert list(fiber.pairs) == _pairs_off_forward_sets(code.domain, layers) == ends


def _reference_sweep(step, domain, mask, layers):
    """[mask, then mask stepped into each of layers in turn], each step
    the plain pair loop of conftest's step (forward or backward)."""
    sweep = [mask]
    for layer in layers:
        sweep.append(step(domain, sweep[-1]) & layer)
    return sweep


def _assert_tables_sweep_as_the_reference(code, word):
    """A new Fiber of word under code: reading forward and pairs asks the
    domain for no backward stepper, and a lone start sweeps no forward
    set either; then every entry of fs, bs and to_m equals the reference
    sweep, a second read returns the same object, and each table keeps
    only the keys read from it."""
    domain = code.domain
    with pytest.MonkeyPatch.context() as mp:
        # the shift may keep a backward stepper from an earlier read;
        # hide it until the context ends, so that a new ask shows
        mp.delitem(domain.__dict__, "step_mask_back", raising=False)
        mp.delitem(domain._steppers, (True, -1), raising=False)
        kept = set(domain._steppers)
        fiber = Fiber(code, word)
        forward, pairs = fiber.forward, fiber.pairs
        assert "step_mask_back" not in domain.__dict__
        assert not any(back for back, _ in set(domain._steppers) - kept)
    if forward is not None and forward[0].bit_count() == 1:
        assert not fiber.fs and pairs
    masks, symbols = fiber.masks, range(len(domain.alphabet))
    fs, bs, to_m = fiber.fs, fiber.bs, fiber.to_m
    for s in symbols:
        want = _reference_sweep(reference_step_mask, domain, 1 << s, masks[1:])
        assert fs[s] == want and fs[s] is fs[s]
    assert not bs and not to_m
    back = reference_step_mask_back
    for n in range(1, len(masks) + 1):
        for m in symbols:
            head = masks[:n]
            want = _reference_sweep(back, domain, head[-1] & 1 << m, head[-2::-1])
            assert to_m[m, n] == want[::-1] and to_m[m, n] is to_m[m, n]
    assert not bs
    for t in symbols:
        want = _reference_sweep(back, domain, masks[-1] & 1 << t, masks[-2::-1])
        assert bs[t] == want[::-1] and bs[t] is bs[t]
        assert bs[t] is not to_m[t, len(masks)]
    assert set(fs) == set(bs) == set(symbols)
    assert set(to_m) == {(m, n) for m in symbols for n in range(1, len(masks) + 1)}


def test_symbol_tables_sweep_as_the_reference():
    # phi's fiber of every Y block up to length 3 and pi's of its image,
    # on the builtins and the first generated triples
    triples = [builtin_triple(name) for name in BUILTIN_NAMES]
    triples += [generate_triple(spec_for_seed(seed)) for seed in range(1, 6)]
    for t in triples:
        for n in range(1, 4):
            for w in enumerate_blocks(t.Y, n):
                _assert_tables_sweep_as_the_reference(t.phi, w.symbols)
                _assert_tables_sweep_as_the_reference(t.pi, t.psi.apply_word(w.symbols))


@settings(max_examples=80, deadline=None)
@given(small_codes(), st.lists(st.sampled_from(("a", "b")), min_size=1, max_size=7))
def test_symbol_tables_sweep_as_the_reference_on_small_codes(code, word):
    _assert_tables_sweep_as_the_reference(code, tuple(word))


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
    got = _side_closures(code.domain, tracks, labels, False)
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
    fiber = fiber_of(code, ("0", "0"))
    pruned = pruned_layers(code, ("0", "0"))
    assert (fiber.forward, pruned) == ((3, 3), (1, 3))
    assert list(fiber.pairs) == _pairs_off_forward_sets(dom, fiber.forward)
    assert fiber.pairs == ((0, 0), (0, 1))


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
