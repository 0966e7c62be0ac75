import hashlib
import sys
import time
from dataclasses import replace
from itertools import product

import pytest
from hypothesis import given, settings

from conftest import fiber_paths, small_codes
from sftcd.bridge import (
    BridgeWitness,
    bounded_bridge_exists,
    construct_bridge,
    fixed_point_class_oracle,
    verify_bridge,
)
from sftcd.codes import (
    OneBlockCode,
    apply_to_block,
    apply_to_point,
    identity_code,
    trivial_code,
)
from sftcd.core import (
    Block,
    PeriodicPoint,
    VertexShift,
    enumerate_blocks,
    is_point_of,
    parse_block_text,
    periodic_points_of,
)
from sftcd.corpus import BUILTIN_NAMES, builtin_triple
from sftcd.depth import depth, relative_depth, relative_is_presented
from sftcd.errors import (
    ImageMismatch,
    InvalidBlock,
    InvariantViolation,
    NoFixedPoint,
    NotRoutable,
    PreconditionUnmet,
    SftcdError,
    UnknownSymbol,
)
from sftcd.harness import generate_triple, spec_for_seed


def point(*symbols, phase=0):
    return PeriodicPoint.make(Block(symbols), phase)


@pytest.fixture(scope="module")
def subjects(xor2):
    return [xor2] + [generate_triple(spec_for_seed(seed)) for seed in range(1, 21)]


def by_index(code):
    """Sort key ordering domain paths lexicographically by symbol index."""
    index = code.domain.alphabet.index
    return lambda path: [index(s) for s in path]


@pytest.fixture(scope="module")
def xor2_cert(xor2):
    w = parse_block_text(xor2.Y.alphabet, "00000")
    return relative_is_presented(xor2, w, frozenset({"00"}), 3)


class TestConstructBridge:
    def test_all_routable_pairs_verify(self, xor2, xor2_cert):
        pts = [point("00"), point("11")]
        for x, xp in product(pts, pts):
            fwd, rev = construct_bridge(xor2, x, xp, 1, xor2_cert, "00")
            assert verify_bridge(xor2, fwd)
            assert verify_bridge(xor2, rev)
            assert (fwd.left, fwd.right) == (x, xp)
            assert (rev.left, rev.right) == (xp, x)

    def test_both_points_must_show_the_certified_block(self, xor2, xor2_cert):
        # (01 10)'s image is all 1s, and the certified block is 00000
        shown, hidden = point("00"), point("01", "10")
        for x, xp in ((hidden, shown), (shown, hidden)):
            with pytest.raises(PreconditionUnmet, match="does not show"):
                construct_bridge(xor2, x, xp, 1, xor2_cert, "00")

    def test_position_outside_the_block_is_refused(self, xor2, xor2_cert):
        # the certificate's position must lie in 1..|w| (here 1..5); a
        # position outside it is refused as is_presented refuses it,
        # before a fiber is built or read: at 0 the witness tables would
        # read their last layer
        fiber_module = sys.modules["sftcd.fiber"]
        pts = point("00"), point("11")
        for n in (0, 6, 9):
            fiber_module._FIBERS.clear()
            with pytest.raises(InvalidBlock, match=rf"^position {n} outside 1\.\.5$"):
                construct_bridge(xor2, *pts, 1, replace(xor2_cert, n=n), "00")
            assert fiber_module._FIBERS == []

    def test_one_reach_per_call(self, xor2, xor2_cert, monkeypatch):
        # both windows ask one Fiber of the witness word, which sweeps the
        # backward sets of their two end symbols and no forward set;
        # fiber_of builds it through the name Fiber in fiber, the one
        # patched
        fiber_module = sys.modules["sftcd.fiber"]
        built = []

        class Recording(fiber_module.Fiber):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        monkeypatch.setattr(fiber_module, "Fiber", Recording)
        index = xor2.X.alphabet.index
        pts = [point("00"), point("11")]
        for x, xp in product(pts, pts):
            fiber_module._FIBERS.clear()
            built.clear()
            construct_bridge(xor2, x, xp, 1, xor2_cert, "00")
            (wit,) = built
            assert not wit.fs
            ends = {index(p.symbol_at(len(xor2_cert.w))) for p in (x, xp)}
            assert set(wit.bs) == ends

    def test_one_image_per_end(self, xor2, xor2_cert, monkeypatch):
        # the self-check computes each end's image letters once, compares
        # them, and replays both bridges against that image
        bridge_module = sys.modules["sftcd.bridge"]
        letters = bridge_module._image_letters
        calls = []

        def counting(code, p, length):
            calls.append(p)
            return letters(code, p, length)

        monkeypatch.setattr(bridge_module, "_image_letters", counting)
        pts = [point("00"), point("11")]
        for x, xp in product(pts, pts):
            calls.clear()
            construct_bridge(xor2, x, xp, 1, xor2_cert, "00")
            assert calls == [x, xp]

    def test_image_mismatch_fails_the_self_check(self, xor2, xor2_cert, monkeypatch):
        bridge_module = sys.modules["sftcd.bridge"]
        images = iter([("0",), ("1",)])
        monkeypatch.setattr(
            bridge_module, "_image_letters", lambda code, p, length: next(images)
        )
        with pytest.raises(InvariantViolation):
            construct_bridge(xor2, point("00"), point("11"), 1, xor2_cert, "00")

    def test_cross_track_middles(self, xor2, xor2_cert):
        fwd, rev = construct_bridge(
            xor2, point("00"), point("11"), 1, xor2_cert, "00"
        )
        assert fwd.middle_symbols == ("00", "00", "00", "01", "11")
        assert rev.middle_symbols == ("11", "10", "00", "00", "00")
        assert (fwd.m, fwd.n) == (0, 6)

    def test_absolute_mode_can_refuse(self, xor2):
        # inside phi's own fiber the ones track never reaches 00
        res = depth(xor2.phi, parse_block_text(xor2.Y.alphabet, "00000"))
        cert = res.certificate
        with pytest.raises(NotRoutable):
            construct_bridge(xor2.phi, point("11"), point("11"), 1, cert, "00")

    def test_relative_certificate_needs_a_triple(self, xor2, xor2_cert):
        with pytest.raises(PreconditionUnmet):
            construct_bridge(xor2.phi, point("00"), point("00"), 1, xor2_cert, "00")

    def test_bridges_carry_provenance(self, xor2, xor2_cert):
        fwd, _ = construct_bridge(
            xor2, point("00"), point("00"), 1, xor2_cert, "00"
        )
        assert fwd.mode == "relative"
        assert fwd.provenance


def test_shared_image_reads_the_image_points(subjects):
    # the letters over lcm of the two periods stand for the image point:
    # None exactly when the image points differ, else letter (i - 1) mod L
    # is the image point's symbol at coordinate i
    from sftcd.bridge import _shared_image

    for t in subjects[:6]:
        points = [p for n in (1, 2, 3) for p in periodic_points_of(t.X, n)]
        points += [p.shifted(1) for p in points]
        for code in (t.pi, t.phi):
            for x, xp in product(points, points):
                image = apply_to_point(code, x)
                letters = _shared_image(code, x, xp)
                if image != apply_to_point(code, xp):
                    assert letters is None
                    continue
                assert len(letters) % image.period == 0
                assert list(letters) == [
                    image.symbol_at(i) for i in range(1, len(letters) + 1)
                ]


class TestVerifyBridge:
    def test_rejects_bad_seam(self, xor2, xor2_cert):
        fwd, _ = construct_bridge(
            xor2, point("00"), point("11"), 1, xor2_cert, "00"
        )
        # reversing the middle breaks the final seam into the 11 track
        bad = BridgeWitness(
            fwd.left,
            fwd.right,
            fwd.m,
            fwd.n,
            Block(tuple(reversed(fwd.middle_symbols))),
            fwd.mode,
        )
        assert not verify_bridge(xor2, bad)

    def test_rejects_wrong_length_middle(self, xor2, xor2_cert):
        fwd, _ = construct_bridge(
            xor2, point("00"), point("00"), 1, xor2_cert, "00"
        )
        bad = BridgeWitness(
            fwd.left, fwd.right, fwd.m, fwd.n + 1, fwd.middle, fwd.mode
        )
        assert not verify_bridge(xor2, bad)

    def test_rejects_mismatched_images(self, xor2):
        # a direct seam, so the replay fails only on the ends' images
        w = BridgeWitness(point("00"), point("01", "10"), 0, 1, None, "absolute")
        assert not verify_bridge(xor2.phi, w)

    def test_rejects_a_middle_off_the_image(self, xor2):
        # every seam of 00 01 10 00 is allowed, but the middle maps to
        # 1, 1 where the ends' shared image is 0, 0
        def bridge(*middle):
            return BridgeWitness(point("00"), point("00"), 0, 3, Block(middle), "absolute")

        assert not verify_bridge(xor2.phi, bridge("01", "10"))
        assert verify_bridge(xor2.phi, bridge("00", "00"))

    def test_relative_bridge_needs_a_triple(self, xor2, xor2_cert):
        fwd, _ = construct_bridge(
            xor2, point("00"), point("11"), 1, xor2_cert, "00"
        )
        with pytest.raises(PreconditionUnmet):
            verify_bridge(xor2.phi, fwd)

    def test_subject_must_be_a_code_or_a_triple(self, xor2, xor2_cert):
        fwd, _ = construct_bridge(
            xor2, point("00"), point("11"), 1, xor2_cert, "00"
        )
        absolute = BridgeWitness(fwd.left, fwd.right, fwd.m, fwd.n, fwd.middle, "absolute")
        for b in (fwd, absolute):
            with pytest.raises(PreconditionUnmet):
                verify_bridge("junk", b)


class TestBoundedBridge:
    def test_trivial_code_always_bridges(self, xor2):
        pts = [point("00"), point("01", "10"), point("11")]
        for x, xp in product(pts, pts):
            search = bounded_bridge_exists(xor2.pi, x, xp, 0, 4)
            assert search.found
            assert verify_bridge(xor2.pi, search.witness)

    def test_rigid_fibers_never_bridge(self, xor2):
        search = bounded_bridge_exists(xor2.phi, point("00"), point("11"), 0, 12)
        assert not search.found
        assert search.witness is None
        assert "12" in search.note

    def test_identity_self_bridge_has_empty_middle(self, golden_identity):
        x = point("0")
        search = bounded_bridge_exists(golden_identity.phi, x, x, 0)
        assert search.found
        assert search.witness.n == 1
        assert search.witness.middle is None
        assert search.witness.middle_symbols == ()
        assert verify_bridge(golden_identity.phi, search.witness)

    def test_default_window_is_twice_alphabet(self, xor2):
        search = bounded_bridge_exists(xor2.pi, point("00"), point("11"), 0)
        assert search.window == 8

    def test_middle_is_lex_least(self, xor2):
        search = bounded_bridge_exists(xor2.pi, point("00"), point("11"), 0, 4)
        assert search.witness.n == 2
        assert search.witness.middle_symbols == ("01",)

    def test_image_mismatch_rejected(self, xor2):
        with pytest.raises(ImageMismatch):
            bounded_bridge_exists(xor2.phi, point("00"), point("01", "10"), 0)

    def test_a_huge_window_ends_at_the_first_repeated_state(self, xor2):
        # no bridge exists, and the walk stops once its state repeats
        # instead of stepping through all 10**9 coordinates
        started = time.perf_counter()
        search = bounded_bridge_exists(xor2.phi, point("00"), point("11"), 0, 10**9)
        assert time.perf_counter() - started < 1
        assert not search.found and search.window == 10**9
        assert search.note == "no bridge found with rejoin within 1000000000 steps"

    def test_stopping_at_a_repeat_changes_no_answer(self, subjects):
        # against a walk over the whole window that never stops early; on
        # seed 14 a stop keyed on the frontier alone, without n mod L,
        # misses a rejoin
        from sftcd.bridge import _shared_image
        from sftcd.fiber import _least_path

        def first_rejoin(code, x, xp, window):
            image = _shared_image(code, x, xp)
            idx = code.domain.alphabet.index
            start = idx(x.symbol_at(0))
            frontier = [1 << start]
            for n in range(1, window + 1):
                cur = code.step(frontier[-1], image[(n - 1) % len(image)])
                frontier.append(cur)
                t = idx(xp.symbol_at(n))
                if cur >> t & 1:
                    path = _least_path(code.domain, start, t, frontier)
                    return n, tuple(code.domain.alphabet.symbols[i] for i in path[1:-1])
            return None

        for t in [builtin_triple(name) for name in BUILTIN_NAMES] + subjects:
            for code in (t.phi, t.psi, t.pi):
                points = periodic_points_of(code.domain, 3)
                for x, xp in product(points, points):
                    if _shared_image(code, x, xp) is None:
                        continue
                    rejoin = first_rejoin(code, x, xp, 30)
                    for window in range(1, 31):
                        w = bounded_bridge_exists(code, x, xp, 0, window).witness
                        expected = rejoin if rejoin and rejoin[0] <= window else None
                        assert (w and (w.n, w.middle_symbols)) == expected

    def test_middles_are_least_on_generated_codes(self, subjects):
        # brute force: the first rejoin n with a fiber path from x at m to
        # x' at n, and the least such path's interior
        for t in subjects:
            points = periodic_points_of(t.X, 2)
            for code, m, x, xp in product((t.pi, t.phi), (0, 1), points, points):
                image = apply_to_point(code, x)
                if image != apply_to_point(code, xp):
                    continue
                expected = None
                for n in range(m + 1, m + 7):
                    word = [image.symbol_at(k) for k in range(m, n + 1)]
                    paths = [
                        p
                        for p in fiber_paths(code, word)
                        if p[0] == x.symbol_at(m) and p[-1] == xp.symbol_at(n)
                    ]
                    if paths:
                        expected = (n, min(paths, key=by_index(code))[1:-1])
                        break
                search = bounded_bridge_exists(code, x, xp, m, 6)
                w = search.witness
                assert (w and (w.n, w.middle_symbols)) == expected


class TestRoutingWitnesses:
    def test_witnesses_are_least_paths(self, subjects):
        # each listed witness is the least fiber path from s to t through
        # the least symbol of M that any such path passes at n
        for tr in subjects:
            for w in (b for L in range(1, 5) for b in enumerate_blocks(tr.Y, L)):
                for cert, code, word in (
                    (depth(tr.phi, w).certificate, tr.phi, w.symbols),
                    (relative_depth(tr, w).certificate, tr.pi, tr.psi.apply_word(w.symbols)),
                ):
                    paths = fiber_paths(code, word)
                    for s, t, v in cert.witnesses:
                        through = [
                            p
                            for p in paths
                            if (p[0], p[-1]) == (s, t) and p[cert.n - 1] in cert.M
                        ]
                        least = min(
                            (p[cert.n - 1] for p in through),
                            key=code.domain.alphabet.index,
                        )
                        assert v.symbols == min(
                            (p for p in through if p[cert.n - 1] == least),
                            key=by_index(code),
                        )


class TestFixedPointOracle:
    def test_xor2_phi_splits_at_zero(self, xor2):
        res = fixed_point_class_oracle(xor2.phi, "0")
        assert res.count == 2
        assert [p.text() for p in res.representatives] == ["(00)", "(11)"]
        assert res.preorder == ()
        assert res.caveat

    def test_xor2_pi_single_class(self, xor2):
        res = fixed_point_class_oracle(xor2.pi, "z")
        assert res.count == 1
        assert res.representatives[0].text() == "(00)"

    def test_representatives_live_in_the_domain(self, xor2):
        res = fixed_point_class_oracle(xor2.phi, "0")
        assert all(is_point_of(xor2.X, p) for p in res.representatives)

    def test_one_way_preorder(self):
        dom = VertexShift.build(
            ("a", "b", "c"),
            [("a", "a"), ("b", "b"), ("a", "b"), ("a", "c"), ("c", "b"), ("c", "c")],
        )
        code = OneBlockCode.from_dict(dom, ("w", "z"), {"a": "z", "b": "z", "c": "w"})
        res = fixed_point_class_oracle(code, "z")
        assert res.count == 2
        assert [p.text() for p in res.representatives] == ["(a)", "(b)"]
        assert res.preorder == ((0, 1),)

    def test_mod3_counts_components_not_phases(self, mod3):
        # the alternating 12/21 component is one strongly connected piece
        # with period two: the oracle reports it once, while the two
        # phase-locked points of that component form separate transition
        # classes; this is exactly what the caveat warns about
        res = fixed_point_class_oracle(mod3.phi, "0")
        assert res.count == 2
        assert [p.text() for p in res.representatives] == ["(00)", "(12·21)"]

    def test_identity_single_class(self, golden_identity):
        res = fixed_point_class_oracle(golden_identity.phi, "0")
        assert res.count == 1
        assert res.representatives[0].text() == "(0)"

    def test_trivial_code_single_class_by_irreducibility(self, golden_trivial):
        res = fixed_point_class_oracle(golden_trivial.pi, "z")
        assert res.count == 1

    def test_rejects_unknown_symbol(self, xor2):
        with pytest.raises(UnknownSymbol):
            fixed_point_class_oracle(xor2.phi, "q")

    def test_rejects_non_fixed_symbol(self, golden_identity):
        with pytest.raises(NoFixedPoint):
            fixed_point_class_oracle(golden_identity.phi, "1")

    def test_rejects_acyclic_fiber(self):
        two_cycle = VertexShift.build(("a", "b"), [("a", "b"), ("b", "a")])
        full = VertexShift.full_shift(("p", "q"))
        code = OneBlockCode.from_dict(
            two_cycle, ("p", "q"), {"a": "p", "b": "q"}, codomain=full
        )
        with pytest.raises(NoFixedPoint):
            fixed_point_class_oracle(code, "p")


def brute_least_cycle(code, comp):
    """Shortest, then least by symbol index, cycle through the least
    symbol of comp, by listing every path inside comp of each length."""
    index = code.domain.alphabet.index
    s = comp[0]
    paths = [(s,)]
    while True:
        closed = [p for p in paths if s in code.domain.successors(p[-1])]
        if closed:
            return min(closed, key=lambda p: [index(x) for x in p])
        paths = [p + (t,) for p in paths for t in code.domain.successors(p[-1]) if t in comp]


def brute_fiber_reach(code, z):
    """s -> the symbols mapping to z that s reaches in one or more steps
    inside the symbols mapping to z, for each such s."""
    fiber = [s for s in code.domain.alphabet.symbols if code.apply_symbol(s) == z]
    reach = {}
    for s in fiber:
        seen, todo = set(), [s]
        while todo:
            for t in code.domain.successors(todo.pop()):
                if t in fiber and t not in seen:
                    seen.add(t)
                    todo.append(t)
        reach[s] = seen
    return reach


def brute_cyclic_components(code, z):
    """Cyclic mutual-reachability classes of the symbols mapping to z, each
    sorted by symbol index, in order of their least symbols."""
    index = code.domain.alphabet.index
    reach = brute_fiber_reach(code, z)
    comps = {
        tuple(sorted((t for t in reach if t in reach[s] and s in reach[t]), key=index))
        for s in reach
        if s in reach[s]
    }
    return sorted(comps, key=lambda c: index(c[0]))


def check_oracle_by_brute_force(code, z):
    """The oracle on z against brute_cyclic_components: one least shortest
    cycle per class in class order, and the preorder pair (i, j) exactly
    when class i reaches class j.  Returns whether a class exists; with
    none the oracle must refuse."""
    comps = brute_cyclic_components(code, z)
    if not comps:
        with pytest.raises(NoFixedPoint):
            fixed_point_class_oracle(code, z)
        return False
    res = fixed_point_class_oracle(code, z)
    assert res.count == len(comps)
    assert list(res.representatives) == [point(*brute_least_cycle(code, c)) for c in comps]
    reach = brute_fiber_reach(code, z)
    assert res.preorder == tuple(
        (i, j)
        for i, ci in enumerate(comps)
        for j, cj in enumerate(comps)
        if i != j and any(t in reach[s] for s in ci for t in cj)
    )
    return True


def test_oracle_representatives_are_least_shortest_cycles(subjects):
    checked = 0
    for t in [builtin_triple(name) for name in BUILTIN_NAMES] + subjects[1:]:
        for code in (t.phi, t.pi):
            for z in code.codomain_alphabet.symbols:
                if code.codomain.allows(z, z):
                    checked += check_oracle_by_brute_force(code, z)
    assert checked == 72


@settings(max_examples=150, deadline=None)
@given(small_codes())
def test_oracle_matches_brute_classes_on_small_codes(code):
    for z in code.codomain_alphabet.symbols:
        check_oracle_by_brute_force(code, z)


def test_construct_bridge_fingerprint(subjects):
    # sha256 over the two middles of construct_bridge, or the name of the
    # error it raises, for every splice symbol and every ordered pair of X
    # points of period <= 3 showing a Y block of length 2 at 1, in both
    # modes, on seeds 1..10; taken while a witness recorded in the
    # certificate could stand in for the search.  The points are sorted
    # here so that the pin does not rest on periodic_points_of's order.
    h = hashlib.sha256()
    for t in subjects[1:11]:
        points = sorted(
            periodic_points_of(t.X, 3), key=lambda p: (p.period, p.cycle.symbols, p.phase)
        )
        for w in enumerate_blocks(t.Y, 2):
            showing = [x for x in points if apply_to_block(t.phi, x.window(1, 2)) == w]
            for subject, res in ((t.phi, depth(t.phi, w)), (t, relative_depth(t, w))):
                for x, xp, a in product(showing, showing, t.X.alphabet.symbols):
                    try:
                        fwd, rev = construct_bridge(subject, x, xp, 1, res.certificate, a)
                        row = (fwd.middle_symbols, rev.middle_symbols)
                    except SftcdError as e:
                        row = type(e).__name__
                    h.update(repr((w.symbols, x.text(), xp.text(), a, row)).encode() + b"\n")
    assert h.hexdigest() == (
        "7f3aa5c473421465771c442f8960dd82f507d691ca299187b44d5ba23f3893ea"
    )
