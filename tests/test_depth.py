from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fiber_paths, naive_class_degree, naive_depth
from sftcd.codes import CodeTriple, OneBlockCode, identity_code, trivial_code
from sftcd.corpus import additive_recoding
from sftcd.core import Block, VertexShift, enumerate_blocks, parse_block_text, union_table
from sftcd.depth import (
    DegreeEstimate,
    _hitting_set,
    RoutingCertificate,
    RoutingRefusal,
    class_degree,
    depth,
    is_presented,
    periodic_point_relative_degree,
    relative_class_degree,
    relative_depth,
    relative_is_presented,
    verify_certificate,
)
from sftcd.core import PeriodicPoint
from sftcd.errors import (
    EmptyFiber,
    InvalidBlock,
    PreconditionUnmet,
    ResourceLimit,
    UnknownSymbol,
)
from sftcd.harness import generate_triple, spec_for_seed


def yblock(triple, text):
    return parse_block_text(triple.Y.alphabet, text)


class TestIsPresented:
    def test_certificate_for_000(self, xor2):
        cert = is_presented(xor2.phi, yblock(xor2, "000"), {"00", "11"}, 2)
        assert cert
        assert cert.M == ("00", "11")
        assert all(v.at(2) in {"00", "11"} for _, v in cert.witnesses)

    def test_refusal_names_a_blocker(self, xor2):
        ref = is_presented(xor2.phi, yblock(xor2, "000"), {"00"}, 2)
        assert not ref
        assert isinstance(ref, RoutingRefusal)
        # the complementary preimage track never touches 00
        assert ref.blocking.at(2) != "00"

    def test_position_out_of_range(self, xor2):
        with pytest.raises(InvalidBlock):
            is_presented(xor2.phi, yblock(xor2, "000"), {"00"}, 4)

    def test_unknown_routing_symbol(self, xor2):
        with pytest.raises(UnknownSymbol):
            is_presented(xor2.phi, yblock(xor2, "000"), {"0"}, 1)

    def test_witnesses_share_endpoints(self, xor2):
        cert = is_presented(xor2.phi, yblock(xor2, "0000"), {"00", "11"}, 2)
        for u, v in cert.witnesses:
            assert (u.at(1), u.at(len(u))) == (v.at(1), v.at(len(v)))


class TestDepth:
    def test_xor2_phi_000(self, xor2):
        res = depth(xor2.phi, yblock(xor2, "000"))
        assert res.value == 2
        assert res.certificate.M == ("00", "11")

    def test_xor2_pi_long_block_depth_one(self, xor2):
        res = depth(xor2.pi, Block(("z",) * 5))
        assert res.value == 1
        assert res.certificate.M == ("00",)
        assert res.certificate.n == 3

    def test_empty_fiber_raises(self):
        g = VertexShift.build(("0", "1"), [("0", "0"), ("0", "1"), ("1", "0")])
        sub = OneBlockCode.from_dict(g, ("0", "1"), {"0": "0", "1": "0"})
        with pytest.raises(EmptyFiber):
            depth(sub, Block(("1",)))

    def test_matches_naive_oracle_on_builtins(self, xor2, mod3):
        for triple in (xor2, mod3):
            for n in (1, 2, 3):
                for b in enumerate_blocks(triple.Y, n):
                    res = depth(triple.phi, b)
                    size, pos, M = naive_depth(triple.phi, b.symbols)
                    assert res.value == size
                    assert res.certificate.n == pos
                    assert frozenset(res.certificate.M) == M

    def test_matches_naive_oracle_on_generated(self):
        for seed in (3, 9, 21, 34):
            triple = generate_triple(spec_for_seed(seed))
            for n in (1, 2, 3):
                for b in enumerate_blocks(triple.Y, n):
                    res = depth(triple.phi, b)
                    size, pos, M = naive_depth(triple.phi, b.symbols)
                    assert (res.value, res.certificate.n) == (size, pos)
                    assert frozenset(res.certificate.M) == M


class TestRelativeDepth:
    def test_relative_witnesses_may_leave_phi_fiber(self, xor2):
        res = relative_depth(xor2, Block(("0",) * 5))
        assert res.value == 1
        cert = res.certificate
        assert cert.M == ("00",)
        assert cert.n == 3
        assert cert.mode == "relative"
        texts = {u.text(): v.text() for u, v in cert.witnesses}
        assert texts["00·00·00·00·00"] == "00·00·00·00·00"
        # the witness for the ones track dives through 00: only possible
        # inside the larger composite fiber
        assert texts["11·11·11·11·11"] == "11·10·00·01·11"

    def test_short_block_needs_both_tracks(self, xor2):
        res = relative_depth(xor2, Block(("0",)))
        assert res.value == 2
        assert res.certificate.M == ("00", "11")

    def test_relative_le_absolute_on_builtins(self, xor2, mod3):
        for triple in (xor2, mod3):
            for n in (1, 2, 3, 4):
                for b in enumerate_blocks(triple.Y, n):
                    assert (
                        relative_depth(triple, b).value
                        <= depth(triple.phi, b).value
                    )

    def test_matches_naive_oracle(self, xor2, mod3):
        for triple in (xor2, mod3):
            for n in (1, 2, 3):
                for b in enumerate_blocks(triple.Y, n):
                    word = b.symbols
                    u_paths = fiber_paths(triple.phi, word)
                    wit_paths = fiber_paths(triple.pi, triple.psi_word(word))
                    size, pos, M = naive_depth(
                        triple.phi, word, u_paths, wit_paths
                    )
                    res = relative_depth(triple, b)
                    assert (res.value, res.certificate.n) == (size, pos)
                    assert frozenset(res.certificate.M) == M

    def test_relative_is_presented_refusal(self, xor2):
        ref = relative_is_presented(xor2, Block(("0",) * 5), {"00"}, 2)
        assert not ref
        assert ref.reason


class TestClassDegree:
    def test_xor2_quadruple(self, xor2):
        est = class_degree(xor2.phi, 6)
        assert (est.value, est.certified, est.minimal_block.text()) == (2, True, "0")
        est = class_degree(xor2.psi, 6)
        assert (est.value, est.certified) == (1, True)
        est = class_degree(xor2.pi, 6)
        assert (est.value, est.certified, est.minimal_block.text()) == (
            1,
            True,
            "zzzzz",
        )
        est = relative_class_degree(xor2, 6)
        assert (est.value, est.certified, est.minimal_block.text()) == (
            1,
            True,
            "00000",
        )

    def test_mod3_quadruple(self, mod3):
        assert class_degree(mod3.phi, 6).value == 3
        assert class_degree(mod3.psi, 6).value == 1
        assert class_degree(mod3.pi, 6).value == 1
        assert relative_class_degree(mod3, 6).value == 1

    def test_identity_triples_are_all_one(self, golden_identity, golden_trivial):
        for t in (golden_identity, golden_trivial):
            assert class_degree(t.phi, 4).value == 1
            assert class_degree(t.psi, 4).value == 1
            assert relative_class_degree(t, 4).value == 1

    def test_matches_naive_scan(self, xor2, mod3):
        # the naive scan up to L bounds the exact value from above and
        # meets it once L covers the witness
        for code, L in ((xor2.phi, 3), (mod3.phi, 3), (xor2.psi, 2)):
            est = class_degree(code, L)
            assert est.value <= naive_class_degree(code, L)
            assert est.value == naive_class_degree(code, len(est.minimal_block))

    def test_closure_on_a_two_byte_domain(self):
        # additive_recoding(4) has 16 domain symbols, so every mask step of
        # the closure reads two byte tables
        phi = additive_recoding(4).code
        est = class_degree(phi, 1)
        assert (est.value, est.minimal_block.text()) == (4, "0")
        for L in (1, 2):
            assert naive_class_degree(phi, L) == est.value
        pi = CodeTriple.build(phi, trivial_code(phi.codomain)).pi
        est = class_degree(pi, 1)
        assert (est.value, est.minimal_block.text()) == (1, "zzzzz")
        # naive_class_degree(pi, L) for L = 1..5, worked out once (it takes
        # half a minute): no shorter block reaches depth one
        depths = [depth(pi, Block(("z",) * L)).value for L in range(1, 6)]
        assert depths == [16, 16, 16, 4, 1]

    def test_witness_is_the_first_block_reaching_the_value(self):
        # shortest, then least in alphabet order, among blocks whose depth
        # is the class degree; seed 97's pi has several at length 3
        for seed in range(90, 100):
            t = generate_triple(spec_for_seed(seed))
            subjects = [
                (class_degree(code, 1), code.codomain, lambda b, c=code: depth(c, b))
                for code in (t.phi, t.pi)
            ]
            subjects.append(
                (relative_class_degree(t, 1), t.Y, lambda b, t=t: relative_depth(t, b))
            )
            for est, shift, depth_of in subjects:
                length = len(est.minimal_block)
                if length > 5:
                    continue
                first = next(
                    b
                    for n in range(1, length + 1)
                    for b in enumerate_blocks(shift, n)
                    if depth_of(b).value <= est.value
                )
                assert first == est.minimal_block

    def test_result_does_not_depend_on_max_len(self, xor2):
        # the closure is exhaustive, so a short max_len loses nothing
        assert class_degree(xor2.phi, 1) == class_degree(xor2.phi, 6)
        assert class_degree(xor2.pi, 1) == class_degree(xor2.pi, 50)
        with pytest.raises(InvalidBlock):
            class_degree(xor2.phi, 0)

    def test_seed29_pi_is_exactly_one(self):
        # a length-bounded scan stopped at max_len 12 on a value of 2; the
        # shortest depth-one block has length 13
        t = generate_triple(spec_for_seed(29))
        est = class_degree(t.pi, 12)
        assert (est.value, est.certified) == (1, True)
        assert est.minimal_block.text() == "z0·z1·z1·z0·z1·z1·z0·z1·z1·z0·z1·z1·z0"
        d = depth(t.pi, est.minimal_block)
        assert d.value == 1
        assert verify_certificate(t.pi, d.certificate)

    def test_cap_raises_resource_limit(self, xor2):
        with pytest.raises(ResourceLimit, match="closure states"):
            class_degree(xor2.pi, 8, cap=2)
        with pytest.raises(ResourceLimit, match="closure states"):
            relative_class_degree(xor2, 8, cap=2)

    def test_floor_one_stops_scan(self, xor2):
        est = class_degree(xor2.psi, 50)
        assert est.value == 1
        assert est.scanned_length == 2

    def test_preconditions(self):
        oneway = VertexShift.build(
            ("a", "b"), [("a", "a"), ("a", "b"), ("b", "b")]
        )
        code = identity_code(oneway)
        with pytest.raises(PreconditionUnmet):
            class_degree(code, 3)
        g = VertexShift.build(("0", "1"), [("0", "0"), ("0", "1"), ("1", "0")])
        sub = OneBlockCode.from_dict(
            g, ("0", "1"), {"0": "0", "1": "0"}, codomain=g
        )
        with pytest.raises(PreconditionUnmet):
            class_degree(sub, 3)

    def test_monotone_under_extension(self, xor2):
        # depth can only drop when the block grows on either side
        for n in (1, 2, 3):
            for b in enumerate_blocks(xor2.Y, n):
                d = depth(xor2.phi, b).value
                r = relative_depth(xor2, b).value
                for a in xor2.Y.successors(b.at(len(b))):
                    ext = Block(b.symbols + (a,))
                    assert depth(xor2.phi, ext).value <= d
                    assert relative_depth(xor2, ext).value <= r
                for a in xor2.Y.alphabet.symbols:
                    if xor2.Y.allows(a, b.at(1)):
                        ext = Block((a,) + b.symbols)
                        assert depth(xor2.phi, ext).value <= d
                        assert relative_depth(xor2, ext).value <= r


class TestPeriodicPointDegree:
    def test_xor2_zero_point(self, xor2):
        p = PeriodicPoint.make(Block(("0",)), 0)
        est = periodic_point_relative_degree(xor2, p, 8)
        assert (est.value, est.certified) == (1, True)

    def test_identity_extension_counts_fiber_tracks(self, xor2):
        from conftest import identity_extension

        t = identity_extension(xor2.phi)
        p = PeriodicPoint.make(Block(("0",)), 0)
        est = periodic_point_relative_degree(t, p, 8)
        # the 00-track and the 11-track over (0)^oo never communicate
        assert (est.value, est.certified) == (2, True)

    def test_step_tables_grow_with_the_alphabet_not_the_period(self, xor2, monkeypatch):
        import sftcd.fiber as fiber

        built = []

        def counting_union_table(masks, keep=-1):
            built.append(keep)
            return union_table(masks, keep)

        monkeypatch.setattr(fiber, "union_table", counting_union_table)
        p = PeriodicPoint.make(Block(("0",) * 39 + ("1",)), 0)
        est = periodic_point_relative_degree(xor2, p, 8)
        assert (est.value, est.minimal_block.text()) == (1, "00000")
        # phi's track steps through one table per Y letter, pi's through
        # one per letter of psi's image, whatever the period
        assert len(built) == len(xor2.Y.alphabet) + len(xor2.psi.codomain_alphabet)

    def test_rejects_non_points(self, golden_identity):
        p = PeriodicPoint.make(Block(("1",)), 0)
        with pytest.raises(PreconditionUnmet):
            periodic_point_relative_degree(golden_identity, p, 4)


class TestVerifyCertificate:
    def test_replays_absolute(self, xor2):
        res = depth(xor2.phi, yblock(xor2, "000"))
        assert verify_certificate(xor2.phi, res.certificate)

    def test_replays_relative(self, xor2):
        res = relative_depth(xor2, Block(("0",) * 5))
        assert verify_certificate(xor2, res.certificate)

    def test_rejects_wrong_subject(self, xor2):
        res = relative_depth(xor2, Block(("0",) * 5))
        assert not verify_certificate(xor2.phi, res.certificate)

    def test_rejects_tampered_position(self, xor2):
        # the ones-track witness visits 00 only at position 3, so moving
        # the claimed position must break the replay
        cert = relative_depth(xor2, Block(("0",) * 5)).certificate
        bad = RoutingCertificate(cert.w, cert.n - 1, cert.M, cert.witnesses, cert.mode)
        assert not verify_certificate(xor2, bad)

    def test_rejects_missing_preimage(self, xor2):
        cert = depth(xor2.phi, yblock(xor2, "000")).certificate
        bad = RoutingCertificate(cert.w, cert.n, cert.M, cert.witnesses[1:], cert.mode)
        assert not verify_certificate(xor2.phi, bad)

    def test_rejects_shrunk_routing_set(self, xor2):
        cert = depth(xor2.phi, yblock(xor2, "000")).certificate
        bad = RoutingCertificate(cert.w, cert.n, cert.M[:1], cert.witnesses, cert.mode)
        assert not verify_certificate(xor2.phi, bad)


class TestScanMonotonicity:
    def test_values_nonincreasing_in_scan_length(self, xor2, mod3):
        for t in (xor2, mod3):
            for code in (t.phi, t.pi):
                prev = None
                for L in range(1, 7):
                    est = class_degree(code, L)
                    assert est.value >= 1
                    if prev is not None:
                        assert est.value <= prev
                    prev = est.value
            prev = None
            for L in range(1, 7):
                est = relative_class_degree(t, L)
                assert est.value >= 1
                if prev is not None:
                    assert est.value <= prev
                prev = est.value


@st.composite
def small_codes(draw):
    """A two-letter code on an irreducible vertex shift of 2 to 4 symbols:
    a cycle through every symbol plus random extra pairs."""
    n = draw(st.integers(2, 4))
    symbols = tuple(f"x{i}" for i in range(n))
    order = draw(st.permutations(symbols))
    pairs = {(order[i], order[(i + 1) % n]) for i in range(n)}
    pairs |= draw(st.sets(st.tuples(st.sampled_from(symbols), st.sampled_from(symbols))))
    images = draw(st.lists(st.sampled_from(("a", "b")), min_size=n, max_size=n))
    return OneBlockCode.from_dict(
        VertexShift.build(symbols, sorted(pairs)), ("a", "b"), dict(zip(symbols, images))
    )


@settings(max_examples=60, deadline=None)
@given(small_codes())
def test_closure_against_naive_class_degree(code):
    # the naive scan over blocks of length <= L never goes below the exact
    # value, and reaches it once L covers the witness
    est = class_degree(code, 1)
    for L in range(1, 6):
        assert est.value <= naive_class_degree(code, L)
    assert naive_class_degree(code, len(est.minimal_block)) == est.value
    assert depth(code, est.minimal_block).value == est.value


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(0, 2**12 - 1), min_size=1, max_size=10),
    st.integers(1, 6),
)
def test_hitting_set_is_the_first_combination_that_hits(family, k):
    # reference: scan the k-combinations of the union in order
    union = 0
    for r in family:
        union |= r
    symbols = [i for i in range(12) if union >> i & 1]
    expected = None
    for combo in combinations(symbols, k):
        mask = sum(1 << i for i in combo)
        if all(r & mask for r in family):
            expected = mask
            break
    assert _hitting_set(set(family), k) == expected
