import hashlib
from dataclasses import replace
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import fiber_paths, naive_class_degree, naive_depth, small_codes
from sftcd.codes import CodeTriple, OneBlockCode, compose, identity_code, trivial_code
from sftcd.corpus import BUILTIN_NAMES, additive_recoding, builtin_triple
from sftcd.core import (
    Block,
    VertexShift,
    enumerate_blocks,
    iter_bits,
    parse_block_text,
    stepper,
)
import sftcd.depth as depth_module
import sftcd.fiber as fiber_module
from sftcd.depth import (
    DegreeEstimate,
    _hitting_set,
    RoutingCertificate,
    RoutingRefusal,
    class_degree,
    depth,
    is_presented,
    periodic_point_relative_degree,
    preimages,
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
from sftcd.fiber import find_magic_block, iter_fiber, pruned_layers
from sftcd.harness import (
    TripleGenSpec,
    generate_chain_code,
    generate_triple,
    spec_for_seed,
)


def yblock(triple, text):
    return parse_block_text(triple.Y.alphabet, text)


class TestIsPresented:
    def test_certificate_for_000(self, xor2):
        cert = is_presented(xor2.phi, yblock(xor2, "000"), {"00", "11"}, 2)
        assert cert
        assert cert.M == ("00", "11")
        assert [(s, t) for s, t, _ in cert.witnesses] == [("00", "00"), ("11", "11")]
        assert all(v.at(2) in {"00", "11"} for _, _, v in cert.witnesses)

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

    def test_refusal_among_the_first_cap_paths(self, xor2):
        # the fiber of 000 is 00·00·00 then 11·11·11; no witness from 00
        # to 00 passes 11, so the first path blocks; spelling out the
        # preimages a certificate covers stops past cap paths
        ref = is_presented(xor2.phi, yblock(xor2, "000"), {"11"}, 2)
        assert isinstance(ref, RoutingRefusal)
        assert ref.blocking.text() == "00·00·00"
        cert = is_presented(xor2.phi, yblock(xor2, "000"), {"00", "11"}, 2)
        listed = preimages(xor2.phi, cert, cap=1)
        assert next(listed)[0].text() == "00·00·00"
        with pytest.raises(ResourceLimit, match="fiber larger than 1 blocks"):
            next(listed)

    def test_preimages_of_a_relative_certificate_need_a_triple(self, xor2):
        # refused at the call, before any preimage is asked for
        cert = relative_depth(xor2, Block(("0",) * 5)).certificate
        with pytest.raises(PreconditionUnmet):
            preimages(xor2.phi, cert)

    def test_witnesses_share_endpoints(self, xor2):
        cert = is_presented(xor2.phi, yblock(xor2, "0000"), {"00", "11"}, 2)
        for s, t, v in cert.witnesses:
            assert (s, t) == (v.at(1), v.at(len(v)))
        for u, v in preimages(xor2.phi, cert):
            assert (u.at(1), u.at(len(u))) == (v.at(1), v.at(len(v)))

    def test_blocker_is_the_first_unroutable_path(self):
        # a path is unroutable when no fiber path with its endpoints has m
        # at n; the blocker is the first such path in index order, which
        # is not always a path of the first unroutable endpoint pair
        for seed in range(1, 6):
            t = generate_triple(spec_for_seed(seed))
            index = t.X.alphabet.index
            for w in (b for L in (2, 3, 4) for b in enumerate_blocks(t.Y, L)):
                u_paths = fiber_paths(t.phi, w.symbols)
                u_paths.sort(key=lambda p: [*map(index, p)])
                for code, wit_word, present in (
                    (t.phi, w.symbols, lambda M, n: is_presented(t.phi, w, M, n)),
                    (t.pi, t.psi_word(w.symbols), lambda M, n: relative_is_presented(t, w, M, n)),
                ):
                    wit_paths = fiber_paths(code, wit_word)
                    for n, m in product(range(1, len(w) + 1), t.X.alphabet.symbols):
                        routed = {(p[0], p[-1]) for p in wit_paths if p[n - 1] == m}
                        blocked = [p for p in u_paths if (p[0], p[-1]) not in routed]
                        outcome = present({m}, n)
                        assert (None if outcome else outcome.blocking.symbols) == (
                            blocked[0] if blocked else None
                        )

    def test_repeated_routing_symbols_count_once(self, xor2):
        w = yblock(xor2, "000")
        M = ("00", "11", "00", "11")
        for subject, cert in (
            (xor2.phi, is_presented(xor2.phi, w, M, 1)),
            (xor2, relative_is_presented(xor2, w, M, 1)),
        ):
            assert cert.M == ("00", "11")
            assert verify_certificate(subject, cert)


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

    def test_foreign_word_symbol_is_named(self, xor2):
        # both flavours check the word against phi.letter_masks and name
        # the first foreign symbol
        stray = Block(("0", "q", "0"))
        for take in (
            lambda: depth(xor2.phi, stray),
            lambda: relative_depth(xor2, stray),
        ):
            with pytest.raises(UnknownSymbol) as err:
                take()
            assert str(err.value) == "symbol 'q' not in codomain alphabet"

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
        texts = {(s, t): v.text() for s, t, v in cert.witnesses}
        assert texts[("00", "00")] == "00·00·00·00·00"
        # the witness for the ones track dives through 00: only possible
        # inside the larger composite fiber
        assert texts[("11", "11")] == "11·10·00·01·11"
        assert [(u.text(), v.text()) for u, v in preimages(xor2, cert)] == [
            ("00·00·00·00·00", "00·00·00·00·00"),
            ("11·11·11·11·11", "11·10·00·01·11"),
        ]

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
        est = class_degree(xor2.phi)
        assert (est.value, est.certified, est.minimal_block.text()) == (2, True, "0")
        est = class_degree(xor2.psi)
        assert (est.value, est.certified) == (1, True)
        est = class_degree(xor2.pi)
        assert (est.value, est.certified, est.minimal_block.text()) == (
            1,
            True,
            "zzzzz",
        )
        est = relative_class_degree(xor2)
        assert (est.value, est.certified, est.minimal_block.text()) == (
            1,
            True,
            "00000",
        )

    def test_mod3_quadruple(self, mod3):
        assert class_degree(mod3.phi).value == 3
        assert class_degree(mod3.psi).value == 1
        assert class_degree(mod3.pi).value == 1
        assert relative_class_degree(mod3).value == 1

    def test_identity_triples_are_all_one(self, golden_identity, golden_trivial):
        for t in (golden_identity, golden_trivial):
            assert class_degree(t.phi).value == 1
            assert class_degree(t.psi).value == 1
            assert relative_class_degree(t).value == 1

    def test_matches_naive_scan(self, xor2, mod3):
        # the naive scan up to L bounds the exact value from above and
        # meets it once L covers the witness
        for code, L in ((xor2.phi, 3), (mod3.phi, 3), (xor2.psi, 2)):
            est = class_degree(code)
            assert est.value <= naive_class_degree(code, L)
            assert est.value == naive_class_degree(code, len(est.minimal_block))

    def test_closure_on_a_two_byte_domain(self):
        # additive_recoding(4) has 16 domain symbols, so every mask step of
        # the closure reads two tables, one per run of ten symbols
        phi = additive_recoding(4).code
        est = class_degree(phi)
        assert (est.value, est.minimal_block.text()) == (4, "0")
        for L in (1, 2):
            assert naive_class_degree(phi, L) == est.value
        pi = CodeTriple.build(phi, trivial_code(phi.codomain)).pi
        est = class_degree(pi)
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
                (class_degree(code), code.codomain, lambda b, c=code: depth(c, b))
                for code in (t.phi, t.pi)
            ]
            subjects.append(
                (relative_class_degree(t), t.Y, lambda b, t=t: relative_depth(t, b))
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
        # the closure is exhaustive and max_len is unread, so a short or
        # even nonpositive scan length changes nothing
        for code in (xor2.phi, xor2.pi):
            assert {class_degree(code, L) for L in (0, 1, 6, 50)} == {class_degree(code)}

    def test_seed29_pi_is_exactly_one(self):
        # a length-bounded scan stopped at max_len 12 on a value of 2; the
        # shortest depth-one block has length 13
        t = generate_triple(spec_for_seed(29))
        est = class_degree(t.pi)
        assert (est.value, est.certified) == (1, True)
        assert est.minimal_block.text() == "z0·z1·z1·z0·z1·z1·z0·z1·z1·z0·z1·z1·z0"
        d = depth(t.pi, est.minimal_block)
        assert d.value == 1
        assert verify_certificate(t.pi, d.certificate)

    def test_cap_raises_resource_limit(self, xor2):
        with pytest.raises(ResourceLimit, match="closure states"):
            class_degree(xor2.pi, cap=2)
        with pytest.raises(ResourceLimit, match="closure states"):
            relative_class_degree(xor2, cap=2)

    def test_floor_one_stops_scan(self, xor2):
        est = class_degree(xor2.psi)
        assert est.value == 1
        assert est.scanned_length == 2

    def test_preconditions(self):
        oneway = VertexShift.build(
            ("a", "b"), [("a", "a"), ("a", "b"), ("b", "b")]
        )
        code = identity_code(oneway)
        with pytest.raises(PreconditionUnmet):
            class_degree(code)
        g = VertexShift.build(("0", "1"), [("0", "0"), ("0", "1"), ("1", "0")])
        sub = OneBlockCode.from_dict(
            g, ("0", "1"), {"0": "0", "1": "0"}, codomain=g
        )
        with pytest.raises(PreconditionUnmet):
            class_degree(sub)

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
        est = periodic_point_relative_degree(xor2, p)
        assert (est.value, est.certified) == (1, True)

    def test_identity_extension_counts_fiber_tracks(self, xor2):
        from conftest import identity_extension

        t = identity_extension(xor2.phi)
        p = PeriodicPoint.make(Block(("0",)), 0)
        est = periodic_point_relative_degree(t, p)
        # the 00-track and the 11-track over (0)^oo never communicate
        assert (est.value, est.certified) == (2, True)

    def test_step_tables_grow_with_the_alphabet_not_the_period(self, xor2, monkeypatch):
        import sftcd.fiber as fiber

        built = []

        def counting_stepper(masks, keep=-1):
            built.append(keep)
            return stepper(masks, keep)

        monkeypatch.setattr(fiber, "stepper", counting_stepper)
        p = PeriodicPoint.make(Block(("0",) * 39 + ("1",)), 0)
        est = periodic_point_relative_degree(xor2, p)
        assert (est.value, est.minimal_block.text()) == (1, "00000")
        # in each direction, phi's track steps through one stepper per Y
        # letter and pi's through one per letter of psi's image, whatever
        # the period
        assert len(built) == 2 * (len(xor2.Y.alphabet) + len(xor2.psi.codomain_alphabet))

    @staticmethod
    def _unchecked_triple(x, phi_map):
        # X -> full 2-shift by phi_map, then the identity; assembled
        # directly, because CodeTriple.build refuses a phi that is not onto
        y = VertexShift.full_shift(("0", "1"))
        phi = OneBlockCode.from_dict(x, y.alphabet, phi_map, y)
        psi = identity_code(y)
        return CodeTriple(x, y, y.alphabet, phi, psi, compose(phi, psi))

    def test_blocks_without_phi_preimage(self):
        golden = VertexShift.build(("0", "1"), [("0", "0"), ("0", "1"), ("1", "0")])
        t = self._unchecked_triple(golden, {"0": "0", "1": "1"})
        for cycle in ("1", "011"):
            # each point carries 11, which the golden mean shift forbids
            with pytest.raises(EmptyFiber):
                periodic_point_relative_degree(t, PeriodicPoint.make(tuple(cycle)))
        est = periodic_point_relative_degree(t, PeriodicPoint.make(("0", "1")))
        assert est.value == 1

    def test_phase_letter_without_phi_preimage(self):
        t = self._unchecked_triple(VertexShift.full_shift(("a",)), {"a": "0"})
        with pytest.raises(EmptyFiber):
            periodic_point_relative_degree(t, PeriodicPoint.make(("1",)))

    def test_rejects_non_points(self, golden_identity):
        p = PeriodicPoint.make(Block(("1",)), 0)
        with pytest.raises(PreconditionUnmet):
            periodic_point_relative_degree(golden_identity, p)


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
        assert not verify_certificate(xor2, depth(xor2.phi, yblock(xor2, "000")).certificate)

    def test_absolute_mode_on_a_triple_replays_against_pi(self, xor2):
        # the same mode rule as _codes_of and construct_bridge: a triple's
        # absolute code is pi, so its own certificate and pi's replay on both
        w = parse_block_text(xor2.pi.codomain_alphabet, "zzz")
        own, of_pi = depth(xor2, w).certificate, depth(xor2.pi, w).certificate
        for subject in (xor2, xor2.pi):
            assert verify_certificate(subject, own)
            assert verify_certificate(subject, of_pi)
        relative = relative_depth(xor2, Block(("0",) * 5)).certificate
        assert not verify_certificate(xor2.phi, relative)

    def test_rejects_unknown_mode(self, xor2):
        cert = depth(xor2.phi, yblock(xor2, "000")).certificate
        bad = RoutingCertificate(cert.w, cert.n, cert.M, cert.witnesses, "bogus")
        assert not verify_certificate(xor2.phi, bad)

    def test_rejects_tampered_position(self, xor2):
        # the ones-track witness visits 00 only at position 3, so moving
        # the claimed position must break the replay
        cert = relative_depth(xor2, Block(("0",) * 5)).certificate
        bad = RoutingCertificate(cert.w, cert.n - 1, cert.M, cert.witnesses, cert.mode)
        assert not verify_certificate(xor2, bad)

    def test_rejects_missing_preimage(self, xor2):
        # dropping the pair (00, 00) leaves the preimage 00·00·00 unrouted
        cert = depth(xor2.phi, yblock(xor2, "000")).certificate
        bad = RoutingCertificate(cert.w, cert.n, cert.M, cert.witnesses[1:], cert.mode)
        assert not verify_certificate(xor2.phi, bad)

    def test_rejects_shrunk_routing_set(self, xor2):
        cert = depth(xor2.phi, yblock(xor2, "000")).certificate
        bad = RoutingCertificate(cert.w, cert.n, cert.M[:1], cert.witnesses, cert.mode)
        assert not verify_certificate(xor2.phi, bad)

    def test_rejects_position_out_of_range(self, xor2):
        # n = 0 would read the last symbol, n = 4 past the end
        cert = depth(xor2.phi, yblock(xor2, "000")).certificate
        for n in (0, -1, 4, 5):
            bad = RoutingCertificate(cert.w, n, cert.M, cert.witnesses, cert.mode)
            assert not verify_certificate(xor2.phi, bad)

    def test_rejects_symbols_outside_the_alphabets(self, xor2):
        cert = depth(xor2.phi, yblock(xor2, "000")).certificate
        (s, t, v), rest = cert.witnesses[0], cert.witnesses[1:]
        stray = Block(v.symbols[:1] + ("q",) + v.symbols[2:])
        bad = RoutingCertificate(cert.w, cert.n, cert.M, ((s, t, stray),) + rest, cert.mode)
        assert not verify_certificate(xor2.phi, bad)
        for ends in (("q", t), (s, "q")):
            bad = RoutingCertificate(cert.w, cert.n, cert.M, (ends + (v,),) + rest, cert.mode)
            assert not verify_certificate(xor2.phi, bad)
        bad = RoutingCertificate(Block(("q",) * 3), cert.n, cert.M, cert.witnesses, cert.mode)
        assert not verify_certificate(xor2.phi, bad)
        assert not verify_certificate(xor2, RoutingCertificate(
            Block(("q",) * 3), cert.n, cert.M, cert.witnesses, "relative"
        ))

    def test_rejects_duplicated_preimage(self, xor2):
        # a pair listed twice keeps the number of pairs right, but (11, 11)
        # goes unlisted and with it the preimage 11·11·11; listed twice
        # besides every pair, it is refused too
        cert = depth(xor2.phi, yblock(xor2, "000")).certificate
        assert len(cert.witnesses) == 2
        for claims in ((cert.witnesses[0],) * 2, cert.witnesses + cert.witnesses[:1]):
            bad = RoutingCertificate(cert.w, cert.n, cert.M, claims, cert.mode)
            assert not verify_certificate(xor2.phi, bad)

    def test_rejects_pair_outside_the_fiber(self, xor2):
        # 00·00·00·01·11 is a block of pi's fiber over psi(00000) through
        # 00 at position 3, but no phi-preimage of 00000 runs from 00 to
        # 11: listing (00, 11) for (00, 00) keeps the number of pairs, and
        # listing it besides them adds one too many
        cert = relative_depth(xor2, Block(("0",) * 5)).certificate
        forged = ("00", "11", Block(("00", "00", "00", "01", "11")))
        assert cert.witnesses[0][:2] == ("00", "00")
        for claims in ((forged,) + cert.witnesses[1:], cert.witnesses + (forged,)):
            bad = RoutingCertificate(cert.w, cert.n, cert.M, claims, cert.mode)
            assert not verify_certificate(xor2, bad)

    def test_rejects_pairs_of_an_empty_phi_fiber(self):
        # 11 has no phi-preimage in the golden mean shift, but pi sends
        # 0·0 to zz = psi(11): a valid pi-fiber witness routes no pair
        golden = VertexShift.build(("0", "1"), [("0", "0"), ("0", "1"), ("1", "0")])
        y = VertexShift.full_shift(("0", "1"))
        phi = OneBlockCode.from_dict(golden, y.alphabet, {"0": "0", "1": "1"}, y)
        psi = trivial_code(y)
        t = CodeTriple(golden, y, psi.codomain_alphabet, phi, psi, compose(phi, psi))
        w = Block(("1", "1"))
        for claims in ((("0", "0", Block(("0", "0"))),), ()):
            bad = RoutingCertificate(w, 1, ("0",), claims, "relative")
            assert not verify_certificate(t, bad)

    def test_rejects_witness_with_other_endpoints(self, xor2):
        # the zeros track's witness is a valid block through 00 at position
        # 3, but it does not run from 11 to 11
        cert = relative_depth(xor2, Block(("0",) * 5)).certificate
        zeros, ones = cert.witnesses
        bad = RoutingCertificate(
            cert.w, cert.n, cert.M, (zeros, ones[:2] + zeros[2:]), cert.mode
        )
        assert not verify_certificate(xor2, bad)

    def test_rejects_witness_of_wrong_length(self, xor2):
        cert = depth(xor2.phi, yblock(xor2, "000")).certificate
        (s, t, v), rest = cert.witnesses[0], cert.witnesses[1:]
        for other in (Block(v.symbols + v.symbols[-1:]), Block(v.symbols[1:])):
            bad = RoutingCertificate(cert.w, cert.n, cert.M, ((s, t, other),) + rest, cert.mode)
            assert not verify_certificate(xor2.phi, bad)

    def test_rejects_witness_with_forbidden_transition(self, xor2):
        # 11·00·00·00·11 has the ones track's endpoints and passes 00 at
        # position 3, but 11 -> 00 is no edge of X
        cert = relative_depth(xor2, Block(("0",) * 5)).certificate
        s, t, v = cert.witnesses[-1]
        assert (s, t, v.text()) == ("11", "11", "11·10·00·01·11")
        forged = Block(("11", "00", "00", "00", "11"))
        assert not xor2.X.allows("11", "00")
        bad = RoutingCertificate(
            cert.w, cert.n, cert.M, cert.witnesses[:-1] + ((s, t, forged),), cert.mode
        )
        assert not verify_certificate(xor2, bad)

    def test_empty_claim_is_refused(self, xor2):
        cert = depth(xor2.phi, yblock(xor2, "000")).certificate
        bad = RoutingCertificate(cert.w, cert.n, cert.M, (), cert.mode)
        assert not verify_certificate(xor2.phi, bad)

    def test_long_block_without_listing_the_fiber(self):
        # y0^60 on seed 128 has a fiber far past the default cap, but only
        # nine endpoint pairs, one witness each
        t = generate_triple(spec_for_seed(128))
        w = Block(("y0",) * 60)
        for subject, res in ((t.phi, depth(t.phi, w)), (t, relative_depth(t, w))):
            assert (res.value, len(res.certificate.witnesses)) == (1, 9)
            assert verify_certificate(subject, res.certificate)


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


@settings(max_examples=60, deadline=None)
@given(small_codes())
def test_closure_against_naive_class_degree(code):
    # the naive scan over blocks of length <= L never goes below the exact
    # value, and reaches it once L covers the witness
    est = class_degree(code)
    for L in range(1, 6):
        assert est.value <= naive_class_degree(code, L)
    assert naive_class_degree(code, len(est.minimal_block)) == est.value
    assert depth(code, est.minimal_block).value == est.value


@settings(max_examples=60, deadline=None)
@given(small_codes(), st.lists(st.sampled_from(("a", "b")), min_size=1, max_size=6))
def test_certificates_replay_on_small_codes(code, word):
    # the replay accepts every certificate depth makes, and a certificate
    # that drops an endpoint pair, or lists one twice, is refused
    if not fiber_paths(code, word):
        return
    cert = depth(code, Block(tuple(word))).certificate
    assert verify_certificate(code, cert)
    for claims in (cert.witnesses[1:], cert.witnesses[:1] + cert.witnesses[:-1]):
        bad = RoutingCertificate(cert.w, cert.n, cert.M, claims, cert.mode)
        assert verify_certificate(code, bad) == (len(set(claims)) == len(cert.witnesses))


@settings(max_examples=60, deadline=None)
@given(small_codes(), st.lists(st.sampled_from(("a", "b")), min_size=1, max_size=6))
def test_preimages_pair_each_fiber_path_with_its_witness(code, word):
    # the certificate lists one witness per endpoint pair, in index order;
    # preimages spells out every brute-force fiber path, in index order,
    # with its pair's witness
    paths = fiber_paths(code, word)
    if not paths:
        return
    cert = depth(code, Block(tuple(word))).certificate
    assert verify_certificate(code, cert)
    by_index = code.domain.alphabet.index

    def key(symbols):
        return tuple(map(by_index, symbols))

    by_ends = {(s, t): v for s, t, v in cert.witnesses}
    assert list(by_ends) == sorted({(p[0], p[-1]) for p in paths}, key=key)
    paths.sort(key=key)
    assert [(u.symbols, v) for u, v in preimages(code, cert)] == [
        (p, by_ends[p[0], p[-1]]) for p in paths
    ]


def test_certificate_fingerprint():
    # sha256 over (value, n, M, the (u, v) pairs preimages lists) of depth
    # and relative_depth on every Y block of length <= 5 of seeds 1..5,
    # taken before fibers were counted and grown layer-wise and when
    # certificates still listed every preimage: kernel work must not
    # change a certificate
    h = hashlib.sha256()
    for seed in range(1, 6):
        t = generate_triple(spec_for_seed(seed))
        for n in range(1, 6):
            for w in enumerate_blocks(t.Y, n):
                for subject, res in ((t.phi, depth(t.phi, w)), (t, relative_depth(t, w))):
                    c = res.certificate
                    pairs = tuple((u.symbols, v.symbols) for u, v in preimages(subject, c))
                    h.update(repr((res.value, c.n, c.M, pairs)).encode() + b"\n")
    assert h.hexdigest() == (
        "9e8633bea027744873a51b3d8b6549426ae61e5bdd72b99c35a8cbf00a734d85"
    )


def test_wide_certificate_fingerprint():
    # sha256 over (value, n, M, the (u, v) pairs preimages lists) of depth
    # and relative_depth and the replay of each certificate, on every Y
    # block of length <= 6 of seeds 6..20, taken before the witness reach
    # was limited to the phi-fiber's endpoints, the replay counted forward
    # layers and certificates listed endpoint pairs
    h = hashlib.sha256()
    for seed in range(6, 21):
        t = generate_triple(spec_for_seed(seed))
        for n in range(1, 7):
            for w in enumerate_blocks(t.Y, n):
                for subject, res in ((t.phi, depth(t.phi, w)), (t, relative_depth(t, w))):
                    c = res.certificate
                    pairs = tuple((u.symbols, v.symbols) for u, v in preimages(subject, c))
                    replay = verify_certificate(subject, c)
                    h.update(repr((res.value, c.n, c.M, pairs, replay)).encode() + b"\n")
    assert h.hexdigest() == (
        "285a4cc12af2de3bf4af7467f38f1a2293d716c45b1d2905a9a41f1843abc8a5"
    )


def test_relative_reach_holds_only_the_phi_endpoints(monkeypatch):
    # relative_depth builds pi's reach for the start and end symbols of
    # the phi-fiber only; on these blocks that is fewer sweeps than the
    # whole pi-fiber would need
    reaches = []

    class RecordingReach(depth_module._Reach):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            reaches.append(self)

    monkeypatch.setattr(depth_module, "_Reach", RecordingReach)
    narrower = 0
    for seed in range(1, 6):
        t = generate_triple(spec_for_seed(seed))
        for n in range(1, 5):
            for w in enumerate_blocks(t.Y, n):
                reaches.clear()
                relative_depth(t, w)
                (wit,) = reaches
                u_layers = pruned_layers(t.phi, w.symbols)
                assert set(wit.fs) == set(iter_bits(u_layers[0]))
                assert set(wit.bs) == set(iter_bits(u_layers[-1]))
                narrower += len(wit.fs) + len(wit.bs) < (
                    wit.layers[0].bit_count() + wit.layers[-1].bit_count()
                )
    assert narrower > 0


def test_degree_fingerprint():
    # sha256 over (value, block) of class_degree on phi, psi and pi and of
    # relative_class_degree, and over (value, block, coordinate) of
    # find_magic_block on phi, psi and pi, for the builtins and seeds
    # 1..200, taken on the whole-state closure: closing sides instead
    # must not change a value or a witness.  scanned_length is left out.
    h = hashlib.sha256()
    triples = [builtin_triple(name) for name in BUILTIN_NAMES]
    triples += [generate_triple(spec_for_seed(seed)) for seed in range(1, 201)]
    for t in triples:
        for est in [class_degree(code) for code in (t.phi, t.psi, t.pi)] + [
            relative_class_degree(t)
        ]:
            h.update(repr((est.value, est.minimal_block.symbols)).encode() + b"\n")
        for code in (t.phi, t.psi, t.pi):
            m = find_magic_block(code)
            h.update(repr((m.value, m.block.symbols, m.coordinate)).encode() + b"\n")
    assert h.hexdigest() == (
        "b8a32fd0b073c326ea3562c7668c31659efb45bcb0fa58eac9d085530464ad7d"
    )


def test_relative_degree_on_fifteen_domain_symbols():
    # the whole-state closure needs 197,978 states here; the side
    # closures hold 1,550 left and 994 right sides
    t = generate_triple(
        TripleGenSpec(seed=2, y_symbols=5, blowup_max=3, z_symbols=2, edge_density=0.5)
    )
    assert len(t.X.alphabet) == 15
    est = relative_class_degree(t, cap=5_000)
    assert (est.value, est.minimal_block.text()) == (1, "y3·y0·y2·y4·y0·y2·y4·y4")


def _closure_minima(run, eager):
    """Every (value, word, split, depth) _closure_minimum returns while
    run() runs, with the side closures grown on demand or, when eager,
    each grown to its last level before the first pair is scored; and
    the level count of every closure grown in full."""
    found, full = [], []
    minimum, closure = fiber_module._closure_minimum, fiber_module.closure

    def recording(sides, score):
        found.append(minimum(sides, score))
        return found[-1]

    def grown(*args):
        levels = list(closure(*args))
        full.append(len(levels))
        return iter(levels)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(fiber_module, "_closure_minimum", recording)
        if eager:
            m.setattr(fiber_module, "closure", grown)
        run()
    return found, full


def _assert_lazy_levels_prove_the_minimum(run):
    # levels pulled on demand give the minimum of the full closures, and
    # the depth reports the levels pulled: at most the witness's length
    # when the value is 1, every level of both closures otherwise
    # each run starts with no minimum kept, or it reads the one before's
    fiber_module._MINIMA.clear()
    lazy, _ = _closure_minima(run, eager=False)
    fiber_module._MINIMA.clear()
    eager, full = _closure_minima(run, eager=True)
    assert lazy == eager and len(full) == 2 * len(lazy)
    for (value, word, _, pulled), left, right in zip(lazy, full[::2], full[1::2]):
        if value == 1:
            assert pulled <= min(len(word), max(left, right))
        else:
            assert pulled == max(left, right)


def _assert_value_one_stops_at_its_block(est):
    if est.value == 1:
        assert est.scanned_length <= len(est.minimal_block)


def test_lazy_levels_on_generated_triples():
    # seeds 1..200: class degrees of phi, psi and pi, the relative class
    # degree and the magic blocks of phi, psi and pi
    for seed in range(1, 201):
        t = generate_triple(spec_for_seed(seed))

        def run():
            for code in (t.phi, t.psi, t.pi):
                _assert_value_one_stops_at_its_block(class_degree(code))
                m = find_magic_block(code)
                if m.value == 1:
                    assert m.certified.scanned_length <= len(m.block)
            _assert_value_one_stops_at_its_block(relative_class_degree(t))

        _assert_lazy_levels_prove_the_minimum(run)


@settings(max_examples=60, deadline=None)
@given(small_codes())
def test_lazy_levels_on_small_codes(code):
    def run():
        _assert_value_one_stops_at_its_block(class_degree(code))
        find_magic_block(code)

    _assert_lazy_levels_prove_the_minimum(run)


def test_lazy_levels_on_deep_periodic_points():
    # the points of seeds 17 and 29 whose depth-1 blocks have length 12
    for seed, cycle in ((17, "y0·y1·y2"), (29, "y0·y2·y1")):
        t = generate_triple(spec_for_seed(seed))
        y = PeriodicPoint.make(yblock(t, cycle), 0)

        def run():
            est = periodic_point_relative_degree(t, y)
            assert (est.value, len(est.minimal_block)) == (1, 12)
            _assert_value_one_stops_at_its_block(est)

        _assert_lazy_levels_prove_the_minimum(run)


def test_minimum_at_the_seeds_builds_no_table(monkeypatch):
    # seed 197's relative degree is 1 at the one-letter block y2, so
    # neither side closure steps past its seeds; phi's class degree on
    # the same triple, 1 as well, needs only the seeds too, while pi's
    # needs three levels and builds its steppers
    built = []

    def counting_stepper(masks, keep=-1):
        built.append(keep)
        return stepper(masks, keep)

    monkeypatch.setattr(fiber_module, "stepper", counting_stepper)
    t = generate_triple(spec_for_seed(197))
    for est in (relative_class_degree(t), class_degree(t.phi)):
        assert (est.value, est.minimal_block.text(), est.scanned_length) == (1, "y2", 1)
    assert built == []
    assert class_degree(t.pi).value == 1
    assert built


def test_value_one_is_proved_before_the_cap():
    # both side closures of this relative degree pass 20,000 sides, the
    # left at level 14 and the right at level 13, but a relative-depth-1
    # block of length 10 proves the minimum first
    t = generate_triple(TripleGenSpec(4, y_symbols=4, blowup_max=5, z_symbols=2))
    est = relative_class_degree(t, cap=20_000)
    assert (est.value, est.minimal_block.text()) == (1, "y0·y1·y1·y1·y1·y1·y1·y1·y1·y1")
    assert est.scanned_length <= 10


def test_cap_names_the_level_it_reached(xor2):
    with pytest.raises(ResourceLimit, match="^closure states exceeded the cap of 2 at level 3$"):
        class_degree(xor2.pi, cap=2)
    with pytest.raises(ResourceLimit, match="^closure states exceeded the cap of 2 at level 2$"):
        relative_class_degree(xor2, cap=2)


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


_split_sides = st.frozensets(
    st.tuples(st.integers(0, 2**6 - 1), st.integers(0, 2**6 - 1)), min_size=1, max_size=6
)


@settings(max_examples=300, deadline=None)
@given(_split_sides, _split_sides)
@example(frozenset({(1, 3)}), frozenset({(2, 3)}))
def test_limit_one_score_is_the_family_search(rows, cols):
    # at limit 1 _routing_score intersects routing sets as they come and
    # stops at an empty one; the reference builds the family of a split
    # and searches it for one symbol.  Rows and columns of one track, and
    # of two; the example has no meeting pair
    for tracks in (1, 2):
        r = {vec[:tracks] for vec in rows}
        c = {vec[:tracks] for vec in cols}
        family = {a[-1] & b[-1] for a in r for b in c if a[0] & b[0]}
        mask = depth_module._min_hitting_set(family, 1)
        assert depth_module._routing_score(r, c, 1) == (mask and mask.bit_count())


def test_lex_path_through_is_the_least_fiber_path():
    # on one reach per word, every (s, m, t, n) is asked, each routing
    # symbol m at every position n in turn, so a backward sweep kept for
    # m at one position must not answer at another; the answer must be
    # the first path iter_fiber lists from s through m at n to t (it lists
    # in lexicographic order of symbol indices), or None when it lists none
    triples = [builtin_triple(name) for name in BUILTIN_NAMES]
    triples += [generate_triple(spec_for_seed(seed)) for seed in range(1, 11)]
    asked = found = 0
    for triple in triples:
        symbols = range(len(triple.X.alphabet))
        for length in range(1, 6):
            for w in enumerate_blocks(triple.Y, length):
                for code, word in (
                    (triple.phi, w.symbols),
                    (triple.pi, triple.psi_word(w.symbols)),
                ):
                    reach = depth_module._Reach(code, word)
                    least = {}
                    for path in iter_fiber(code, reach.layers):
                        for n, m in enumerate(path, 1):
                            least.setdefault((path[0], m, path[-1], n), path)
                    positions = range(1, length + 1)
                    for m, n, s, t in product(symbols, positions, symbols, symbols):
                        path = reach.lex_path_through(s, m, t, n)
                        assert path == least.get((s, m, t, n))
                        asked += 1
                        found += path is not None
    assert 0 < found < asked


def _summary(est):
    return est.value, est.minimal_block, est.scanned_length


def test_kept_minima_answer_as_fresh_closures_do():
    # the estimates a verify case asks for: class degrees of phi, psi and
    # pi, the relative degree and the chain check's three relatives over
    # its chain code (the identity of Z for a builtin).  Each is computed
    # once with no minimum kept, then all of them in one run that keeps
    # every minimum and reads repeats back; value, block and
    # scanned_length must agree question by question, and the run must
    # have been served from the memo
    cases = [
        (builtin_triple(name), identity_code(builtin_triple(name).Z_shift))
        for name in BUILTIN_NAMES
    ]
    for seed in range(1, 201):
        t = generate_triple(spec_for_seed(seed))
        w = 1 + seed % len(t.Z_shift.alphabet)
        cases.append((t, generate_chain_code(t, seed, w)))
    calls = []
    for t, varphi in cases:
        calls += [(class_degree, code) for code in (t.phi, t.psi, t.pi)]
        calls += [
            (relative_class_degree, triple)
            for triple in (
                t,
                CodeTriple.build(t.pi, varphi),
                CodeTriple.build(t.psi, varphi),
                CodeTriple.build(t.phi, compose(t.psi, varphi)),
            )
        ]
    cold = []
    for f, subject in calls:
        fiber_module._MINIMA.clear()
        cold.append(_summary(f(subject)))
    fiber_module._MINIMA.clear()
    warm = [_summary(f(subject)) for f, subject in calls]
    assert warm == cold
    assert len(fiber_module._MINIMA) < len(calls) // 2


def test_kept_minima_are_keyed_by_the_cap(xor2):
    # a minimum kept at the default cap must not answer a smaller cap
    class_degree(xor2.pi)
    relative_class_degree(xor2)
    with pytest.raises(ResourceLimit, match="cap of 2 at level 3$"):
        class_degree(xor2.pi, cap=2)
    with pytest.raises(ResourceLimit, match="cap of 2 at level 2$"):
        relative_class_degree(xor2, cap=2)


def test_a_closure_past_its_cap_keeps_nothing(xor2):
    for _ in range(2):
        with pytest.raises(ResourceLimit, match="cap of 2 at level 3$"):
            class_degree(xor2.pi, cap=2)
        with pytest.raises(ResourceLimit, match="cap of 2 at level 2$"):
            relative_class_degree(xor2, cap=2)
    assert fiber_module._MINIMA == {}


def _renamed_psi(t):
    """t with psi a one-to-one renaming of Y's letters onto a copy of Y
    whose alphabet lists them in reverse."""
    names = {y: "r" + y for y in t.Y.alphabet.symbols}
    Z = VertexShift.build(
        [names[y] for y in reversed(t.Y.alphabet.symbols)],
        [(names[a], names[b]) for a, b in t.Y.allowed],
    )
    return CodeTriple.build(t.phi, OneBlockCode.from_dict(t.Y, Z.alphabet, names, Z))


def _kept_track_counts():
    return [len(key[1]) for key in fiber_module._MINIMA]


def test_a_track_that_repeats_phi_is_dropped():
    # over a one-to-one psi, pi's masks equal phi's letter by letter: the
    # relative closure runs on one track, the relative degree is phi's
    # class degree from the same kept minimum, and its block's relative
    # certificate replays
    renamed = _renamed_psi(generate_triple(spec_for_seed(9)))
    for t in (builtin_triple("golden_identity"), renamed):
        fiber_module._MINIMA.clear()
        rel = relative_class_degree(t)
        assert _kept_track_counts() == [1]
        assert _summary(class_degree(t.phi)) == _summary(rel)
        assert _kept_track_counts() == [1]
        d = relative_depth(t, rel.minimal_block)
        assert d.value == rel.value and verify_certificate(t, d.certificate)


def test_a_track_that_differs_from_phi_is_kept():
    # seed 9's psi sends three letters of Y to two of Z
    t = generate_triple(spec_for_seed(9))
    assert len(t.Z_alphabet) < len(t.Y.alphabet)
    relative_class_degree(t)
    class_degree(t.phi)
    assert _kept_track_counts() == [2, 1]


def test_relative_over_a_one_to_one_psi_is_absolute():
    # relative mode over a one-to-one psi and absolute mode take one path
    # through depth._codes_of: on every Y block up to length 5, depth and
    # presentation through each one-symbol M, and through all of X, at
    # each position agree with phi's, refusal blockers included, and
    # every certificate replays.  Seed 14 has routing sets of several
    # symbols, and seed 17's phi has class degree 3 over nine X symbols
    renamed = [_renamed_psi(generate_triple(spec_for_seed(s))) for s in (14, 17)]
    for t in [builtin_triple("golden_identity")] + renamed:
        sets = [{a} for a in t.X.alphabet.symbols] + [set(t.X.alphabet.symbols)]
        for n in range(1, 6):
            for w in enumerate_blocks(t.Y, n):
                rel, ab = relative_depth(t, w), depth(t.phi, w)
                assert (rel.value, rel.certificate.mode) == (ab.value, "relative")
                assert rel.certificate == replace(ab.certificate, mode="relative")
                assert verify_certificate(t, rel.certificate)
                assert verify_certificate(t.phi, ab.certificate)
                for pos, M in product(range(1, n + 1), sets):
                    rel = relative_is_presented(t, w, M, pos)
                    ab = is_presented(t.phi, w, M, pos)
                    if ab:
                        assert rel == replace(ab, mode="relative")
                        assert verify_certificate(t, rel)
                        assert verify_certificate(t.phi, ab)
                    else:
                        assert rel == ab
