import hashlib
import json
import random
from dataclasses import replace
from functools import partial, reduce
from itertools import combinations, count, islice, product
from operator import or_

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    DATA,
    fiber_paths,
    identity_extension,
    naive_class_degree,
    naive_depth,
    small_codes,
)
from sftcd.codes import (
    CodeTriple,
    OneBlockCode,
    SlidingBlockCode,
    check_onto,
    compose,
    identity_code,
    recode_to_one_block,
    trivial_code,
)
from sftcd.corpus import BUILTIN_NAMES, additive_recoding, builtin_triple
from sftcd.documents import load_triple
from sftcd.core import (
    Block,
    VertexShift,
    enumerate_blocks,
    iter_bits,
    parse_block_text,
    periodic_points_of,
    stepper,
)
import sftcd.core as core_module
import sftcd.depth as depth_module
import sftcd.fiber as fiber_module
from sftcd.depth import (
    DegreeEstimate,
    DepthResult,
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
from sftcd.fiber import (
    degree_finite_to_one,
    find_magic_block,
    iter_fiber,
    preimage_blocks,
    pruned_layers,
)
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

    def test_refusal_among_the_first_cap_paths(self, xor2, monkeypatch):
        # the fiber of 000 is 00·00·00 then 11·11·11; no witness from 00
        # to 00 passes 11, so the first path blocks; spelling out the
        # preimages a certificate covers stops past cap paths
        ref = is_presented(xor2.phi, yblock(xor2, "000"), {"11"}, 2)
        assert isinstance(ref, RoutingRefusal)
        assert ref.blocking.text() == "00·00·00"
        cert = is_presented(xor2.phi, yblock(xor2, "000"), {"00", "11"}, 2)
        monkeypatch.setattr("sftcd.core.DEFAULT_CAP", 1)
        listed = preimages(xor2.phi, cert)
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
                    (t.pi, t.psi.apply_word(w.symbols), lambda M, n: relative_is_presented(t, w, M, n)),
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
                    wit_paths = fiber_paths(triple.pi, triple.psi.apply_word(word))
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

    def test_cap_raises_resource_limit(self, xor2, monkeypatch):
        monkeypatch.setattr("sftcd.core.DEFAULT_CAP", 2)
        with pytest.raises(ResourceLimit, match="closure states"):
            class_degree(xor2.pi)
        with pytest.raises(ResourceLimit, match="closure states"):
            relative_class_degree(xor2)

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


def _fresh_xor2():
    # xor2 built anew: builtin_triple and additive_recoding keep theirs
    # for the process, and with them the steppers their shifts keep
    phi = additive_recoding.__wrapped__(2).code
    return CodeTriple.build(phi, trivial_code(phi.codomain))


def _count_steppers(monkeypatch):
    """The (masks, keep) of every stepper built from here on, appended as
    it is built: shifts build theirs through core.stepper."""
    built = []

    def counting_stepper(masks, keep=-1):
        built.append((masks, keep))
        return stepper(masks, keep)

    monkeypatch.setattr(core_module, "stepper", counting_stepper)
    return built


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

    def test_step_tables_grow_with_the_alphabet_not_the_period(self, monkeypatch):
        xor2 = _fresh_xor2()
        built = _count_steppers(monkeypatch)
        p = PeriodicPoint.make(Block(("0",) * 39 + ("1",)), 0)
        est = periodic_point_relative_degree(xor2, p)
        assert (est.value, est.minimal_block.text()) == (1, "00000")
        # in each direction, phi's track steps through one stepper per Y
        # letter and pi's through one per letter of psi's image, whatever
        # the period
        assert len(built) == 2 * (len(xor2.Y.alphabet) + len(xor2.psi.codomain_alphabet))

    @staticmethod
    def _unchecked_triple(x, phi_map):
        # X -> full 2-shift by phi_map, then the identity; unchecked,
        # because CodeTriple.build refuses a phi that is not onto
        y = VertexShift.full_shift(("0", "1"))
        phi = OneBlockCode.from_dict(x, y.alphabet, phi_map, y)
        return CodeTriple(phi, identity_code(y))

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
        t = CodeTriple(phi, trivial_code(y))
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

    def test_malformed_witnesses_at_the_last_position_are_refused(self, xor2):
        # at n = |w| the replay reads v[n - 1]; a witness shorter than n or
        # of one symbol fails its spelling test first, and an empty M
        # holds no symbol at n, so each gives False rather than raising
        w = yblock(xor2, "000")
        cert = is_presented(xor2.phi, w, xor2.X.alphabet.symbols, len(w))
        assert verify_certificate(xor2.phi, cert)
        (s, t, v), rest = cert.witnesses[0], cert.witnesses[1:]
        for short in (Block(v.symbols[:-1]), Block(v.symbols[:1])):
            bad = replace(cert, witnesses=((s, t, short),) + rest)
            assert not verify_certificate(xor2.phi, bad)
        assert not verify_certificate(xor2.phi, replace(cert, M=()))

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


def test_witness_fingerprint():
    # sha256 over every field of depth's and relative_depth's certificate,
    # each witness block spelled out, on every Y block of length <= 6 of
    # the builtins and seeds 1..20, taken before position-1 witnesses
    # were read off the backward sets: the least-path witnesses stay put
    h = hashlib.sha256()
    named = [(name, builtin_triple(name)) for name in BUILTIN_NAMES]
    named += [(f"seed{s}", generate_triple(spec_for_seed(s))) for s in range(1, 21)]
    rows = 0
    for name, t in named:
        for length in range(1, 7):
            for w in enumerate_blocks(t.Y, length):
                results = (("phi", depth(t.phi, w)), ("rel", relative_depth(t, w)))
                for tag, res in results:
                    c = res.certificate
                    witnesses = [[s, u, v.text()] for s, u, v in c.witnesses]
                    row = [name, tag, w.text(), res.value, c.n, list(c.M), witnesses]
                    h.update(json.dumps(row).encode() + b"\n")
                    rows += 1
    assert rows == 10822
    assert h.hexdigest() == (
        "abc2dfc950e84bb0f5cf95fd77fd612543024b7b3e1054947359f33bf7e113ed"
    )


def test_pi_certificate_fingerprint():
    # sha256 over every field of depth's certificate on pi and of the
    # outcome of presenting through its first symbol alone, certificate
    # or refusal, on every Z block of length <= 5 of seeds 1..40, taken
    # while fibers were still pruned before routing.  Pruning removes
    # symbols from 312 of these pi fibers, and a refusal's blocker is a
    # least path of the fiber, so a dead-end symbol read as live would
    # show here; the generator gives phi fibers no dead end
    h = hashlib.sha256()
    rows = dead = refused = 0
    for seed in range(1, 41):
        t = generate_triple(spec_for_seed(seed))
        for length in range(1, 6):
            for w in enumerate_blocks(t.Z_shift, length):
                res = depth(t.pi, w)
                c = res.certificate
                out = is_presented(t.pi, w, c.M[:1], c.n)
                if out:
                    shown = [list(out.M), [[s, u, v.text()] for s, u, v in out.witnesses]]
                else:
                    shown = [list(out.M), out.blocking.text(), out.reason]
                    refused += 1
                witnesses = [[s, u, v.text()] for s, u, v in c.witnesses]
                row = [seed, w.text(), res.value, c.n, list(c.M), witnesses, shown]
                h.update(json.dumps(row).encode() + b"\n")
                rows += 1
                layers = fiber_module.forward_layers(t.pi, w.symbols)
                dead += layers != pruned_layers(t.pi, w.symbols)
    assert (rows, dead, refused) == (1340, 312, 548)
    assert h.hexdigest() == (
        "3b834a4173706afd6885607c40f89429da97937c8894ae4f190fae31807089e0"
    )


def _recording_reaches(monkeypatch):
    """The list of every _Reach that depth builds from now on."""
    reaches = []

    class RecordingReach(depth_module._Reach):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            reaches.append(self)

    monkeypatch.setattr(depth_module, "_Reach", RecordingReach)
    return reaches


def test_relative_reach_holds_only_the_phi_endpoints(monkeypatch):
    # relative_depth sweeps pi's reach on first read only, so it holds
    # forward sets for start symbols and backward sets for end symbols
    # of the phi-fiber alone; on these blocks that is fewer sweeps than
    # the whole pi-fiber's starts and ends would need
    reaches = _recording_reaches(monkeypatch)
    narrower = 0
    for seed in range(1, 6):
        t = generate_triple(spec_for_seed(seed))
        for n in range(1, 5):
            for w in enumerate_blocks(t.Y, n):
                reaches.clear()
                relative_depth(t, w)
                (wit,) = reaches
                u_layers = pruned_layers(t.phi, w.symbols)
                assert set(wit.fs) <= set(iter_bits(u_layers[0]))
                assert set(wit.bs) <= set(iter_bits(u_layers[-1]))
                pi_layers = pruned_layers(t.pi, t.psi.apply_word(w.symbols))
                narrower += len(wit.fs) + len(wit.bs) < (
                    pi_layers[0].bit_count() + pi_layers[-1].bit_count()
                )
    assert narrower > 0


def _least_hitting_set(family):
    """The least mask among the smallest hitting sets of a non-empty
    family of non-empty sets, asking k = 1, 2, ... in turn."""
    union = reduce(or_, family)
    return next(filter(None, (_hitting_set(family, k, union) for k in count(1))))


def _scored_at_every_position(e_pairs, fs, bs, length):
    """Reference for _depth_search: every position's family scored in
    full, from position 1 on, then the least (size, position)."""
    scores = []
    for n in range(1, length + 1):
        family = {fs[s][n - 1] & bs[t][n - 1] for s, t in e_pairs}
        mask = _least_hitting_set(family)
        scores.append((mask.bit_count(), n, mask))
    return min(scores)


def _assert_seeded_search_scores_every_position(e_pairs, wit, length):
    searched = depth_module._depth_search(e_pairs, wit, length)
    assert searched == _scored_at_every_position(e_pairs, wit.fs, wit.bs, length)


def test_position_one_seed_on_builtins_and_generated_triples():
    # _depth_search seeds position 1 with the mask of the start symbols
    # instead of scoring its family; on every Y block up to length 6 of
    # the builtins and seeds 1..20, in both modes, it answers as scoring
    # every position does
    triples = [builtin_triple(name) for name in BUILTIN_NAMES]
    triples += [generate_triple(spec_for_seed(seed)) for seed in range(1, 21)]
    for t in triples:
        for n in range(1, 7):
            for w in enumerate_blocks(t.Y, n):
                for subject, mode in ((t.phi, "absolute"), (t, "relative")):
                    (_, _, e_pairs, wit), _ = depth_module._routing(subject, w, mode)
                    _assert_seeded_search_scores_every_position(e_pairs, wit, n)


@settings(max_examples=80, deadline=None)
@given(small_codes(), st.lists(st.sampled_from(("a", "b")), min_size=1, max_size=6))
def test_position_one_seed_on_small_codes(code, word):
    # absolute mode, and a relative reach on the code that merges both
    # letters, so witnesses run over every domain path of the word's
    # length while the endpoint pairs stay the code's own; the reference
    # builds every family, where the search at k = 1 intersects
    # the starts' forward sets and the ends' backward sets
    if pruned_layers(code, word) is None:
        return
    (_, _, e_pairs, wit), _ = depth_module._routing(code, Block(tuple(word)), "absolute")
    _assert_seeded_search_scores_every_position(e_pairs, wit, len(word))
    merged = trivial_code(code.domain)
    wide = depth_module._Reach(merged, ("z",) * len(word))
    _assert_seeded_search_scores_every_position(e_pairs, wide, len(word))


def test_one_start_fibers_sweep_no_forward_sets(monkeypatch):
    # a fiber with one start symbol answers at position 1, so neither
    # depth nor relative_depth sweeps a forward set on its reach; a fiber
    # with more starts does, which shows the recording sees the sweeps
    reaches = _recording_reaches(monkeypatch)
    lone = swept = 0
    triples = [builtin_triple(name) for name in BUILTIN_NAMES]
    triples += [generate_triple(spec_for_seed(seed)) for seed in range(1, 6)]
    for t in triples:
        for n in range(1, 6):
            for w in enumerate_blocks(t.Y, n):
                starts = pruned_layers(t.phi, w.symbols)[0].bit_count()
                reaches.clear()
                d, r = depth(t.phi, w), relative_depth(t, w)
                assert len(reaches) == 2
                if starts == 1:
                    assert (d.value, d.certificate.n) == (r.value, r.certificate.n) == (1, 1)
                    assert not any(wit.fs for wit in reaches)
                    lone += 1
                swept += any(wit.fs for wit in reaches)
    assert lone > 0 and swept > 0


def _counting(calls, name, real):
    def call(*args):
        calls.append(name)
        return real(*args)

    return call


def test_depth_prunes_no_layer(monkeypatch):
    # depth and relative_depth set each fiber up one way, from its forward
    # layers, and read its endpoint pairs off their end masks: with no
    # fiber kept, each call makes one _end_pairs call and no
    # pruned_layers call
    calls = []
    for module, name in (
        (fiber_module, "pruned_layers"),
        (depth_module, "pruned_layers"),
        (fiber_module, "_end_pairs"),
    ):
        monkeypatch.setattr(module, name, _counting(calls, name, getattr(module, name)))
    triples = [builtin_triple(name) for name in BUILTIN_NAMES]
    triples += [generate_triple(spec_for_seed(seed)) for seed in range(1, 6)]
    for t in triples:
        for n in range(1, 6):
            for w in enumerate_blocks(t.Y, n):
                for f, subject in ((depth, t.phi), (relative_depth, t)):
                    fiber_module._FIBER = None
                    calls.clear()
                    f(subject, w)
                    assert calls == ["_end_pairs"], (f.__name__, w)


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


def test_relative_degree_on_fifteen_domain_symbols(monkeypatch):
    # the whole-state closure needs 197,978 states here; the side
    # closures hold 1,550 left and 994 right sides
    t = generate_triple(
        TripleGenSpec(seed=2, y_symbols=5, blowup_max=3, z_symbols=2, edge_density=0.5)
    )
    assert len(t.X.alphabet) == 15
    monkeypatch.setattr("sftcd.core.DEFAULT_CAP", 5_000)
    est = relative_class_degree(t)
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
    t = generate_triple(spec_for_seed(197))
    built = _count_steppers(monkeypatch)
    for est in (relative_class_degree(t), class_degree(t.phi)):
        assert (est.value, est.minimal_block.text(), est.scanned_length) == (1, "y2", 1)
    assert built == []
    assert class_degree(t.pi).value == 1
    assert built


def test_closures_on_one_shift_build_each_stepper_once(monkeypatch):
    # pi's class degree and the relative degree close sides on seed 17's
    # X, and the relative closures' second track steps by pi's letter
    # masks again: the shift keeps each (direction, keep) stepper from
    # its first ask, so none is built twice, and closures grown again on
    # the same shift build none
    t = generate_triple(spec_for_seed(17))
    built = _count_steppers(monkeypatch)
    class_degree(t.pi)
    by_pi = len(built)
    relative_class_degree(t)
    assert {id(masks) for masks, _ in built} <= {id(t.X.succ_masks), id(t.X.pred_masks)}
    keys = [(masks is t.X.pred_masks, keep) for masks, keep in built]
    assert len(set(keys)) == len(keys) and 0 < by_pi < len(keys)
    pi_keeps = set(fiber_module._letter_masks(t.pi, t.Z_alphabet.symbols))
    assert {(back, keep) for back in (False, True) for keep in pi_keeps} == set(keys[:by_pi])
    fiber_module._MINIMA.clear()
    class_degree(t.pi)
    relative_class_degree(t)
    assert len(built) == len(keys)


def test_value_one_is_proved_before_the_cap(monkeypatch):
    # both side closures of this relative degree pass 20,000 sides, the
    # left at level 14 and the right at level 13, but a relative-depth-1
    # block of length 10 proves the minimum first
    t = generate_triple(TripleGenSpec(4, y_symbols=4, blowup_max=5, z_symbols=2))
    monkeypatch.setattr("sftcd.core.DEFAULT_CAP", 20_000)
    est = relative_class_degree(t)
    assert (est.value, est.minimal_block.text()) == (1, "y0·y1·y1·y1·y1·y1·y1·y1·y1·y1")
    assert est.scanned_length <= 10


def _full_value(score, left, right, limit=None):
    """The value of the split of two _Sides when it is at most limit,
    asking score k = 1, 2, ... up to limit (None: up to the number of
    domain symbols their masks can name); None when no such k scores.
    The first k that scores is the value: a larger k scores whenever a
    smaller one does."""
    if limit is None:
        masks = (m for side in (left, right) for vec in side.vecs for m in vec)
        limit = max((m.bit_length() for m in masks), default=0)
    return next((k for k in range(1, limit + 1) if score(left, right, k)), None)


def _interleaved_minimum(sides, score):
    """The side-closure minimum as one loop that scores every pair as its
    levels are pulled, under a limit that never grows, and stops at a
    value of 1: the falling-limit reference that the answer-first rounds
    of _closure_minimum match.  Each pair's value is found by asking
    k = 1, 2, ... up to the limit (_full_value)."""
    left_levels, right_levels = sides
    left = []
    heads = []
    best = None  # (value, total length, word, split)
    limit = None
    for total in count(1):
        for level in islice(left_levels, 1):
            left.append([fiber_module._Side(*side) for side in level])
        for level in islice(right_levels, 1):
            by_head = {}
            for side in level:
                side = fiber_module._Side(*side)
                by_head.setdefault(side.slot, []).append(side)
            heads.append(by_head)
        if total >= len(left) + len(heads):
            break
        for la in range(max(1, total + 1 - len(heads)), min(total, len(left)) + 1):
            by_head = heads[total - la]
            for side in left[la - 1]:
                for other in by_head.get(side.slot, ()):
                    value = _full_value(score, side, other, limit)
                    if value is None:
                        continue
                    key = (value, total, side.word + other.word[1:], la)
                    if best is None or key < best:
                        best = key
                        limit = value
        if best is not None:
            if best[0] == 1:
                break
            limit = best[0] - 1
    if best is None:
        return None
    return best[0], best[2], best[3], max(len(left), len(heads))


def _minimum_asks(t):
    """Every side-closure minimum sftcd asks of a triple: the class
    degrees and magic blocks of phi, psi and pi, the relative class
    degree, and the relative degrees of the points of period 3 or less."""
    codes = (t.phi, t.psi, t.pi)
    asks = [partial(class_degree, code) for code in codes]
    asks += [partial(find_magic_block, code) for code in codes]
    asks.append(partial(relative_class_degree, t))
    points = periodic_points_of(t.Y, 3)
    return asks + [partial(periodic_point_relative_degree, t, y) for y in points]


def _answer_first_against_falling_limits(asks):
    """The (value, word, split, depth) of every minimum the asks compute,
    each ask run with no minimum kept; each is checked against
    _interleaved_minimum on fresh closures of the same question."""
    questions, found = [], []
    closures, minimum = fiber_module._side_closures, fiber_module._closure_minimum

    def recording(*args):
        questions.append(args)
        return closures(*args)

    def comparing(sides, score):
        found.append(minimum(sides, score))
        assert found[-1] == _interleaved_minimum(closures(*questions[-1]), score)
        return found[-1]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(fiber_module, "_side_closures", recording)
        m.setattr(fiber_module, "_closure_minimum", comparing)
        for ask in asks:
            fiber_module._MINIMA.clear()
            try:
                ask()
            except (PreconditionUnmet, EmptyFiber):
                pass  # refused before any closure, or none of its pairs scores
    return found


def test_answer_first_matches_falling_limits_on_builtins_and_generated_triples():
    # seeds 86, 152 and 166 add class degrees of 2 or more attained
    # only past one letter, so found only once the closures are
    # complete: seed 86's pi is 4 at z0·z0·z0, its phi and relative
    # degree 2 at y0·y1·y0, and pi is 2 at z0^5 on the other two.  The
    # hard lifts of seeds 2 and 6 (tests/data) add minima of 1, 2, 3
    # and 6 over a proper Z: seed 2's pi is 2 at an 11-letter block,
    # seed 6's pi 6 at z0
    triples = [builtin_triple(name) for name in BUILTIN_NAMES]
    seeds = (*range(1, 41), 86, 152, 166)
    triples += [generate_triple(spec_for_seed(seed)) for seed in seeds]
    triples += [
        generate_triple(TripleGenSpec(seed, y_symbols=y, blowup_max=4, z_symbols=2))
        for y in (3, 4)
        for seed in range(1, 11)
    ]
    asks = [a for t in triples for a in _minimum_asks(t)]
    found = _answer_first_against_falling_limits(asks)
    values = {f[0] for f in found if f is not None}
    # value-1 minima end in the first round, while the closures grow,
    # larger ones in later rounds over the complete closures
    assert 1 in values and max(values) >= 3
    # the three seeds' minima past one letter, as (value, label indices)
    minima = {f[:2] for f in found if f is not None}
    assert {(4, (0, 0, 0)), (2, (0, 1, 0)), (2, (0,) * 5)} <= minima
    hard = [load_triple(DATA / f"hard-lift-seed{seed}.json").triple for seed in (2, 6)]
    asks = [a for t in hard for a in _minimum_asks(t)]
    assert {f[0] for f in _answer_first_against_falling_limits(asks)} == {1, 2, 3, 6}
    pis = [class_degree(t.pi) for t in hard]
    assert [(e.value, len(e.minimal_block)) for e in pis] == [(2, 11), (6, 1)]


@settings(max_examples=40, deadline=None)
@given(small_codes())
def test_answer_first_matches_falling_limits_on_small_codes(code):
    asks = [partial(class_degree, code), partial(find_magic_block, code)]
    _answer_first_against_falling_limits(asks)


def _even_shift_code():
    """A code on a..f with no attached codomain whose image is the even
    shift: a and d go to 1, the rest to 0, and every run of 0s between
    two 1s has even length."""
    edges = "aa ab bc cb ca ad dd de ef fe fd da fa cd".split()
    dom = VertexShift.build(tuple("abcdef"), [tuple(e) for e in edges])
    images = {s: "1" if s in "ad" else "0" for s in "abcdef"}
    return OneBlockCode.from_dict(dom, ("0", "1"), images)


def test_sides_that_do_not_join_match_one_loop(monkeypatch):
    # on this code some left side and right side that meet at a slot
    # share no end and start symbol: 1 such pair in class_degree's
    # closures and 4 in find_magic_block's.  Every round walks them, and
    # no score may count them, so each minimum still equals the
    # falling-limit reference
    code = _even_shift_code()
    assert code.codomain is None
    real, apart = fiber_module._joinable_pairs, []

    def recording(left, right, total):
        for la, side, other in real(left, right, total):
            apart.append(not side.union & other.union)
            yield la, side, other

    monkeypatch.setattr(fiber_module, "_joinable_pairs", recording)
    found = []
    for ask in (partial(class_degree, code), partial(find_magic_block, code)):
        apart.clear()
        found += _answer_first_against_falling_limits([ask])
        assert any(apart)
    assert found == [(1, (0, 1, 1), 2, 3), (2, (1,), 1, 4)]


def test_sides_that_share_no_symbol_do_not_score():
    # the left side's ends (a, b) miss the right side's heads (c, d), so
    # the split has no endpoint pair: neither score counts it at any k,
    # at k = 1 (read off the sides' summaries) or above (an empty
    # routing family), though both last tracks hold e
    left, right = _sides({(0b00011, 0b10000)}, {(0b01100, 0b10000)})
    for score in (depth_module._routing_score, fiber_module._magic_score):
        assert not any(score(left, right, k) for k in range(1, 6))


def test_relative_depth_over_the_identity_is_depth():
    # absolute mode is relative mode over a one-to-one psi: over the
    # identity on a code's codomain, relative depth routes w's fiber
    # through pi's fiber over w, which is the code's own, read off pi's
    # own layers; value, position, routing set and witnesses must agree
    triples = [builtin_triple(name) for name in BUILTIN_NAMES]
    triples += [generate_triple(spec_for_seed(seed)) for seed in range(1, 11)]

    def answer(result):
        cert = result.certificate
        return result.value, cert.n, cert.M, cert.witnesses

    blocks = 0
    for t in triples:
        for code in (t.phi, t.pi):
            extension = identity_extension(code)
            for length in range(1, 6):
                for w in enumerate_blocks(code.codomain, length):
                    assert answer(depth(code, w)) == answer(relative_depth(extension, w))
                    blocks += 1
    assert blocks == 1796


def _families_built(monkeypatch, ask):
    """(the estimate ask() returns with no minimum kept, the k of each
    _routing_score call at k >= 2, the number of routing families built:
    distinct sets handed to _hitting_set, which a recursive call hands
    lists)."""
    asked = []
    families = []
    score, hitting_set = depth_module._routing_score, depth_module._hitting_set

    def counting(left, right, k):
        if k >= 2:
            asked.append(k)
        return score(left, right, k)

    def searching(family, k, allowed):
        if isinstance(family, set) and not any(f is family for f in families):
            families.append(family)
        return hitting_set(family, k, allowed)

    monkeypatch.setattr(depth_module, "_routing_score", counting)
    monkeypatch.setattr(depth_module, "_hitting_set", searching)
    fiber_module._MINIMA.clear()
    return ask(), asked, len(families)


def test_value_one_minima_build_no_family(monkeypatch):
    # the deep bench table's depth-1 minima: each pair is only asked
    # whether it scores 1, the AND of its joined rows and columns
    t17, t29 = (generate_triple(spec_for_seed(s)) for s in (17, 29))
    y = PeriodicPoint.make(yblock(t29, "y0·y2·y1"), 0)
    for ask in (
        partial(class_degree, t29.pi),
        partial(relative_class_degree, t17),
        partial(periodic_point_relative_degree, t29, y),
    ):
        est, asked, built = _families_built(monkeypatch, ask)
        assert est.value == 1 and asked == [] and built == 0


def test_larger_minima_still_build_families(mod3, monkeypatch):
    # with no pair of depth 1 in the complete closures, the rounds from
    # k = 2 on ask every pair, and each ask builds the pair's routing
    # family and keeps it for no later round: mod3's phi has 3 at the
    # one-letter block 0, so its 3 one-letter pairs are asked at k = 2
    # and again at k = 3, and build 6 families; seed 11's relative
    # degree is 2 at y0, found among its 3 one-letter pairs at k = 2
    t11 = generate_triple(spec_for_seed(11))
    for ask, expected, rounds in (
        (partial(class_degree, mod3.phi), (3, "0"), [2, 2, 2, 3, 3, 3]),
        (partial(relative_class_degree, t11), (2, "y0"), [2, 2, 2]),
    ):
        est, asked, built = _families_built(monkeypatch, ask)
        assert (est.value, est.minimal_block.text()) == expected
        assert asked == rounds
        assert built == len(asked)


def test_depth_search_builds_each_round_its_own_families(monkeypatch):
    # seed 17's pi has depth 3 at z0·z1, at position 2: round k = 2
    # builds the position's family and finds no hitting set, and round
    # k = 3 builds the family again rather than reading a kept one
    pi = generate_triple(spec_for_seed(17)).pi
    result, asked, built = _families_built(
        monkeypatch, partial(depth, pi, Block(("z0", "z1")))
    )
    assert (result.value, result.certificate.n) == (3, 2)
    assert asked == [] and built == 2


def test_cap_names_the_level_it_reached(xor2, monkeypatch):
    monkeypatch.setattr("sftcd.core.DEFAULT_CAP", 2)
    with pytest.raises(ResourceLimit, match="^closure states exceeded the cap of 2 at level 3$"):
        class_degree(xor2.pi)
    with pytest.raises(ResourceLimit, match="^closure states exceeded the cap of 2 at level 2$"):
        relative_class_degree(xor2)


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
    assert _hitting_set(set(family), k, union) == expected


_split_sides = st.frozensets(
    st.tuples(st.integers(0, 2**6 - 1), st.integers(0, 2**6 - 1)), max_size=6
)


@settings(max_examples=300, deadline=None)
@given(_split_sides, _split_sides)
@example(frozenset({(1, 3)}), frozenset({(2, 3)}))
@example(frozenset({(1, 3), (4, 8)}), frozenset({(1, 3)}))
@example(frozenset(), frozenset({(1, 3)}))
@example(frozenset({(1, 3)}), frozenset())
def test_limit_one_score_is_the_family_search(rows, cols):
    # the round k = 1 of _closure_minimum scores a split from per-side
    # summaries, with no family built: _routing_score ANDs the left
    # side's last-track rows that meet the right side's heads with the
    # right side's columns that meet the left side's ends.  The
    # reference builds the family of a split, intersects it and
    # searches it for one symbol; and the first k at which the score
    # answers must be the family's least hitting-set size, found by
    # trying the combinations of its union.  Rows and columns of one
    # track, and of two.  The examples: no meeting pair; a row, (4, 8),
    # that joins nothing and would empty the intersection; an empty side
    for tracks in (1, 2):
        r = {vec[:tracks] for vec in rows}
        c = {vec[:tracks] for vec in cols}
        family = {a[-1] & b[-1] for a in r for b in c if a[0] & b[0]}
        inter = -1
        for routing_set in family:
            inter &= routing_set
        assert bool(family and inter) == bool(
            _hitting_set(family, 1, reduce(or_, family, 0))
        )
        symbols = list(iter_bits(reduce(or_, family, 0)))
        value = next(
            (
                k
                for k in range(1, len(symbols) + 1)
                for combo in combinations(symbols, k)
                if all(any(x >> i & 1 for i in combo) for x in family)
            ),
            None,
        )
        _assert_first_score(depth_module._routing_score, r, c, value)


@settings(max_examples=300, deadline=None)
@given(_split_sides, _split_sides)
@example(frozenset({(1, 3)}), frozenset({(2, 3)}))
@example(frozenset({(1, 3)}), frozenset({(3, 3)}))
@example(frozenset({(3, 3)}), frozenset({(3, 3)}))
@example(frozenset(), frozenset({(1, 3)}))
def test_limit_one_magic_score_is_the_symbol_count(rows, cols):
    # the magic score reads one popcount off the two sides' first-track
    # unions; the reference counts the symbols that end a row and start
    # a column one by one.  The examples: no shared symbol, one, two, an
    # empty side
    ends = {s for vec in rows for s in iter_bits(vec[0])}
    starts = {s for vec in cols for s in iter_bits(vec[0])}
    value = len(ends & starts) or None
    _assert_first_score(fiber_module._magic_score, rows, cols, value)


def _sides(rows, cols):
    """A left side with the tuples rows and a right side with the tuples
    cols, both at slot 0, as _closure_minimum makes them."""
    return (fiber_module._Side((0, frozenset(vecs)), ()) for vecs in (rows, cols))


def _assert_first_score(score, rows, cols, value):
    """On the split of _sides(rows, cols), score scores at k = 1 exactly
    when value is 1, and the first k at which it scores, asked
    k = 1, 2, ... as _closure_minimum asks, is value (None: no k)."""
    left, right = _sides(rows, cols)
    assert bool(score(left, right, 1)) == (value == 1)
    assert _full_value(score, left, right) == value


def test_lex_path_through_is_the_least_fiber_path():
    # on one reach per word, every (s, m, t, n) is asked, each routing
    # symbol m at every position n in turn, so a backward sweep kept for
    # m at one position must not answer at another.  The reach sweeps
    # the word's unpruned letter masks; the answer must be the first
    # path iter_fiber lists from s through m at n to t (it lists in
    # lexicographic order of symbol indices), or None when it lists none
    triples = [builtin_triple(name) for name in BUILTIN_NAMES]
    triples += [generate_triple(spec_for_seed(seed)) for seed in range(1, 11)]
    asked = found = 0
    for triple in triples:
        symbols = range(len(triple.X.alphabet))
        for length in range(1, 6):
            for w in enumerate_blocks(triple.Y, length):
                for code, word in (
                    (triple.phi, w.symbols),
                    (triple.pi, triple.psi.apply_word(w.symbols)),
                ):
                    reach = depth_module._Reach(code, word)
                    least = {}
                    for path in iter_fiber(code, pruned_layers(code, word)):
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


def _pairs_off_backward_sweeps(domain, layers):
    """Reference for fiber.end_pairs: per end symbol t, a backward sweep
    from t over the forward layers, s paired with t when s lies in its
    first layer; in s, then t, order."""
    pairs = []
    for t in iter_bits(layers[-1]):
        mask = 1 << t
        for layer in layers[-2::-1]:
            mask = domain.step_mask_back(mask) & layer
        pairs += [(s, t) for s in iter_bits(mask)]
    return sorted(pairs)


def test_end_pairs_match_backward_sweeps_and_listed_fibers():
    # both modes read a fiber's endpoint pairs off its end masks, the
    # certificate's search and its replay alike, so the pairs are checked
    # here against two other computations: backward sweeps per end symbol
    # over the forward layers, and the endpoints of the paths iter_fiber
    # lists.  Every Y block up to length 6, for phi over w and for pi
    # over psi(w)
    triples = [builtin_triple(name) for name in BUILTIN_NAMES]
    triples += [generate_triple(spec_for_seed(seed)) for seed in range(1, 21)]
    checked = 0
    for t in triples:
        for n in range(1, 7):
            for w in enumerate_blocks(t.Y, n):
                for code, word in ((t.phi, w.symbols), (t.pi, t.psi.apply_word(w.symbols))):
                    pairs = list(fiber_module.end_pairs(code, word))
                    layers = fiber_module.forward_layers(code, word)
                    assert pairs == _pairs_off_backward_sweeps(code.domain, layers)
                    listed = iter_fiber(code, pruned_layers(code, word))
                    assert pairs == sorted({(p[0], p[-1]) for p in listed})
                    checked += 1
    assert checked > 0


def test_one_fiber_set_up_per_block(monkeypatch):
    # certify's four calls on a block ask about one fiber, w's under phi:
    # absolute depth sweeps its forward layers, relative depth reads its
    # endpoint pairs, and both replays read both off the slot
    calls = []
    for name in ("_forward_sweep", "_end_pairs"):
        real = getattr(fiber_module, name)
        monkeypatch.setattr(fiber_module, name, _counting(calls, name, real))
    triples = [builtin_triple(name) for name in BUILTIN_NAMES]
    triples += [generate_triple(spec_for_seed(seed)) for seed in range(1, 21)]
    for t in triples:
        for n in range(1, 5):
            for w in enumerate_blocks(t.Y, n):
                calls.clear()
                d, r = depth(t.phi, w), relative_depth(t, w)
                assert verify_certificate(t.phi, d.certificate)
                assert verify_certificate(t, r.certificate)
                assert sorted(calls) == ["_end_pairs", "_forward_sweep"], w


def _permuted(code):
    """code on the same domain and codomain alphabet with its letter
    masks permuted: every image moved one letter on."""
    letters = code.codomain_alphabet.symbols
    on = dict(zip(letters, letters[1:] + letters[:1]))
    return OneBlockCode(code.domain, code.codomain_alphabet, tuple(map(on.get, code.mapping)))


def _outcome(f, subject, arg):
    try:
        return f(subject, arg)
    except EmptyFiber as err:
        return type(err)


def _fresh(ops):
    results = []
    for op in ops:
        fiber_module._FIBER = None
        results.append(_outcome(*op))
    return results


def test_kept_fibers_answer_as_fresh_sweeps_do():
    # per block: depth and its replay on phi and on a code with phi's
    # domain and letters whose letter masks are permuted, so one word has
    # two fibers; relative depth and its replay; and each depth replayed
    # against the other code.  Every answer is computed with the slot
    # cleared first, then with the slot kept, the calls in block order
    # and shuffled; a slot keyed by the word alone answers the second
    # code with phi's fiber
    triples = [builtin_triple(name) for name in BUILTIN_NAMES]
    triples += [generate_triple(spec_for_seed(seed)) for seed in range(1, 41)]
    ops = []
    for t in triples:
        other = _permuted(t.phi)
        for n in range(1, 6):
            for w in enumerate_blocks(t.Y, n):
                asks = [(depth, t.phi, w), (depth, other, w), (relative_depth, t, w)]
                d, d2, r = _fresh(asks)
                ops += asks
                ops += [(verify_certificate, t, r.certificate)]
                for x in (d, d2):
                    if isinstance(x, DepthResult):
                        ops += [(verify_certificate, code, x.certificate) for code in (t.phi, other)]
    fresh = _fresh(ops)
    assert True in fresh and False in fresh and EmptyFiber in fresh
    fiber_module._FIBER = None
    assert [_outcome(*op) for op in ops] == fresh
    order = list(range(len(ops)))
    random.Random(38).shuffle(order)
    assert [_outcome(*ops[i]) for i in order] == [fresh[i] for i in order]
    # a slot that kept the caller's word object would answer a list-backed
    # block mutated after a call with the fiber of its old word
    stale = 0
    for t in triples:
        blocks = list(enumerate_blocks(t.Y, 3))
        for before, after in zip(blocks, blocks[1:]):
            listed = Block(list(before.symbols))
            cert = replace(depth(t.phi, after).certificate, w=listed)
            verdict = verify_certificate(t.phi, cert)
            fiber_module._FIBER = None
            assert verdict == verify_certificate(t.phi, cert)
            stale += not verdict
            listed.symbols[:] = after.symbols
            assert verify_certificate(t.phi, cert)
    assert stale > 0


def _tampered_certificates(xor2):
    """(honest subject, honest call, subject, tampered certificates) for
    every tampered certificate of TestVerifyCertificate, plus the dropped
    and the duplicated pair in relative mode: the honest call makes the
    honest certificate of the tampered one's block."""
    w3, w5 = yblock(xor2, "000"), Block(("0",) * 5)
    absolute = (xor2.phi, lambda: depth(xor2.phi, w3).certificate)
    relative = (xor2, lambda: relative_depth(xor2, w5).certificate)
    last = (xor2.phi, lambda: is_presented(xor2.phi, w3, xor2.X.alphabet.symbols, 3))
    q = Block(("q",) * 3)

    def stray(c):
        (s, t, v), rest = c.witnesses[0], c.witnesses[1:]
        claims = [((s, t, Block(v.symbols[:1] + ("q",) + v.symbols[2:])),) + rest]
        claims += [(ends + (v,),) + rest for ends in (("q", t), (s, "q"))]
        return [replace(c, witnesses=x) for x in claims] + [replace(c, w=q)]

    def resized(c):
        (s, t, v), rest = c.witnesses[0], c.witnesses[1:]
        others = (Block(v.symbols + v.symbols[-1:]), Block(v.symbols[1:]))
        return [replace(c, witnesses=((s, t, o),) + rest) for o in others]

    def shortened(c):
        (s, t, v), rest = c.witnesses[0], c.witnesses[1:]
        shorts = (Block(v.symbols[:-1]), Block(v.symbols[:1]))
        return [replace(c, witnesses=((s, t, o),) + rest) for o in shorts] + [replace(c, M=())]

    def dropped(c):
        return [replace(c, witnesses=c.witnesses[1:]), replace(c, witnesses=c.witnesses[:1])]

    def duplicated(c):
        w = c.witnesses
        return [replace(c, witnesses=x) for x in ((w[0],) * 2, w + w[:1], (w[-1],) * 2)]

    def outside(c):
        forged = ("00", "11", Block(("00", "00", "00", "01", "11")))
        claims = ((forged,) + c.witnesses[1:], c.witnesses + (forged,))
        return [replace(c, witnesses=x) for x in claims]

    def other_ends(c):
        zeros, ones = c.witnesses
        return [replace(c, witnesses=(zeros, ones[:2] + zeros[2:]))]

    def forbidden(c):
        s, t, _ = c.witnesses[-1]
        forged = Block(("11", "00", "00", "00", "11"))
        return [replace(c, witnesses=c.witnesses[:-1] + ((s, t, forged),))]

    golden = VertexShift.build(("0", "1"), [("0", "0"), ("0", "1"), ("1", "0")])
    y = VertexShift.full_shift(("0", "1"))
    phi = OneBlockCode.from_dict(golden, y.alphabet, {"0": "0", "1": "1"}, y)
    no_fiber = CodeTriple(phi, trivial_code(y))
    w11 = Block(("1", "1"))

    def empty_fiber():
        with pytest.raises(EmptyFiber):
            relative_depth(no_fiber, w11)

    return [
        (*relative, xor2.phi, lambda c: [c]),
        (*absolute, xor2, lambda c: [c]),
        (*absolute, xor2.phi, lambda c: [replace(c, mode="bogus")]),
        (*relative, xor2, lambda c: [replace(c, n=c.n - 1)]),
        (*absolute, xor2.phi, dropped),
        (*absolute, xor2.phi, lambda c: [replace(c, M=c.M[:1])]),
        (*absolute, xor2.phi, lambda c: [replace(c, n=n) for n in (0, -1, 4, 5)]),
        (*absolute, xor2.phi, stray),
        (*absolute, xor2, lambda c: [replace(c, w=q, mode="relative")]),
        (*absolute, xor2.phi, duplicated),
        (*relative, xor2, outside),
        (None, empty_fiber, no_fiber, lambda c: [
            RoutingCertificate(w11, 1, ("0",), claims, "relative")
            for claims in ((("0", "0", Block(("0", "0"))),), ())
        ]),
        (*relative, xor2, other_ends),
        (*absolute, xor2.phi, resized),
        (*relative, xor2, forbidden),
        (*last, xor2.phi, shortened),
        (*absolute, xor2.phi, lambda c: [replace(c, witnesses=())]),
        (*relative, xor2, dropped),
        (*relative, xor2, duplicated),
    ]


def test_a_warm_slot_never_hides_tampering(xor2):
    # each tampered certificate is replayed right after the honest call
    # and the honest replay on its block, which leave the block's layers
    # and endpoint pairs in the slot, and again with the slot cleared
    replays = 0
    for honest_subject, honest, subject, tamper in _tampered_certificates(xor2):
        cert = honest()
        for bad in tamper(cert):
            cert = honest()
            if cert is not None:
                assert verify_certificate(honest_subject, cert)
            assert not verify_certificate(subject, bad)
            fiber_module._FIBER = None
            assert not verify_certificate(subject, bad)
            replays += 1
    assert replays == 36


ONE_BOUND = (
    "class_degree",
    "relative_class_degree",
    "periodic_point_relative_degree",
    "find_magic_block",
    "degree_finite_to_one",
    "preimages",
    "preimage_blocks",
    "iter_fiber",
    "enumerate_blocks",
    "periodic_points_of",
    "recode_to_one_block",
    "check_onto",
)


@pytest.mark.parametrize("name", ONE_BOUND)
def test_one_bound_reaches_every_enumeration(name, xor2, monkeypatch):
    # no function takes a cap of its own: each reads core.DEFAULT_CAP at
    # the call, so a bound of 1 stops every one on these small inputs
    w = yblock(xor2, "000")
    rule = {(a, b): "01"[a != b] for a in "01" for b in "01"}
    sliding = SlidingBlockCode.from_dict(xor2.Y, xor2.Y.alphabet, 0, 1, rule, xor2.Y)
    cert = depth(xor2.phi, w).certificate
    layers = pruned_layers(xor2.phi, w.symbols)
    point = PeriodicPoint.make(yblock(xor2, "01"))
    calls = {
        "class_degree": lambda: class_degree(xor2.pi),
        "relative_class_degree": lambda: relative_class_degree(xor2),
        "periodic_point_relative_degree": lambda: periodic_point_relative_degree(xor2, point),
        "find_magic_block": lambda: find_magic_block(xor2.phi),
        "degree_finite_to_one": lambda: degree_finite_to_one(xor2.phi),
        "preimages": lambda: list(preimages(xor2.phi, cert)),
        "preimage_blocks": lambda: preimage_blocks(xor2.phi, w),
        "iter_fiber": lambda: list(iter_fiber(xor2.phi, layers)),
        "enumerate_blocks": lambda: enumerate_blocks(xor2.Y, 1),
        "periodic_points_of": lambda: periodic_points_of(xor2.Y, 1),
        "recode_to_one_block": lambda: recode_to_one_block(sliding),
        "check_onto": lambda: check_onto(xor2.phi, xor2.Y),
    }
    assert set(calls) == set(ONE_BOUND)
    monkeypatch.setattr("sftcd.core.DEFAULT_CAP", 1)
    with pytest.raises(ResourceLimit):
        calls[name]()


def test_kept_minima_are_keyed_by_the_cap(xor2, monkeypatch):
    # a minimum kept at the default cap must not answer a smaller cap
    class_degree(xor2.pi)
    relative_class_degree(xor2)
    monkeypatch.setattr("sftcd.core.DEFAULT_CAP", 2)
    with pytest.raises(ResourceLimit, match="cap of 2 at level 3$"):
        class_degree(xor2.pi)
    with pytest.raises(ResourceLimit, match="cap of 2 at level 2$"):
        relative_class_degree(xor2)


def test_a_closure_past_its_cap_keeps_nothing(xor2, monkeypatch):
    monkeypatch.setattr("sftcd.core.DEFAULT_CAP", 2)
    for _ in range(2):
        with pytest.raises(ResourceLimit, match="cap of 2 at level 3$"):
            class_degree(xor2.pi)
        with pytest.raises(ResourceLimit, match="cap of 2 at level 2$"):
            relative_class_degree(xor2)
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


def reversed_triple(t):
    """t with every allowed pair of X, Y and Z flipped and the same symbol
    maps: a point of the reversed shift is a point of the shift read
    backwards, and the codes still map it letter by letter."""

    def flipped(shift):
        if shift is None:
            return None
        return VertexShift(shift.alphabet, frozenset((b, a) for a, b in shift.allowed))

    x, y = flipped(t.X), flipped(t.Y)
    phi = OneBlockCode(x, t.phi.codomain_alphabet, t.phi.mapping, y)
    psi = OneBlockCode(y, t.psi.codomain_alphabet, t.psi.mapping, flipped(t.psi.codomain))
    return CodeTriple.build(phi, psi)


def _degrees_and_lengths(t):
    """(value, witness-block length) of the class degrees of phi, psi and
    pi and of the relative class degree."""
    estimates = [class_degree(code) for code in (t.phi, t.psi, t.pi)]
    estimates.append(relative_class_degree(t))
    return [(est.value, len(est.minimal_block)) for est in estimates]


def test_degrees_are_invariant_under_reversal():
    # the class degrees are defined by transition classes of points, so
    # reading every point backwards changes none of them, and the least
    # length of a block of each depth is the same read backwards; the
    # closures of a reversed triple are grown from columns where the
    # original's are grown from rows, so this checks the left and right
    # sides, and their summaries, against each other
    triples = [builtin_triple(name) for name in BUILTIN_NAMES]
    triples += [generate_triple(spec_for_seed(seed)) for seed in range(1, 41)]
    triples += [
        generate_triple(TripleGenSpec(seed, y_symbols=y, blowup_max=4, z_symbols=2))
        for y, seeds in ((3, 40), (4, 20))
        for seed in range(1, seeds + 1)
    ]
    for index, t in enumerate(triples):
        assert _degrees_and_lengths(reversed_triple(t)) == _degrees_and_lengths(t), index


def two_block_phi_triple(t):
    """t with X replaced by its 2-block presentation X^[2], whose symbols
    are the allowed pairs of X, and phi read off each window's first
    symbol; psi is unchanged."""
    rule = {(a, b): t.phi.apply_symbol(a) for a, b in t.X.allowed}
    sliding = SlidingBlockCode.from_dict(t.X, t.Y.alphabet, 0, 1, rule, codomain=t.Y)
    return CodeTriple.build(recode_to_one_block(sliding).code, t.psi)


def test_degrees_are_invariant_under_two_block_presentation():
    # X^[2] is conjugate to X through the window code, so phi's and pi's
    # class degrees and the relative degree keep their values; only the
    # values are compared, since witness blocks get longer under the
    # recoding (xor2's phi block grows from 1 symbol to 2)
    triples = [builtin_triple(name) for name in BUILTIN_NAMES]
    triples += [generate_triple(spec_for_seed(seed)) for seed in range(1, 41)]
    triples += [
        generate_triple(TripleGenSpec(seed, y_symbols=3, blowup_max=4, z_symbols=2))
        for seed in range(1, 21)
    ]
    def values(t):
        phi, pi = class_degree(t.phi), class_degree(t.pi)
        return [phi.value, pi.value, relative_class_degree(t).value]

    widest = 0
    for index, t in enumerate(triples):
        t2 = two_block_phi_triple(t)
        widest = max(widest, len(t2.X.alphabet))
        assert values(t2) == values(t), index
    # some window shift steps its sets through more than one table
    assert widest > core_module.TABLE_SYMBOLS
