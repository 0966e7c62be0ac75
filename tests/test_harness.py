import hashlib
import json
from itertools import product

import pytest

from sftcd import fiber, harness
from sftcd.codes import (
    CodeTriple,
    OneBlockCode,
    check_onto,
    identity_code,
    is_finite_to_one,
)
from sftcd.core import count_blocks, is_irreducible
from sftcd.corpus import builtin_triple
from sftcd.documents import canonical_json, to_jsonable
from sftcd.errors import PreconditionUnmet
from sftcd.harness import (
    CheckResult,
    HarnessCase,
    TheoremReport,
    TripleGenSpec,
    builtin_cases,
    check_chain_identity,
    check_main_identity,
    check_special_cases,
    generate_chain_code,
    generate_triple,
    map_cases,
    report_lines,
    run_case,
    run_suite,
    spec_for_seed,
    triple_degrees,
)


class TestGenSpec:
    def test_bounds_validated(self):
        with pytest.raises(PreconditionUnmet):
            TripleGenSpec(seed=1, y_symbols=0)
        with pytest.raises(PreconditionUnmet):
            TripleGenSpec(seed=1, blowup_min=2, blowup_max=1)
        with pytest.raises(PreconditionUnmet):
            TripleGenSpec(seed=1, y_symbols=2, z_symbols=3)
        with pytest.raises(PreconditionUnmet):
            TripleGenSpec(seed=1, edge_density=1.5)
        with pytest.raises(PreconditionUnmet, match="seed must be an integer"):
            TripleGenSpec(seed="x")
        for density in ("0.5", None, True):
            with pytest.raises(PreconditionUnmet, match="^edge_density must be a number$"):
                TripleGenSpec(seed=1, edge_density=density)
        assert TripleGenSpec(seed=1, edge_density=1).edge_density == 1

    def test_seed_sweep_stays_in_bounds(self):
        for seed in range(1, 60):
            s = spec_for_seed(seed)
            assert 2 <= s.y_symbols <= 3
            assert 1 <= s.blowup_max <= 3
            assert 1 <= s.z_symbols <= 2
            assert 0.0 <= s.edge_density <= 1.0


class TestGenerateTriple:
    def test_deterministic_under_seed(self):
        spec = spec_for_seed(11)
        assert canonical_json(generate_triple(spec)) == canonical_json(
            generate_triple(spec)
        )

    def test_invariants_hold(self):
        for seed in (1, 4, 13, 27, 42):
            spec = spec_for_seed(seed)
            t = generate_triple(spec)
            assert is_irreducible(t.X)
            assert is_irreducible(t.Y)
            assert len(t.Y.alphabet) == spec.y_symbols
            assert len(t.Z_alphabet) == spec.z_symbols
            assert check_onto(t.phi, t.Y).ok
            # phi is the copy projection: names encode their image
            for s in t.X.alphabet.symbols:
                assert s.startswith(t.phi.apply_symbol(s))

    def test_blowup_bounds(self):
        for seed in (2, 8, 31):
            spec = spec_for_seed(seed)
            t = generate_triple(spec)
            per_symbol = {}
            for s in t.X.alphabet.symbols:
                y = t.phi.apply_symbol(s)
                per_symbol[y] = per_symbol.get(y, 0) + 1
            assert all(
                spec.blowup_min <= n <= spec.blowup_max
                for n in per_symbol.values()
            )

    def test_z_is_full_shift(self):
        t = generate_triple(spec_for_seed(3))
        z = t.Z_shift
        for a in z.alphabet.symbols:
            for b in z.alphabet.symbols:
                assert z.allows(a, b)


    def test_output_is_pinned(self):
        # the canonical JSON of every triple of the verify sweep's seeds and
        # of the (3,3) band with two Z symbols, hashed in order: a change to
        # the random stream or to what is built from it moves the digest
        specs = [spec_for_seed(seed) for seed in range(1, 201)]
        specs += [
            TripleGenSpec(seed, y_symbols=3, blowup_max=3, z_symbols=2)
            for seed in range(1, 41)
        ]
        digest = hashlib.sha256()
        for spec in specs:
            digest.update(canonical_json(generate_triple(spec)).encode())
        expected = "7a5a57a6a4ee8233d2c6eefcbe56aae06734ccec95dd85dc2e60c2ae96e5e28d"
        assert digest.hexdigest() == expected

    def test_lifts_cover_every_edge_and_repairs_connect(self, monkeypatch):
        # the guarantees the generator relies on instead of retrying: a
        # lift gives every copy an out-pair and an in-pair over each Y
        # edge, and a repair returns a strongly connected pair set that
        # adds only pairs over allowed Y edges.  Every lift and repair
        # of the pinned specs is recorded and checked
        lifts, repairs = [], []
        lifted, matching = harness._lifted_edges, harness._matching_edges
        repair = harness._repair_connectivity

        def recording_lift(rng, copies, y_pairs, *density):
            make = lifted if density else matching
            pairs = make(rng, copies, y_pairs, *density)
            lifts.append((copies, y_pairs, set(pairs)))
            return pairs

        def recording_repair(rng, x_symbols, x_pairs, phi_map, y_shift):
            pairs = repair(rng, x_symbols, x_pairs, phi_map, y_shift)
            repairs.append((x_symbols, set(x_pairs), set(pairs), phi_map, y_shift))
            return pairs

        monkeypatch.setattr(harness, "_lifted_edges", recording_lift)
        monkeypatch.setattr(harness, "_matching_edges", recording_lift)
        monkeypatch.setattr(harness, "_repair_connectivity", recording_repair)
        specs = [spec_for_seed(seed) for seed in range(1, 201)]
        specs += [
            TripleGenSpec(seed, y_symbols=3, blowup_max=3, z_symbols=2)
            for seed in range(1, 41)
        ]
        for spec in specs:
            generate_triple(spec)
        for copies, y_pairs, pairs in lifts:
            for p, q in y_pairs:
                over = {(a, b) for a, b in pairs if a in copies[p] and b in copies[q]}
                assert {a for a, _ in over} == set(copies[p])
                assert {b for _, b in over} == set(copies[q])
        for x_symbols, before, after, phi_map, y_shift in repairs:
            assert before <= after
            assert all(y_shift.allows(phi_map[a], phi_map[b]) for a, b in after - before)
            for succ in (after, {(b, a) for a, b in after}):
                seen, todo = {x_symbols[0]}, [x_symbols[0]]
                while todo:
                    a = todo.pop()
                    new = {b for x, b in succ if x == a} - seen
                    seen |= new
                    todo.extend(new)
                assert seen == set(x_symbols)
        assert (len(lifts), len(repairs)) == (400, 292)

    def test_codes_built_once_per_distinct_draw(self, monkeypatch):
        # each attempt draws psi maps until one is onto; a map it already
        # refused is drawn (the stream stays the same) but not built
        # again, no map is built on a Y with fewer n-blocks than Z, and
        # phi is built once, for the triple returned
        attempts = []  # per attempt: psi maps drawn, letters built, Y refused at
        generate_once, surjection = harness._generate_once, harness._surjection
        too_few = harness._too_few_blocks
        from_dict = harness.OneBlockCode.from_dict

        def once(rng, spec):
            attempts.append(([], [], []))
            return generate_once(rng, spec)

        def drawn(rng, sources, targets):
            mapping = surjection(rng, sources, targets)
            attempts[-1][0].append(tuple(mapping.values()))
            return mapping

        def built(domain, codomain_alphabet, mapping, codomain=None):
            attempts[-1][1].append(tuple(codomain_alphabet)[0][0])
            return from_dict(domain, codomain_alphabet, mapping, codomain)

        def refused(Y, Z):
            attempts[-1][2].append(too_few(Y, Z))
            return attempts[-1][2][-1]

        monkeypatch.setattr(harness, "_generate_once", once)
        monkeypatch.setattr(harness, "_surjection", drawn)
        monkeypatch.setattr(harness, "_too_few_blocks", refused)
        monkeypatch.setattr(harness.OneBlockCode, "from_dict", staticmethod(built))
        specs = [spec_for_seed(seed) for seed in range(1, 61)]
        specs += [
            TripleGenSpec(seed, y_symbols=3, blowup_max=3, z_symbols=2)
            for seed in range(1, 41)
        ]
        # the last spec takes 4 attempts and draws 25 maps, 16 of them
        # distinct within their attempt; attempts 1 and 3 have a Y with
        # too few 5-blocks and 3-blocks, so only 7 are built
        specs.append(TripleGenSpec(12, y_symbols=3, blowup_max=3, z_symbols=2))
        for spec in specs:
            attempts.clear()
            generate_triple(spec)
            for k, (maps, letters, hopeless) in enumerate(attempts):
                phi_built = k == len(attempts) - 1
                psi_built = 0 if any(hopeless) else len(set(maps))
                assert sorted(letters) == ["y"] * phi_built + ["z"] * psi_built
        assert [len(maps) for maps, _, _ in attempts] == [8, 8, 8, 1]
        assert sum(len(set(maps)) for maps, _, _ in attempts) == 16
        assert [hopeless for _, _, hopeless in attempts] == [[5], [None], [3], [None]]
        assert sum(letters.count("z") for _, letters, _ in attempts) == 7

    def test_refused_ys_have_no_onto_code(self, monkeypatch):
        # the block-count bound refuses only what check_onto refuses: on
        # the pinned specs and the CI band, every surjection of a refused
        # Y onto Z's symbols gives a code that is not onto Z
        refused = []
        too_few = harness._too_few_blocks

        def recording(Y, Z):
            n = too_few(Y, Z)
            if n:
                refused.append((Y, Z, n))
            return n

        monkeypatch.setattr(harness, "_too_few_blocks", recording)
        specs = [spec_for_seed(seed) for seed in range(1, 201)]
        specs += [
            TripleGenSpec(seed, y_symbols=3, blowup_max=3, z_symbols=2)
            for seed in range(1, 41)
        ]
        specs += [
            TripleGenSpec(seed, y_symbols=4, blowup_max=4, z_symbols=2)
            for seed in range(1, 21)
        ]
        for spec in specs:
            generate_triple(spec)
        codes = 0
        for Y, Z, n in refused:
            assert count_blocks(Y, n) < count_blocks(Z, n)
            z_syms = Z.alphabet.symbols
            for images in product(z_syms, repeat=len(Y.alphabet)):
                if set(images) == set(z_syms):
                    psi = OneBlockCode(Y, Z.alphabet, images, Z)
                    assert not check_onto(psi, Z).ok
                    codes += 1
        # 119 refused Ys, with 714 surjections among them
        assert (len(refused), codes) == (119, 714)


class TestChainCode:
    def test_onto_and_deterministic(self):
        t = builtin_triple("xor2")
        c1 = generate_chain_code(t, 7)
        c2 = generate_chain_code(t, 7)
        assert c1.mapping == c2.mapping
        assert check_onto(c1, c1.codomain).ok

    def test_w_alphabet_cannot_exceed_z(self):
        t = builtin_triple("xor2")
        with pytest.raises(PreconditionUnmet):
            generate_chain_code(t, 1, w_symbols=2)


class TestChecks:
    def test_xor2_main_identity(self, xor2):
        rep = check_main_identity(xor2, case_id="xor2")
        assert rep.verdict == "pass"
        by_name = {c.name: c for c in rep.checks}
        assert set(by_name) == {
            "product-identity",
            "relative-divides-absolute",
            "composite-upper-bound",
            "relative-le-absolute",
        }
        assert by_name["composite-upper-bound"].detail == "strict: 1 vs 1*2"
        assert rep.values["phi"].value == 2

    def test_mod3_composite_bound_detail(self, mod3):
        rep = check_main_identity(mod3)
        assert rep.verdict == "pass"
        by_name = {c.name: c for c in rep.checks}
        assert by_name["composite-upper-bound"].detail == "strict: 1 vs 1*3"

    def test_xor2_special_cases_all_skipped(self, xor2):
        rep = check_special_cases(xor2)
        assert rep.verdict == "pass"
        assert [c.verdict for c in rep.checks] == ["skipped"] * 3

    def test_identity_triple_special_cases_apply(self, golden_identity):
        assert is_finite_to_one(golden_identity.psi)
        rep = check_special_cases(golden_identity)
        assert [c.verdict for c in rep.checks] == ["pass"] * 3

    def test_chain_identity_with_identity_tail(self, xor2):
        rep = check_chain_identity(xor2, identity_code(xor2.Z_shift))
        assert rep.verdict == "pass"
        assert set(rep.values) == {
            "pi_over_varphi",
            "psi_over_varphi",
            "phi_over_varphi_psi",
        }

    def test_seed17_main_identity_is_conclusive(self):
        # a length-8 scan left pi at 2 here; the exact value is 1
        t = generate_triple(spec_for_seed(17))
        rep = check_main_identity(t)
        assert [c.verdict for c in rep.checks] == ["pass"] * 4
        assert {k: e.value for k, e in rep.values.items()} == {
            "pi": 1, "phi": 3, "psi": 1, "relative": 1,
        }
        assert all(e.certified for e in rep.values.values())

    def test_degrees_are_cached(self, xor2, monkeypatch):
        # the second ask is answered from the kept side-closure minima:
        # equal estimates, no closure run and no entry added
        a = triple_degrees(xor2)
        kept = dict(fiber._MINIMA)
        assert kept
        monkeypatch.setattr(fiber, "_closure_minimum", None)
        b = triple_degrees(xor2)
        assert a == b
        assert fiber._MINIMA == kept


class TestScanLengthRetired:
    def test_scan_length_slots_are_unread(self, xor2):
        # the five functions that keep a max_len slot give the same result
        # without a scan length and with any one, 0 included
        from sftcd.core import PeriodicPoint
        from sftcd.depth import (
            class_degree,
            periodic_point_relative_degree,
            relative_class_degree,
        )
        from sftcd.fiber import find_magic_block

        point = PeriodicPoint.make(("0", "1"))
        case = HarnessCase("xor2", "builtin", "xor2", checks=("main", "special"))
        calls = (
            (class_degree, (xor2.pi,)),
            (relative_class_degree, (xor2,)),
            (periodic_point_relative_degree, (xor2, point)),
            (find_magic_block, (xor2.phi,)),
        )
        for fn, args in calls:
            expected = fn(*args)
            for scan in (0, 1, 8):
                assert fn(*args, scan) == expected, (fn.__name__, scan)

        def summary(reports):
            return [(r.case_id, r.values, r.checks) for r in reports]

        expected = summary(run_case(case))
        for scan in (0, 1, 8):
            assert summary(run_case(case, scan)) == expected

    def test_old_positional_scan_lengths_raise(self, xor2):
        from sftcd.fiber import degree_finite_to_one

        cases = [HarnessCase("xor2", "builtin", "xor2")]
        with pytest.raises(TypeError):
            run_suite(cases, 8)
        with pytest.raises(TypeError):
            check_main_identity(xor2, 8)
        with pytest.raises(TypeError):
            check_special_cases(xor2, 8)
        with pytest.raises(TypeError):
            check_chain_identity(xor2, identity_code(xor2.Z_shift), 8)
        with pytest.raises(TypeError):
            triple_degrees(xor2, 8)
        with pytest.raises(TypeError):
            degree_finite_to_one(xor2.phi, 8)
        with pytest.raises(TypeError):
            spec_for_seed(1, y_max=3)


class TestReportShape:
    def test_verdict_precedence(self):
        mk = lambda *v: TheoremReport(
            "c", {}, tuple(CheckResult(str(i), x) for i, x in enumerate(v))
        )
        assert mk("pass", "fail", "skipped").verdict == "fail"
        assert mk("pass", "skipped").verdict == "pass"


class TestSuite:
    def test_builtin_corpus_passes(self):
        summary = run_suite(builtin_cases())
        assert summary.ok
        assert summary.count("fail") == 0

    def test_parallel_matches_serial(self):
        cases = [
            HarnessCase(f"seed-{s}", "generated", gen=spec_for_seed(s), chain_seed=s)
            for s in (1, 2, 3, 4)
        ]
        serial = run_suite(cases, jobs=1)
        parallel = run_suite(cases, jobs=2)
        assert [r.case_id for r in serial.reports] == [
            r.case_id for r in parallel.reports
        ]
        assert [
            (c.name, c.verdict, c.detail)
            for r in serial.reports
            for c in r.checks
        ] == [
            (c.name, c.verdict, c.detail)
            for r in parallel.reports
            for c in r.checks
        ]

    @pytest.mark.parametrize("n", [1, 2, 17, 35])
    def test_parallel_keeps_case_order(self, n):
        # 35 cases go in batches of 2, so the last batch is short
        cases = [
            HarnessCase(f"seed-{s}", "generated", gen=spec_for_seed(s))
            for s in range(n, 0, -1)
        ]
        parallel = run_suite(cases, jobs=2)
        assert [r.case_id for r in parallel.reports] == [
            f"{c.case_id}/main" for c in cases
        ]
        assert [r.values["pi"].value for r in parallel.reports] == [
            r.values["pi"].value for r in run_suite(cases).reports
        ]

    def test_batches_follow_the_cases_and_jobs(self, monkeypatch):
        # about len // (8 * jobs) items per task, and no pool for one item
        pools = []

        class Recording:
            def __init__(self, max_workers):
                self.max_workers = max_workers

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, work, chunksize):
                pools.append((self.max_workers, chunksize))
                return map(fn, work)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", Recording)
        assert map_cases(abs, range(-200, 0), 2) == list(range(200, 0, -1))
        assert map_cases(abs, range(-17, 0), 2) == list(range(17, 0, -1))
        assert map_cases(abs, range(-200, 0), 3) == list(range(200, 0, -1))
        assert map_cases(abs, [-1], 2) == [1]
        assert map_cases(abs, [], 2) == []
        assert map_cases(abs, range(-5, 0), 1) == [5, 4, 3, 2, 1]
        assert pools == [(2, 12), (2, 1), (3, 8)]

    def test_run_case_chain_kinds(self, xor2):
        # a builtin case chains through the identity on Z, a generated
        # one through generate_chain_code
        ident = HarnessCase("a", "builtin", "xor2", checks=("chain",))
        gen = HarnessCase(
            "b", "generated", gen=spec_for_seed(3), checks=("chain",), chain_seed=3
        )
        for case in (ident, gen):
            reports = run_case(case)
            assert len(reports) == 1
            assert reports[0].verdict == "pass"

    def test_report_lines_are_the_printed_reports(self):
        # each pair is a report's verdicts and its finished verify line
        cases = [
            HarnessCase("b", "builtin", "xor2", checks=("main", "special", "chain")),
            HarnessCase(
                "s", "generated", gen=spec_for_seed(12),
                checks=("main", "special", "chain"), chain_seed=12,
            ),
        ]
        for case in cases:
            reports = run_case(case)
            assert report_lines(case) == [
                (
                    tuple(c.verdict for c in r.checks),
                    json.dumps(to_jsonable(r), sort_keys=True),
                )
                for r in reports
            ]
            assert len(reports) == 3

    def test_archive_only_on_failure(self, tmp_path):
        case = HarnessCase("good", "builtin", "xor2", checks=("main",))
        run_case(case, archive_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_unknown_kind_rejected(self):
        with pytest.raises(PreconditionUnmet):
            run_case(HarnessCase("x", "nope"))
        with pytest.raises(PreconditionUnmet):
            run_case(HarnessCase("x", "builtin", "xor2", checks=("bogus",)))
