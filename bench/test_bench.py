"""Checks of the benchmark itself (about 25 s):

    python3 -m pytest -q bench/test_bench.py

They run the benchmark's own processes on small inputs.  They are not
part of the repository's test suite, which collects tests/ only.
"""
from __future__ import annotations

import json
import sys
from time import monotonic, perf_counter

import hostclock
import run
from reference import DEEP, KNOWN_DEFECTS, WITNESS_SEED29_PI

sys.path.insert(0, str(run.ROOT / "src"))

from sftcd.core import parse_block_text  # noqa: E402
from sftcd.corpus import BUILTIN_EXPECTED  # noqa: E402
from sftcd.depth import depth, verify_certificate  # noqa: E402
from sftcd.harness import generate_triple, spec_for_seed  # noqa: E402


def _counters(result):
    """Deterministic per-layer metrics of a traced run: all but times and
    the trace's own coverage share."""
    metrics = result[3]
    return {
        k: v for k, (v, unit) in metrics.items() if unit != "s" and not k.startswith("trace.")
    }


def test_counters_repeat_and_traced_run_matches_untraced():
    for workload, seeds in (("sweep", "1..12"), ("certify", "1..2")):
        # Different benchmark seeds run the same inputs in another order.
        first = run.run_workload(workload, 1, 0, 1, seeds)
        second = run.run_workload(workload, 2, 0, 1, seeds)
        # correct: the traced pass returned the untraced pass's values,
        # verdicts and counters.
        assert first[0] and second[0], first[5] + second[5]
        assert _counters(first) == _counters(second)
        assert any(v for v in _counters(first).values())
        # The top-level spans account for the traced timed phase.
        assert first[3]["trace.top_level_share"][0] > 0.9
    # Every traced run reports exactly the per-layer metrics BENCHMARK.json lists.
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["per_layer"]] == list(first[3])


def test_host_clock_leaves_out_its_own_samples():
    clock = hostclock.HostClock()
    clock.start()
    a = perf_counter()
    while perf_counter() - a < 0.5:
        pass
    b = perf_counter()
    clock.stop()
    raw, ref = clock.span(a, b)
    inside = sum(min(e, b) - max(s, a) for s, e, _ in clock.samples if s < b and e > a)
    assert len(clock.samples) > hostclock.PAD + 4
    assert abs(raw + inside - (b - a)) < 1e-9
    assert 0 < ref < 10 * raw


def test_verify_cache_warm_and_cold_match_uncached():
    correct, attempted, failed, metrics, table, notes = run.run_workload(
        "verify-cache", 1, 0, 0, "1..10"
    )
    assert correct and failed == 0, notes
    assert attempted == 2 * 10
    assert table["warm_s"][0] > 0


def test_deep_reference_table_holds_apart_from_recorded_defect():
    result = run.worker("deep", 1, None, monotonic() + 170)
    assert result["attempted"] == len(DEEP)
    assert result["unexpected"] == []
    assert set(result["failed"]) <= set(KNOWN_DEFECTS)


def test_deep_references_are_established():
    refs = {name: (subject, ref) for name, _, subject, _, ref, _ in DEEP}
    for name in ("cd-xor2-phi", "cd-mod3-phi", "magic-mod3-phi"):
        subject, ref = refs[name]
        triple_name, code_name = subject.split(".")
        assert ref == BUILTIN_EXPECTED[triple_name][code_name]
    t29 = generate_triple(spec_for_seed(29))
    w = parse_block_text(t29.Z_shift.alphabet, WITNESS_SEED29_PI)
    d = depth(t29.pi, w)
    assert d.value == refs["cd-seed29-pi"][1] == 1
    assert verify_certificate(t29.pi, d.certificate)
    for seed in (17, 29):
        assert _is_matched_blowup(generate_triple(spec_for_seed(seed)), 3)


def _is_matched_blowup(t, copies):
    """Every Y symbol has `copies` preimage symbols and every Y edge lifts
    to a bijection between them, so phi is `copies`-to-one everywhere."""
    lift = {
        y: [x for x in t.X.alphabet.symbols if t.phi.apply_symbol(x) == y]
        for y in t.Y.alphabet.symbols
    }
    if any(len(xs) != copies for xs in lift.values()):
        return False
    for p, q in t.Y.allowed:
        edges = [(a, b) for a in lift[p] for b in lift[q] if t.X.allows(a, b)]
        if len(edges) != copies or len({a for a, _ in edges}) != copies:
            return False
        if len({b for _, b in edges}) != copies:
            return False
    return True
