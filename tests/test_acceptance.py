"""Acceptance gate.

Each test covers one numbered criterion, checks exact integer equalities
plus its runtime budget, and emits a single pass/fail line on the real
stdout so the gate is readable even under output capture.
"""

import sys
import time
from itertools import product

from conftest import identity_extension
from sftcd.bridge import construct_bridge, fixed_point_class_oracle, verify_bridge
from sftcd.codes import identity_code, trivial_code
from sftcd.core import Block, PeriodicPoint, enumerate_blocks, parse_block_text
from sftcd.depth import (
    class_degree,
    depth,
    periodic_point_relative_degree,
    relative_class_degree,
    relative_depth,
    relative_is_presented,
)
from sftcd.errors import NotRoutable
from sftcd.fiber import degree_finite_to_one
from sftcd.harness import (
    HarnessCase,
    builtin_cases,
    check_main_identity,
    generate_triple,
    run_suite,
    spec_for_seed,
)


def _line(num, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {verdict} ({detail})")
    sys.stdout.flush()
    assert ok, f"criterion {num}: {detail}"


def test_01_builtin_parity_headline(xor2):
    t0 = time.monotonic()
    est = {
        "phi": class_degree(xor2.phi),
        "psi": class_degree(xor2.psi),
        "pi": class_degree(xor2.pi),
        "relative": relative_class_degree(xor2),
    }
    report = check_main_identity(xor2, case_id="xor2")
    elapsed = time.monotonic() - t0
    values = {k: e.value for k, e in est.items()}
    strict = any(
        c.name == "composite-upper-bound"
        and c.verdict == "pass"
        and c.detail.startswith("strict")
        for c in report.checks
    )
    ok = (
        values == {"phi": 2, "psi": 1, "pi": 1, "relative": 1}
        and all(e.certified for e in est.values())
        and report.verdict == "pass"
        and strict
        and elapsed < 5.0
    )
    _line(
        1,
        ok,
        f"degrees {values}, identity {report.verdict}, "
        f"strict composite bound, {elapsed:.2f}s",
    )


def test_02_finite_to_one_consistency(xor2, mod3):
    details = []
    ok = True
    for t, expect in ((xor2, 2), (mod3, 3)):
        t0 = time.monotonic()
        d = degree_finite_to_one(t.phi)
        cd = class_degree(t.phi)
        elapsed = time.monotonic() - t0
        good = d == expect and cd.value == expect and cd.certified and elapsed < 10.0
        ok = ok and good
        details.append(f"degree {d} == class degree {cd.value} in {elapsed:.2f}s")
    _line(2, ok, "; ".join(details))


def test_03_generated_sweep_identity():
    t0 = time.monotonic()
    cases = [
        HarnessCase(
            case_id=f"seed:{s}", kind="generated", gen=spec_for_seed(s), checks=("main",)
        )
        for s in range(1, 201)
    ]
    summary = run_suite(cases)
    elapsed = time.monotonic() - t0
    fails = summary.count("fail")
    certified = sum(
        1
        for r in summary.reports
        if r.values and all(v.certified for v in r.values.values())
    )
    ok = fails == 0 and certified == 200 and elapsed < 600.0
    _line(3, ok, f"{fails} fails, {certified}/200 certified, {elapsed:.1f}s")


def test_04_depth_monotone_under_extension():
    checked = 0
    violations = []
    for seed in range(1, 21):
        t = generate_triple(spec_for_seed(seed))
        vals = {}
        for length in range(1, 6):
            for w in enumerate_blocks(t.Y, length):
                vals[w.symbols] = (depth(t.phi, w).value, relative_depth(t, w).value)
        allowed = set(t.Y.allowed)
        for syms, (d, rd) in vals.items():
            if len(syms) > 4:
                continue
            for a in t.Y.alphabet.symbols:
                if (syms[-1], a) in allowed:
                    d2, rd2 = vals[syms + (a,)]
                    checked += 1
                    if d2 > d or rd2 > rd:
                        violations.append((seed, syms, a))
                if (a, syms[0]) in allowed:
                    d2, rd2 = vals[(a,) + syms]
                    checked += 1
                    if d2 > d or rd2 > rd:
                        violations.append((seed, a, syms))
    ok = checked > 0 and not violations
    _line(4, ok, f"{checked} one-symbol extensions, {len(violations)} violations")


def test_05_relative_never_exceeds_absolute():
    checked = 0
    violations = 0
    for seed in range(1, 21):
        t = generate_triple(spec_for_seed(seed))
        for length in range(1, 6):
            for w in enumerate_blocks(t.Y, length):
                checked += 1
                if relative_depth(t, w).value > depth(t.phi, w).value:
                    violations += 1
    ok = checked > 0 and violations == 0
    _line(5, ok, f"{checked} blocks compared, {violations} violations")


def _aperiodic_fixed_fiber(code, z):
    """The oracle counts one class per cyclic component, so it is compared
    only where components cannot split into phases.  Brute force on the
    z-fiber's n symbols: v lies on a cycle when it has a closed walk of
    length 1..n, and its component is aperiodic exactly when it has
    closed walks of both lengths n^2 and n^2 + 1 (Wielandt's bound)."""
    dom = code.domain
    fiber = {s for s in dom.alphabet.symbols if code.apply_symbol(s) == z}
    n = len(fiber)
    on_cycle = False
    for v in fiber:
        walks, returns = {v}, set()
        for k in range(1, n * n + 2):
            walks = {b for (a, b) in dom.allowed if a in walks and b in fiber}
            if v in walks:
                returns.add(k)
        if returns & set(range(1, n + 1)):
            on_cycle = True
            if not {n * n, n * n + 1} <= returns:
                return False
    return on_cycle


def test_06_fixed_point_oracle_cross_check(xor2, mod3, golden_identity):
    g = golden_identity.X
    cases = [
        ("trivial-golden", trivial_code(g), "z", True),
        ("trivial-x2", trivial_code(xor2.X), "z", True),
        ("trivial-x3", trivial_code(mod3.X), "z", True),
        ("trivial-y2", trivial_code(xor2.Y), "z", True),
        ("trivial-y3", trivial_code(mod3.Y), "z", True),
        ("identity-golden", identity_code(g), "0", False),
        ("xor2-phi", xor2.phi, "0", False),
        ("xor2-pi", xor2.pi, "z", False),
        ("mod3-pi", mod3.pi, "z", False),
    ]
    for seed in range(1, 13):
        t = generate_triple(spec_for_seed(seed))
        for tag, code in (("phi", t.phi), ("pi", t.pi)):
            for z in code.codomain_alphabet.symbols:
                cases.append((f"seed{seed}-{tag}-{z}", code, z, False))
    compared = 0
    mismatches = []
    for label, code, z, must_be_one in cases:
        if (z, z) not in set(code.codomain.allowed):
            continue
        if not _aperiodic_fixed_fiber(code, z):
            continue
        oracle = fixed_point_class_oracle(code, z)
        if must_be_one and oracle.count != 1:
            mismatches.append((label, "trivial", oracle.count))
        est = periodic_point_relative_degree(
            identity_extension(code), PeriodicPoint.make(Block((z,)))
        )
        if est.certified:
            compared += 1
            if est.value != oracle.count:
                mismatches.append((label, est.value, oracle.count))
    ok = compared >= 20 and not mismatches
    _line(6, ok, f"{compared} certified desk cases, {len(mismatches)} discrepancies")


def test_07_bridge_reconstruction(xor2):
    w = parse_block_text(xor2.Y.alphabet, "00000")
    cert = relative_is_presented(xor2, w, frozenset({"00"}), 3)
    pts = [
        PeriodicPoint.make(Block(("00",))),
        PeriodicPoint.make(Block(("11",))),
    ]
    routable = total = verified = 0
    for x, xp in product(pts, repeat=2):
        try:
            fwd, rev = construct_bridge(xor2, x, xp, 1, cert, "00")
        except NotRoutable:
            continue
        routable += 1
        for b in (fwd, rev):
            total += 1
            if verify_bridge(xor2, b):
                verified += 1
    ok = bool(cert) and routable == 4 and total == 8 and verified == 8
    _line(
        7,
        ok,
        f"{routable}/4 ordered pairs routable, {verified}/{total} bridges re-verified",
    )


def test_08_special_and_chain_suite():
    cases = list(builtin_cases()) + [
        HarnessCase(
            case_id=f"seed:{s}",
            kind="generated",
            gen=spec_for_seed(s),
            checks=("special", "chain"),
            chain_seed=s,
        )
        for s in range(1, 51)
    ]
    summary = run_suite(cases)
    fails = summary.count("fail")
    passes = summary.count("pass")
    ok = fails == 0 and passes > 0
    _line(8, ok, f"{passes} passes, {fails} fails")
