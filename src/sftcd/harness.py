"""Randomized triple generation and property checks for the degree laws.

The checks treat the proved degree identities as oracles: on any generated
triple a conclusive failure is an implementation bug, never a
counterexample, so failing cases are archived in full for debugging.
Every degree is exact (depth.py on the side closures of fiber.py), so
each check either passes or fails.

A generation attempt draws Y, one copy count per Y symbol (one count for
all of them in the matched mode) and a lift of every Y edge that gives
each copy an out-pair and an in-pair over it; its connectivity repair
always ends, since the full lift of an irreducible Y is strongly
connected.  It then draws psi maps until one is onto.  Every draw is
made, so a seed always gives the same triple, but a map the attempt has
already refused is not built again, and phi is built only for the psi
that is kept.  Before its first draw an attempt counts Y's and Z's
blocks of lengths 1 to _COUNTED_LENGTHS; where Y has fewer, no
letter-to-letter code of Y is onto Z, so the attempt makes its draws and
builds none of them.
"""
from __future__ import annotations

import json
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from .codes import (
    CodeTriple,
    OneBlockCode,
    check_onto,
    identity_code,
    is_finite_to_one,
)
from .core import VertexShift, _adjacency, block_counts, is_irreducible
from .corpus import BUILTIN_NAMES, builtin_triple
from .depth import class_degree, relative_class_degree
from .documents import canonical_json, load_triple, to_jsonable
from .errors import GenerationFailed, PreconditionUnmet
from .graphs import reach

_ONTO_TRIES = 8
_GEN_TRIES = 32
# block lengths whose counts _too_few_blocks compares
_COUNTED_LENGTHS = 6


@dataclass(frozen=True, slots=True)
class TripleGenSpec:
    seed: int
    y_symbols: int = 2
    blowup_min: int = 1
    blowup_max: int = 3
    z_symbols: int = 1
    edge_density: float = 0.5

    def __post_init__(self):
        # bool is an int subclass: a JSON true must not pass as 1
        for name in ("seed", "y_symbols", "blowup_min", "blowup_max", "z_symbols"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise PreconditionUnmet(f"{name} must be an integer")
        density = self.edge_density
        if isinstance(density, bool) or not isinstance(density, (int, float)):
            raise PreconditionUnmet("edge_density must be a number")
        if self.y_symbols < 1:
            raise PreconditionUnmet("y_symbols must be positive")
        if not 1 <= self.blowup_min <= self.blowup_max:
            raise PreconditionUnmet("need 1 <= blowup_min <= blowup_max")
        if not 1 <= self.z_symbols <= self.y_symbols:
            raise PreconditionUnmet(
                "z_symbols must be in 1..y_symbols for a surjective psi"
            )
        if not 0.0 <= self.edge_density <= 1.0:
            raise PreconditionUnmet("edge_density must be in [0, 1]")


def spec_for_seed(seed):
    """The generator spec of `sftcd verify --seeds`: 2 or 3 Y symbols,
    blowups up to 1, 2 or 3 copies and 1 or 2 Z symbols, each cycling
    with the seed, and an edge density of 0.3 to 0.7."""
    return TripleGenSpec(
        seed=seed,
        y_symbols=2 + seed % 2,
        blowup_min=1,
        blowup_max=1 + seed % 3,
        z_symbols=1 + seed % 2,
        edge_density=0.3 + 0.1 * (seed % 5),
    )


def builtin_cases():
    """The cases of `verify --corpus builtin`, each with all three checks."""
    return tuple(
        HarnessCase(
            case_id=f"builtin:{name}",
            kind="builtin",
            name=name,
            checks=("main", "special", "chain"),
        )
        for name in BUILTIN_NAMES
    )


class _Retry(Exception):
    pass


def _random_shift(rng, symbols, density):
    """Strongly connected vertex shift: a full random cycle plus extras."""
    order = list(symbols)
    rng.shuffle(order)
    pairs = {
        (order[i], order[(i + 1) % len(order)]) for i in range(len(order))
    }
    for a in symbols:
        for b in symbols:
            if rng.random() < density:
                pairs.add((a, b))
    return VertexShift.build(symbols, sorted(pairs))


def _lifted_edges(rng, copies, y_pairs, density):
    """Per codomain edge, a random copy-pair relation with every source
    copy given an out-pair and every target copy an in-pair; that makes
    the projection onto blocks and leaves no stranded copy.  Some edges
    draw a near-empty relation so the patch loops below leave a sparse,
    functional-looking cover; those are the lifts whose fibers split."""
    pairs = set()
    for p, q in y_pairs:
        rel = set()
        d_eff = 0.0 if rng.random() < 0.45 else max(density, 0.3)
        for a in copies[p]:
            for b in copies[q]:
                if rng.random() < d_eff:
                    rel.add((a, b))
        for a in copies[p]:
            if not any(x == a for x, _ in rel):
                rel.add((a, rng.choice(copies[q])))
        for b in copies[q]:
            if not any(y == b for _, y in rel):
                rel.add((rng.choice(copies[p]), b))
        pairs |= rel
    return pairs


def _repair_connectivity(rng, x_symbols, x_pairs, phi_map, y_shift):
    """Add codomain-compatible copy pairs until strongly connected.  Each
    round gives every copy the mask of its component: what it reaches
    forwards intersected with what it reaches backwards.  The full lift
    of an irreducible codomain is strongly connected, so while the pairs
    are not, some compatible pair joins two components and the round
    adds one; no more than n**2 pairs exist, so the loop ends."""
    pairs = set(x_pairs)
    n = len(x_symbols)
    index = {s: i for i, s in enumerate(x_symbols)}
    while True:
        succ, pred = _adjacency(index, pairs)
        comp = [reach(succ, 1 << v) & reach(pred, 1 << v) for v in range(n)]
        if comp[0] == (1 << n) - 1:
            return pairs
        candidates = sorted(
            (a, b)
            for a in x_symbols
            for b in x_symbols
            if (a, b) not in pairs
            and not comp[index[a]] >> index[b] & 1
            and y_shift.allows(phi_map[a], phi_map[b])
        )
        pairs.add(rng.choice(candidates))


def _surjection(rng, sources, targets):
    image = list(targets) + [
        rng.choice(targets) for _ in range(len(sources) - len(targets))
    ]
    rng.shuffle(image)
    return dict(zip(sources, image))


def generate_triple(spec: TripleGenSpec) -> CodeTriple:
    """Deterministic-under-seed random triple satisfying every CodeTriple
    invariant: X an irreducible blowup of an irreducible Y, phi the copy
    projection (onto by construction), psi a verified-onto symbol map to a
    full shift, pi the composite.  An attempt whose Y has fewer n-blocks
    than Z for some n <= _COUNTED_LENGTHS draws its psi maps, builds none
    and is retried, as it would be once check_onto had refused them all."""
    rng = random.Random(spec.seed)
    for _ in range(_GEN_TRIES):
        try:
            return _generate_once(rng, spec)
        except _Retry:
            continue
    raise GenerationFailed(f"no valid triple after {_GEN_TRIES} attempts")


def _matching_edges(rng, copies, y_pairs):
    """Per codomain edge, a random bijection between copy sets.  Every
    path lift is then rigid, so the projection is constant-to-one with
    class degree equal to the copy count."""
    pairs = set()
    for p, q in y_pairs:
        targets = list(copies[q])
        rng.shuffle(targets)
        pairs.update(zip(copies[p], targets))
    return pairs


def _too_few_blocks(Y, Z):
    """The least n <= _COUNTED_LENGTHS at which Y has fewer n-blocks than
    Z, or None.  A letter-to-letter code onto Z maps Y's n-blocks onto
    Z's, so where Y has fewer no code of Y is onto Z (Lind and Marcus,
    section 4.1) and check_onto would refuse every one."""
    pairs = zip(block_counts(Y, _COUNTED_LENGTHS), block_counts(Z, _COUNTED_LENGTHS))
    return next((n for n, (y, z) in enumerate(pairs, 1) if y < z), None)


def _generate_once(rng, spec):
    y_syms = tuple(f"y{i}" for i in range(spec.y_symbols))
    Y = _random_shift(rng, y_syms, spec.edge_density)
    matched = spec.blowup_max >= 2 and rng.random() < 0.35
    if matched:
        counts = [rng.randint(2, spec.blowup_max)] * len(y_syms)
    else:
        counts = [rng.randint(spec.blowup_min, spec.blowup_max) for _ in y_syms]
    copies = {
        y: tuple(f"{y}c{j}" for j in range(n)) for y, n in zip(y_syms, counts)
    }
    x_syms = tuple(c for y in y_syms for c in copies[y])
    phi_map = {c: y for y in y_syms for c in copies[y]}
    y_pairs = sorted(Y.allowed)
    if matched:
        x_pairs = _matching_edges(rng, copies, y_pairs)
    else:
        x_pairs = _lifted_edges(rng, copies, y_pairs, spec.edge_density)
        x_pairs = _repair_connectivity(rng, x_syms, x_pairs, phi_map, Y)
    X = VertexShift.build(x_syms, sorted(x_pairs))
    if tuple(X.alphabet.symbols) != x_syms:
        raise _Retry
    if matched and not is_irreducible(X):
        raise _Retry
    z_syms = tuple(f"z{i}" for i in range(spec.z_symbols))
    Z = VertexShift.full_shift(z_syms)
    # every draw is made, so the stream stays the same; a map this
    # attempt already refused is not built again, and none is built on a
    # Y with too few blocks to map onto Z's
    hopeless = _too_few_blocks(Y, Z)
    refused = set()
    for _ in range(_ONTO_TRIES):
        psi_map = _surjection(rng, y_syms, z_syms)
        images = tuple(psi_map.values())
        if hopeless or images in refused:
            continue
        psi = OneBlockCode.from_dict(Y, Z.alphabet, psi_map, codomain=Z)
        if check_onto(psi, Z).ok:
            # phi draws nothing and is sound by construction
            phi = OneBlockCode.from_dict(
                X, Y.alphabet, {c: phi_map[c] for c in x_syms}, codomain=Y
            )
            return CodeTriple.build(phi, psi)
        refused.add(images)
    raise _Retry


def generate_chain_code(triple: CodeTriple, seed, w_symbols=1) -> OneBlockCode:
    """A verified-onto code out of the triple's Z shift, for chain checks."""
    z_shift = triple.Z_shift
    if z_shift is None:
        raise PreconditionUnmet("triple's Z is not presented as a vertex shift")
    z_syms = tuple(z_shift.alphabet.symbols)
    if w_symbols > len(z_syms):
        raise PreconditionUnmet("w_symbols exceeds the Z alphabet")
    w_syms = tuple(f"w{i}" for i in range(w_symbols))
    W = VertexShift.full_shift(w_syms)
    rng = random.Random(seed)
    for _ in range(_GEN_TRIES):
        mapping = _surjection(rng, z_syms, w_syms)
        code = OneBlockCode.from_dict(z_shift, W.alphabet, mapping, codomain=W)
        if check_onto(code, W).ok:
            return code
    raise GenerationFailed("no onto chain code found")


@dataclass(frozen=True, slots=True)
class CheckResult:
    name: str
    verdict: str  # pass | fail | skipped
    detail: str = ""


@dataclass(frozen=True, slots=True, eq=False)
class TheoremReport:
    case_id: str
    values: dict
    checks: tuple

    @property
    def verdict(self):
        return "fail" if any(c.verdict == "fail" for c in self.checks) else "pass"


def _check(name, ok, detail):
    return CheckResult(name, "pass" if ok else "fail", detail)


def triple_degrees(t: CodeTriple):
    """The four headline estimates of a triple; a repeated question is
    answered from the side-closure minima fiber.py keeps."""
    return {
        "pi": class_degree(t.pi),
        "phi": class_degree(t.phi),
        "psi": class_degree(t.psi),
        "relative": relative_class_degree(t),
    }


def check_main_identity(t: CodeTriple, *, case_id="") -> TheoremReport:
    """Product identity and its companions: the composite class degree
    factors as d(psi) * d(phi relative to psi); the relative degree
    divides and is bounded by d(phi); the composite never exceeds the
    product of the parts."""
    v = triple_degrees(t)
    pi, phi, psi, rel = v["pi"].value, v["phi"].value, v["psi"].value, v["relative"].value
    checks = (
        _check("product-identity", pi == psi * rel, f"{pi} vs {psi}*{rel}"),
        _check("relative-divides-absolute", phi % rel == 0, f"{phi} mod {rel}"),
        _check(
            "composite-upper-bound",
            pi <= psi * phi,
            ("strict" if pi < psi * phi else "tight") + f": {pi} vs {psi}*{phi}",
        ),
        _check("relative-le-absolute", rel <= phi, f"{rel} vs {phi}"),
    )
    return TheoremReport(case_id, v, checks)


def check_special_cases(t: CodeTriple, *, case_id="") -> TheoremReport:
    """Degenerate settings with sharper conclusions: a degree-one phi
    makes the composite degree collapse to psi's, and a finite-to-one psi
    makes the relative degree absolute."""
    v = triple_degrees(t)
    pi, phi, psi, rel = v["pi"].value, v["phi"].value, v["psi"].value, v["relative"].value
    checks = []
    if phi == 1:
        checks.append(_check("degree-one-collapse", pi == psi, f"{pi} vs {psi}"))
    else:
        checks.append(
            CheckResult("degree-one-collapse", "skipped", "phi degree exceeds 1")
        )
    if is_finite_to_one(t.psi):
        checks.append(_check("finite-to-one-relative", rel == phi, f"{rel} vs {phi}"))
        checks.append(
            _check("finite-to-one-product", pi == psi * phi, f"{pi} vs {psi}*{phi}")
        )
    else:
        skip = CheckResult("finite-to-one-relative", "skipped", "psi not finite-to-one")
        checks.append(skip)
        checks.append(
            CheckResult("finite-to-one-product", "skipped", "psi not finite-to-one")
        )
    return TheoremReport(case_id, v, tuple(checks))


def check_chain_identity(
    t: CodeTriple, varphi: OneBlockCode, *, case_id=""
) -> TheoremReport:
    """Three-code chain law: with a further code out of Z, the relative
    degree of the composite over it factors into the outer code's relative
    degree times the inner code's degree relative to the rest."""
    if t.psi.codomain is None:
        raise PreconditionUnmet("triple's Z is not presented as a vertex shift")
    whole = CodeTriple.build(t.pi, varphi)
    outer = CodeTriple.build(t.psi, varphi)
    inner = CodeTriple.build(t.phi, outer.pi)
    v = {
        "pi_over_varphi": relative_class_degree(whole),
        "psi_over_varphi": relative_class_degree(outer),
        "phi_over_varphi_psi": relative_class_degree(inner),
    }
    a, b, c = (e.value for e in v.values())
    checks = (_check("chain-product", a == b * c, f"{a} vs {b}*{c}"),)
    return TheoremReport(case_id, v, checks)


@dataclass(frozen=True, slots=True)
class HarnessCase:
    """One triple and the checks to run on it.  The chain check's outer
    code is the identity on Z for a builtin case, and for every other
    case generate_chain_code's code seeded with chain_seed."""

    case_id: str
    kind: str  # builtin | generated | file
    name: str = ""  # builtin name or file path
    gen: TripleGenSpec | None = None
    checks: tuple = ("main",)
    chain_seed: int = 0


def resolve_case(case: HarnessCase) -> CodeTriple:
    if case.kind == "builtin":
        return builtin_triple(case.name)
    if case.kind == "generated":
        return generate_triple(case.gen)
    if case.kind == "file":
        return load_triple(case.name).triple
    raise PreconditionUnmet(f"unknown case kind {case.kind!r}")


def run_case(case: HarnessCase, max_len=None, *, archive_dir=None):
    """Run the case's checks on its triple, archiving each failed report
    under archive_dir when one is given.  max_len is neither read nor
    checked: it stays only for callers that still pass a scan length
    positionally."""
    triple = resolve_case(case)
    reports = []
    for kind in case.checks:
        cid = f"{case.case_id}/{kind}"
        if kind == "main":
            reports.append(check_main_identity(triple, case_id=cid))
        elif kind == "special":
            reports.append(check_special_cases(triple, case_id=cid))
        elif kind == "chain":
            if case.kind == "builtin":
                varphi = identity_code(triple.Z_shift)
            else:
                w = 1 + case.chain_seed % len(triple.Z_shift.alphabet)
                varphi = generate_chain_code(triple, case.chain_seed, w)
            reports.append(check_chain_identity(triple, varphi, case_id=cid))
        else:
            raise PreconditionUnmet(f"unknown check kind {kind!r}")
    if archive_dir is not None:
        for report in reports:
            if report.verdict == "fail":
                _archive(archive_dir, case, triple, report)
    return reports


def report_lines(case: HarnessCase, archive_dir=None):
    """run_case's reports as (verdicts, line) pairs: each report's check
    verdicts in order and its finished `sftcd verify` line.  A worker
    process returns these flat strings and tuples, so whoever prints
    them serialises nothing."""
    return [
        (
            tuple(c.verdict for c in report.checks),
            json.dumps(to_jsonable(report), sort_keys=True),
        )
        for report in run_case(case, archive_dir=archive_dir)
    ]


def _archive(archive_dir, case, triple, report):
    path = Path(archive_dir)
    path.mkdir(parents=True, exist_ok=True)
    payload = {"case": case.case_id, "triple": triple, "report": report}
    name = report.case_id.replace("/", "_") + ".json"
    (path / name).write_text(canonical_json(payload))


@dataclass(frozen=True, slots=True)
class SuiteSummary:
    reports: tuple

    def count(self, verdict):
        return sum(
            1 for r in self.reports for c in r.checks if c.verdict == verdict
        )

    @property
    def failed_cases(self):
        return tuple(r.case_id for r in self.reports if r.verdict == "fail")

    @property
    def ok(self):
        return not self.failed_cases


def map_cases(fn, work, jobs):
    """[fn(item) for item in work], in order.  With jobs > 1 the items
    go to that many worker processes in batches of about
    len(work) // (8 * jobs), so each task carries enough work to pay for
    its round trip; with jobs == 1, or fewer than two items, fn runs in
    this process and no worker starts.  Every result is pickled back to
    this process, so an fn whose results are small and flat (as
    report_lines' are) leaves it little to unpickle."""
    work = list(work)
    jobs = min(jobs, len(work))
    if jobs <= 1:
        return [fn(item) for item in work]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, work, chunksize=max(1, len(work) // (8 * jobs))))


def run_suite(cases, *, jobs=1, archive_dir=None) -> SuiteSummary:
    """Run every case's checks, in order, optionally across processes."""
    chunks = map_cases(partial(run_case, archive_dir=archive_dir), cases, jobs)
    return SuiteSummary(tuple(r for chunk in chunks for r in chunk))
