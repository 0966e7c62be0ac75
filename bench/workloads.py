"""The four workloads of the sftcd benchmark.

Each workload drives sftcd's public functions from outside the package:
setup() builds the inputs, timed() runs the measured operations and
returns the perf_counter interval it measured, check() verifies the
outputs and returns an Outcome.  Functions are looked up on their modules at call time, so that a
Tracer installed in the process sees every call.

The benchmark seed only permutes the order of the operations; the inputs
themselves are fixed by `seeds` (the generator seeds of the triples), so
that runs with different benchmark seeds do the same work and a claim can
be rechecked on other generator seeds with --triple-seeds.
"""
from __future__ import annotations

import hashlib
import importlib
import io
import itertools
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from reference import DEEP, KNOWN_DEFECTS, POINTS
from tracing import blocks_scanned

ROOT = Path(__file__).resolve().parent.parent
MODULES = (
    "bridge", "cli", "codes", "core", "corpus", "depth", "documents", "errors", "fiber", "harness"
)

SCAN_LEN = 8  # default max_len of `sftcd verify`
BLOCK_LEN = 7  # certify: every Y block up to this length
BRIDGE_PERIOD = 4  # certify: X periodic points up to this period
JOBS = 2  # verify-cache: --jobs


def load_sftcd():
    sys.path.insert(0, str(ROOT / "src"))
    return SimpleNamespace(**{n: importlib.import_module("sftcd." + n) for n in MODULES})


def stamp():
    """Python version, usable cores and git SHA (None outside a git checkout)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
    }


def digest(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def tail(samples):
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it, or (None, None) with fewer than eleven samples."""
    if len(samples) < 11:
        return None, None
    ordered = sorted(samples)
    k = len(ordered) - 10
    return ordered[k - 1], 100.0 * k / len(ordered)


def settled(estimate):
    """The estimate's own claim to be final.  ROADMAP item 2 may rename
    `stabilized` to `certified`; accept either."""
    return getattr(estimate, "stabilized", getattr(estimate, "certified", False))


class Outcome:
    """Checked outputs of one pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = []  # labels of failed operations
        self.known = []  # the failed ones that are recorded defects
        self.checks = 0  # checks or estimates that could be inconclusive
        self.uncertified = 0
        self.counters = {}
        self.digest = None

    def op(self, label, ok, known_defect=False):
        self.attempted += 1
        if not ok:
            self.failed.append(label)
            if known_defect:
                self.known.append(label)

    def to_dict(self):
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "unexpected": [x for x in self.failed if x not in self.known],
            "checks": self.checks,
            "uncertified": self.uncertified,
            "counters": self.counters,
            "digest": self.digest,
        }


class Workload:
    default_seeds = range(0)

    def __init__(self, m, seed, seeds, work_dir):
        self.m = m
        self.rng = random.Random(seed)
        self.seeds = seeds if seeds is not None else self.default_seeds
        self.work_dir = work_dir
        self.op_spans = []
        self.extra = {}
        self.extra_spans = {}  # name -> perf_counter interval, reported in seconds

    def _run_ops(self, items, fn):
        results = []
        for item in items:
            start = perf_counter()
            results.append(fn(item))
            self.op_spans.append((start, perf_counter()))
        return results

    def latency(self, seconds):
        """Per-operation figures; seconds(a, b) times one interval."""
        op_ms = [seconds(a, b) * 1e3 for a, b in self.op_spans]
        value, pct = tail(op_ms)
        return {
            "ops": len(op_ms),
            "op_p50_ms": statistics.median(op_ms),
            "op_tail_ms": value,
            "op_tail_pct": pct,
        }

    def close(self):
        pass


class Sweep(Workload):
    """harness.run_case per generated case, serial and uncached: the
    single-threaded path of `sftcd verify --seeds`."""

    default_seeds = range(1, 201)

    def setup(self):
        h = self.m.harness
        self.cases = [
            h.HarnessCase(
                case_id=f"seed:{s}",
                kind="generated",
                gen=h.spec_for_seed(s),
                checks=("main", "special", "chain"),
                chain_seed=s,
            )
            for s in self.seeds
        ]
        self.rng.shuffle(self.cases)

    def timed(self):
        start = perf_counter()
        self.reports = self._run_ops(
            self.cases, lambda case: self.m.harness.run_case(case, SCAN_LEN)
        )
        return start, perf_counter()

    def check(self):
        out = Outcome()
        for case, reports in zip(self.cases, self.reports):
            verdicts = [c.verdict for r in reports for c in r.checks]
            out.checks += len(verdicts)
            out.uncertified += verdicts.count("inconclusive")
            out.op(case.case_id, "fail" not in verdicts)
        to_jsonable = self.m.documents.to_jsonable
        out.digest = digest(
            sorted((c.case_id, to_jsonable(r)) for c, r in zip(self.cases, self.reports))
        )
        out.counters["harness.run_case.calls"] = len(self.cases)
        return out


class Deep(Workload):
    """The long single scans of reference.DEEP, each checked against its
    reference value; the seeds are fixed by the table."""

    def setup(self):
        if self.seeds:
            raise ValueError("deep scans a fixed list; --triple-seeds does not apply")
        m = self.m
        triples = {
            "xor2": m.corpus.builtin_triple("xor2"),
            "mod3": m.corpus.builtin_triple("mod3"),
            "seed17": m.harness.generate_triple(m.harness.spec_for_seed(17)),
            "seed29": m.harness.generate_triple(m.harness.spec_for_seed(29)),
        }
        self.ops = []
        for name, scan, subject, max_len, ref, _ in DEEP:
            triple_name, _, code_name = subject.partition(".")
            triple = triples[triple_name]
            target = getattr(triple, code_name) if code_name else triple
            if scan == "periodic_point_relative_degree":
                point = m.core.parse_point_text(triple.Y.alphabet, POINTS[triple_name])
                args = (triple, point, max_len)
            else:
                args = (target, max_len)
            self.ops.append((name, scan, target, args, ref))
        self.rng.shuffle(self.ops)

    def _scan(self, op):
        _, scan, _, args, _ = op
        module = self.m.fiber if scan == "find_magic_block" else self.m.depth
        return getattr(module, scan)(*args)

    def timed(self):
        start = perf_counter()
        self.results = self._run_ops(self.ops, self._scan)
        return start, perf_counter()

    def latency(self, seconds):
        # Twelve scans of very different lengths: too few for a tail.
        return dict(super().latency(seconds), op_tail_ms=None, op_tail_pct=None)

    def _replays(self, scan, target, result):
        """The reported minimum is attained by the reported block."""
        m = self.m
        if scan == "find_magic_block":
            count = m.fiber.preimage_symbol_count(target, result.block, result.coordinate)
            return count == result.value
        if scan == "class_degree":
            d = m.depth.depth(target, result.minimal_block)
        else:
            d = m.depth.relative_depth(target, result.minimal_block)
        return d.value == result.value and m.depth.verify_certificate(target, d.certificate)

    def check(self):
        out = Outcome()
        blocks = {"class_degree": 0, "relative_class_degree": 0, "find_magic_block": 0}
        to_jsonable = self.m.documents.to_jsonable
        for (name, scan, target, args, ref), result in zip(self.ops, self.results):
            final = settled(result.certified if scan == "find_magic_block" else result)
            out.checks += 1
            out.uncertified += not final
            ok = self._replays(scan, target, result) and not (final and result.value != ref)
            known = KNOWN_DEFECTS.get(name) == result.value
            out.op(name, ok, known_defect=known)
            if scan in blocks:
                length = (
                    result.certified.scanned_length
                    if scan == "find_magic_block"
                    else result.scanned_length
                )
                shift = target.Y if scan == "relative_class_degree" else target.codomain
                blocks[scan] += blocks_scanned(self.m.core.count_blocks, shift, length)
        out.counters = {
            "depth.class_degree.blocks": blocks["class_degree"],
            "depth.relative_class_degree.blocks": blocks["relative_class_degree"],
            "fiber.find_magic_block.blocks": blocks["find_magic_block"],
        }
        out.digest = digest(
            sorted((op[0], to_jsonable(r)) for op, r in zip(self.ops, self.results))
        )
        return out


class Certify(Workload):
    """Per-block depth and relative depth with both certificates replayed,
    then bounded bridges, the fixed-point class oracle and the xor2 bridge
    construction; no scan."""

    default_seeds = range(1, 21)

    def setup(self):
        m = self.m
        self.blocks, self.pairs, self.oracles = [], [], []
        for s in self.seeds:
            t = m.harness.generate_triple(m.harness.spec_for_seed(s))
            for n in range(1, BLOCK_LEN + 1):
                self.blocks.extend((s, t, w) for w in m.core.enumerate_blocks(t.Y, n))
            by_image = {}
            for x in m.core.periodic_points_of(t.X, BRIDGE_PERIOD):
                by_image.setdefault(m.codes.apply_to_point(t.pi, x), []).append(x)
            self.pairs.extend(
                (s, t, x, xp)
                for group in by_image.values()
                for x, xp in itertools.permutations(group, 2)
            )
            for tag, code in (("phi", t.phi), ("pi", t.pi)):
                for z in code.codomain_alphabet.symbols:
                    if code.codomain.allows(z, z):
                        self.oracles.append((s, tag, code, z))
        self.rng.shuffle(self.blocks)
        self.rng.shuffle(self.pairs)
        xor2 = m.corpus.builtin_triple("xor2")
        w = m.core.parse_block_text(xor2.Y.alphabet, "00000")
        self.xor2 = xor2
        self.cert = m.depth.relative_is_presented(xor2, w, frozenset({"00"}), 3)
        points = [m.core.PeriodicPoint.make(m.core.Block((s,))) for s in ("00", "11")]
        self.splices = list(itertools.product(points, repeat=2))

    def _block(self, item):
        depth = self.m.depth
        _, t, w = item
        d = depth.depth(t.phi, w)
        r = depth.relative_depth(t, w)
        verify = depth.verify_certificate
        return d, r, verify(t.phi, d.certificate), verify(t, r.certificate)

    def _bridge(self, item):
        b = self.m.bridge
        _, t, x, xp = item
        search = b.bounded_bridge_exists(t.pi, x, xp, 0)
        return search, (b.verify_bridge(t.pi, search.witness) if search.found else None)

    def _splice(self, pair):
        b = self.m.bridge
        try:
            bridges = b.construct_bridge(self.xor2, *pair, 1, self.cert, "00")
        except self.m.errors.NotRoutable:
            return None
        return bridges, [b.verify_bridge(self.xor2, x) for x in bridges]

    def timed(self):
        b = self.m.bridge
        start = perf_counter()
        self.block_results = self._run_ops(self.blocks, self._block)
        self.bridge_results = [self._bridge(p) for p in self.pairs]
        self.oracle_results = [
            b.fixed_point_class_oracle(code, z) for _, _, code, z in self.oracles
        ]
        self.splice_results = [self._splice(p) for p in self.splices]
        return start, perf_counter()

    def check(self):
        out = Outcome()
        rows = []
        witnesses = {"depth": 0, "relative": 0}
        for (s, _, w), (d, r, ok_d, ok_r) in zip(self.blocks, self.block_results):
            out.op(f"seed{s}:{w.text()}", ok_d and ok_r and r.value <= d.value)
            witnesses["depth"] += len(d.certificate.witnesses)
            witnesses["relative"] += len(r.certificate.witnesses)
            rows.append(("block", s, w.text(), [
                (x.value, x.certificate.n, x.certificate.M, len(x.certificate.witnesses))
                for x in (d, r)
            ], ok_d, ok_r))
        found = 0
        for (s, _, x, xp), (search, verified) in zip(self.pairs, self.bridge_results):
            found += bool(search.found)
            out.op(f"seed{s}:{x.text()}->{xp.text()}", not search.found or verified)
            middle = search.witness.middle if search.found else None
            rows.append(("bridge", s, x.text(), xp.text(), bool(search.found),
                         middle.text() if middle else None, verified))
        for (s, tag, _, z), oracle in zip(self.oracles, self.oracle_results):
            ok = oracle.count >= 1 and len(oracle.representatives) == oracle.count
            out.op(f"seed{s}:{tag}:{z}", ok)
            rows.append(("oracle", s, tag, z, oracle.count,
                         [p.text() for p in oracle.representatives], oracle.preorder))
        for (x, xp), result in zip(self.splices, self.splice_results):
            out.op(f"xor2:{x.text()}->{xp.text()}", result is not None and all(result[1]))
            rows.append(("splice", x.text(), xp.text(),
                         None if result is None else [b.middle_symbols for b in result[0]]))
        out.counters = {
            "depth.depth.witnesses": witnesses["depth"],
            "depth.relative_depth.witnesses": witnesses["relative"],
            "depth.verify_certificate.witnesses": witnesses["depth"] + witnesses["relative"],
            "bridge.bounded_bridge_exists.found_ratio": found / len(self.pairs),
        }
        out.digest = digest(sorted(rows, key=repr))
        return out


class VerifyCache(Workload):
    """`sftcd verify --seeds A..B --jobs 2` with SFTCD_CACHE_DIR set to a
    fresh directory: a cold pass that writes the entries (the measured
    interval), then a warm pass that reads them (warm_s)."""

    default_seeds = range(1, 201)
    cache_dir = None

    def setup(self):
        self.cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.work_dir)

    def _verify(self):
        argv = ["verify", "--seeds", f"{self.seeds[0]}..{self.seeds[-1]}", "--jobs", str(JOBS)]
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.m.cli.main(argv)
        return (start, perf_counter()), code, out.getvalue()

    def _entries(self):
        return {p.name: p.stat().st_mtime_ns for p in Path(self.cache_dir).glob("*.json")}

    def timed(self):
        os.environ["SFTCD_CACHE_DIR"] = self.cache_dir
        cold, self.cold_code, self.cold = self._verify()
        self.written = self._entries()
        self.extra_spans["warm_s"], self.warm_code, self.warm = self._verify()
        rewritten = {k for k, v in self._entries().items() if self.written.get(k) != v}
        self.hits = len(self.seeds) - len(rewritten)
        return cold

    def reference(self):
        """Uncached run of the same command, to compare stdout with."""
        os.environ.pop("SFTCD_CACHE_DIR", None)
        _, code, stdout = self._verify()
        return {"exit_code": code, "cases": case_digests(stdout)}

    def check(self):
        out = Outcome()
        cold = case_lines(self.cold)
        warm = case_lines(self.warm)
        for case_id in sorted(set(cold) | set(warm)):
            checks = [c["verdict"] for line in cold.get(case_id, [])
                      for c in json.loads(line)["checks"]]
            out.checks += len(checks)
            out.uncertified += checks.count("inconclusive")
            out.op(case_id, cold.get(case_id) == warm.get(case_id) and "fail" not in checks)
        if self.cold_code != 0 or self.warm_code != 0:
            out.op("exit-code", False)
        out.counters = {
            "cli.verify.entries_written": len(self.written),
            "cli.verify.hit_ratio": self.hits / len(self.seeds),
        }
        out.digest = digest(self.cold)
        self.extra["cases"] = case_digests(self.cold)
        return out

    def latency(self, seconds):
        # One verify command per pass: there is no per-operation latency.
        return {"ops": len(self.seeds), "op_p50_ms": None, "op_tail_ms": None,
                "op_tail_pct": None}

    def close(self):
        os.environ.pop("SFTCD_CACHE_DIR", None)
        if self.cache_dir:
            shutil.rmtree(self.cache_dir, ignore_errors=True)


def case_lines(stdout):
    """Report lines of `sftcd verify` grouped by case id."""
    cases = {}
    for line in stdout.splitlines():
        case_id = json.loads(line)["case_id"].split("/")[0]
        cases.setdefault(case_id, []).append(line)
    return cases


def case_digests(stdout):
    return {case_id: digest(lines) for case_id, lines in case_lines(stdout).items()}


WORKLOADS = {
    "sweep": Sweep,
    "deep": Deep,
    "certify": Certify,
    "verify-cache": VerifyCache,
}
