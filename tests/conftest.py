"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the bitmask machinery of the package:
fibers are enumerated as explicit symbol tuples and minimization is done
with itertools over whole alphabets.  Slow but unarguable.  small_codes is
the Hypothesis strategy of random small codes that the differential tests
share, hard_lift_triple makes the hard-regime triples of tests/data, and
run_under_hash_seeds runs a snippet in fresh interpreters.
"""
import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import strategies as st

import sftcd.codes as codes_module
import sftcd.fiber as fiber_module
from sftcd.codes import CodeTriple, OneBlockCode
from sftcd.core import VertexShift, is_irreducible
from sftcd.corpus import builtin_triple
from sftcd.harness import _random_shift


@pytest.fixture(autouse=True)
def fresh_memos():
    """Every test starts with no side-closure minimum, no check_onto
    answer and no fiber kept, so whether a closure or a sweep runs never
    depends on the tests before it."""
    fiber_module._MINIMA.clear()
    fiber_module._FIBER = None
    codes_module._ONTO.clear()


@pytest.fixture(scope="session")
def xor2():
    return builtin_triple("xor2")


@pytest.fixture(scope="session")
def mod3():
    return builtin_triple("mod3")


@pytest.fixture(scope="session")
def golden_identity():
    return builtin_triple("golden_identity")


@pytest.fixture(scope="session")
def golden_trivial():
    return builtin_triple("golden_trivial")


def fiber_paths(code, word):
    """All domain blocks mapping to word, as symbol tuples, by brute DFS."""
    shift = code.domain
    paths = [(s,) for s in shift.alphabet.symbols if code.apply_symbol(s) == word[0]]
    for letter in word[1:]:
        paths = [
            p + (s,)
            for p in paths
            for s in shift.successors(p[-1])
            if code.apply_symbol(s) == letter
        ]
    return paths


def naive_depth(code, word, u_paths=None, wit_paths=None):
    """(size, position, symbol set) minimizing |M|, then the position,
    then the symbol set lexicographically; requires every endpoint pair
    realized by u_paths to admit a witness through M.

    With the default arguments this is plain depth; passing phi-paths as
    u_paths and composite-fiber paths as wit_paths gives the relative
    version.
    """
    if wit_paths is None:
        wit_paths = fiber_paths(code, word)
    if u_paths is None:
        u_paths = wit_paths
    assert u_paths, "empty fiber has no depth"
    symbols = code.domain.alphabet.symbols
    pairs = {(p[0], p[-1]) for p in u_paths}
    length = len(word)
    for size in range(1, len(symbols) + 1):
        for n in range(1, length + 1):
            for M in combinations(symbols, size):
                chosen = set(M)
                if all(
                    any(
                        v[0] == s and v[-1] == t and v[n - 1] in chosen
                        for v in wit_paths
                    )
                    for s, t in pairs
                ):
                    return size, n, frozenset(M)
    raise AssertionError("some endpoint pair admits no witness at all")


def naive_class_degree(code, max_len):
    """Minimum naive depth over all nonempty-fiber codomain words."""
    best = None
    words = [(letter,) for letter in code.codomain_alphabet]
    for _ in range(max_len):
        nxt = []
        for word in words:
            if not fiber_paths(code, word):
                continue
            nxt.append(word)
            d = naive_depth(code, word)[0]
            if best is None or d < best:
                best = d
        if best == 1:
            break
        words = [w + (letter,) for w in nxt for letter in code.codomain_alphabet]
    return best


def naive_finite_to_one(code, slack=2):
    """Diamond counting by integer matrix powers on the pair graph.

    D_k = (# same-image endpoint-matched pairs of length-k fiber blocks)
    minus the diagonal ones; any positive D_k within |A|^2 + slack steps
    means two distinct blocks share image and endpoints, which pumps to
    infinitely many preimages on an irreducible domain.
    """
    shift = code.domain
    syms = shift.alphabet.symbols
    states = [
        (a, b)
        for a in syms
        for b in syms
        if code.apply_symbol(a) == code.apply_symbol(b)
    ]
    idx = {st: i for i, st in enumerate(states)}
    size = len(states)
    step = [[0] * size for _ in range(size)]
    for (a, b), i in idx.items():
        for c in shift.successors(a):
            for d in shift.successors(b):
                if code.apply_symbol(c) == code.apply_symbol(d):
                    step[i][idx[(c, d)]] += 1
    plain = {s: shift.successors(s) for s in syms}
    vec = [0] * size
    for s in syms:
        vec[idx[(s, s)]] = 1
    diag_vec = {s: 1 for s in syms}
    for _ in range(len(syms) ** 2 + slack):
        vec = [
            sum(vec[i] * step[i][j] for i in range(size)) for j in range(size)
        ]
        diag_vec = {
            t: sum(diag_vec[s] for s in syms if t in plain[s]) for t in syms
        }
        paired = sum(vec[idx[(s, s)]] for s in syms)
        solo = sum(diag_vec.values())
        if paired > solo:
            return False
    return True


def reference_step_mask(shift, mask):
    """Successors of the symbols in mask, one allowed pair at a time: the
    plain loop that VertexShift.step_mask answers from its tables."""
    index = shift.alphabet.index
    out = 0
    for a, b in shift.allowed:
        if mask >> index(a) & 1:
            out |= 1 << index(b)
    return out


def reference_step_mask_back(shift, mask):
    """Predecessors of the symbols in mask, one allowed pair at a time."""
    index = shift.alphabet.index
    out = 0
    for a, b in shift.allowed:
        if mask >> index(b) & 1:
            out |= 1 << index(a)
    return out


def walk_count(shift, length):
    """Number of allowed blocks of a given length, by plain dynamic
    programming over successor lists (independent of the bitmask layers)."""
    counts = {s: 1 for s in shift.alphabet.symbols}
    for _ in range(length - 1):
        counts = {
            s: sum(counts[t] for t in shift.successors(s))
            for s in shift.alphabet.symbols
        }
    return sum(counts.values())


def periodic_preimage_points(code, y, max_multiple=6):
    """Exact number of domain points mapping onto the periodic point y.

    Preimages of a k-periodic point under a finite-to-one code are
    periodic with least period a multiple of k, so closed symbol tuples
    of length k*m spelling y^m count the points of period dividing k*m;
    peeling off shorter periods divisor by divisor leaves exact counts.
    """
    shift = code.domain
    cycle = y.cycle.symbols

    def closed_tuples(word):
        total = 0
        for start in shift.alphabet.symbols:
            if code.apply_symbol(start) != word[0]:
                continue
            paths = {start: 1}
            for letter in word[1:]:
                nxt = {}
                for s, c in paths.items():
                    for t in shift.successors(s):
                        if code.apply_symbol(t) == letter:
                            nxt[t] = nxt.get(t, 0) + c
                paths = nxt
            total += sum(c for t, c in paths.items() if start in shift.successors(t))
        return total

    exact = {}
    for m in range(1, max_multiple + 1):
        n_m = closed_tuples(cycle * m)
        exact[m] = n_m - sum(exact[d] for d in exact if m % d == 0)
    return sum(exact.values())


def identity_extension(code):
    """The triple (code, identity on its codomain); pi coincides with the
    code, so relative quantities become absolute ones over its codomain."""
    from sftcd.codes import identity_code

    assert code.codomain is not None
    return CodeTriple.build(code, identity_code(code.codomain))


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


def _perturbed_lift(rng, base, k, tag):
    """The copy projection onto base of a lift with k copies per symbol
    (copy i of b is named b + tag + i), or None when the lift trims a
    symbol or is reducible.  Per edge of sorted(base.allowed), the
    source copies are zipped with a shuffled list of the target copies,
    then each copy pair is added with probability 0.05."""
    copies = {b: [f"{b}{tag}{i}" for i in range(k)] for b in base.alphabet.symbols}
    symbols = [c for b in base.alphabet.symbols for c in copies[b]]
    pairs = set()
    for p, q in sorted(base.allowed):
        targets = list(copies[q])
        rng.shuffle(targets)
        pairs.update(zip(copies[p], targets))
        pairs.update((a, b) for a in copies[p] for b in copies[q] if rng.random() < 0.05)
    shift = VertexShift.build(symbols, sorted(pairs))
    if shift.alphabet.symbols != tuple(symbols) or not is_irreducible(shift):
        return None
    images = {c: b for b in copies for c in copies[b]}
    return OneBlockCode.from_dict(shift, base.alphabet, images, codomain=base)


def hard_lift_triple(seed):
    """A two-level perturbed matched lift, the hard regime's shape: Z on
    z0, z1 is a shuffled cycle plus each ordered pair with probability
    0.5 (harness._random_shift), Y lifts Z with 2 copies and X lifts Y
    with 3, and psi and phi are the copy projections.  One
    random.Random(seed) draws up to 50 tries, each from Z on; a lift
    that trims a symbol or is reducible starts the next try.  The
    documents under tests/data are made by this rule."""
    rng = random.Random(seed)
    for _ in range(50):
        Z = _random_shift(rng, ("z0", "z1"), 0.5)
        psi = _perturbed_lift(rng, Z, 2, "y")
        if psi is None:
            continue
        phi = _perturbed_lift(rng, psi.domain, 3, "x")
        if phi is not None:
            return CodeTriple.build(phi, psi)
    raise AssertionError(f"no hard lift for seed {seed} in 50 tries")


DATA = Path(__file__).resolve().parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"


def run_under_hash_seeds(snippet, seeds=("0", "1")):
    """stdout of python -c snippet, one fresh interpreter per
    PYTHONHASHSEED in seeds, with this checkout's src on the path:
    --jobs workers assume that output does not depend on the process
    that made it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    outputs = []
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, "-c", snippet],
            env=dict(env, PYTHONHASHSEED=seed),
            capture_output=True,
            check=True,
        )
        outputs.append(proc.stdout)
    return outputs
