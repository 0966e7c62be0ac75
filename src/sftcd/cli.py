"""Command-line front end.

Machine-readable JSON goes to standard output, human notes to standard
error.  Exit status: 0 success, 1 a check failed or a runtime limit was
hit, 2 usage or input errors.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from collections import Counter
from pathlib import Path

from .bridge import bounded_bridge_exists, fixed_point_class_oracle
from .codes import recode_to_one_block, SlidingBlockCode
from .core import parse_block_text, parse_point_text
from .depth import class_degree, depth, relative_class_degree, relative_depth
from .documents import (
    canonical_json,
    dot_graph,
    load_code,
    load_system,
    load_triple,
    read_json,
    to_jsonable,
)
from .errors import (
    AlphabetMismatch,
    EmptyFiber,
    ImageMismatch,
    InvalidBlock,
    NoFixedPoint,
    ParseError,
    PreconditionUnmet,
    SftcdError,
    UnknownSymbol,
)
from .fiber import find_magic_block
from .harness import (
    CheckResult,
    HarnessCase,
    TheoremReport,
    TripleGenSpec,
    generate_triple,
    map_cases,
    run_case,
    spec_for_seed,
)

_USAGE_ERRORS = (
    ParseError,
    InvalidBlock,
    UnknownSymbol,
    AlphabetMismatch,
    PreconditionUnmet,
    EmptyFiber,
    NoFixedPoint,
    ImageMismatch,
)


def _emit(payload):
    print(json.dumps(to_jsonable(payload), indent=2, sort_keys=True))


def _note(text):
    print(text, file=sys.stderr)


def _triple_from_arg(value):
    if value.startswith("builtin:"):
        from .corpus import builtin_triple

        return builtin_triple(value.split(":", 1)[1])
    loaded = load_triple(value)
    for w in loaded.warnings:
        _note(f"warning: {w}")
    return loaded.triple


def _code_from_arg(value):
    """A code document path, or builtin:NAME[/phi|psi|pi]."""
    if value.startswith("builtin:"):
        rest = value.split(":", 1)[1]
        name, _, which = rest.partition("/")
        from .corpus import builtin_triple

        return _pick(builtin_triple(name), which or "phi")
    code = load_code(read_json(value))
    if isinstance(code, SlidingBlockCode):
        _note("warning: sliding-block code recoded onto its window shift")
        code = recode_to_one_block(code).code
    return code


def _pick(triple, which):
    if which not in ("phi", "psi", "pi"):
        raise ParseError(f"unknown code {which!r}: choose phi, psi or pi")
    return getattr(triple, which)


def _emit_depth(r):
    cert = r.certificate
    _emit(
        {
            "block": r.w,
            "value": r.value,
            "coordinate": cert.n,
            "routing_set": list(cert.M),
            "mode": cert.mode,
        }
    )


def cmd_depth(args):
    t = _triple_from_arg(args.triple)
    code = _pick(t, args.code)
    r = depth(code, parse_block_text(code.codomain_alphabet, args.block))
    _emit_depth(r)
    _note(f"depth {r.value} through {list(r.certificate.M)} at {r.certificate.n}")
    return 0


def cmd_rdepth(args):
    t = _triple_from_arg(args.triple)
    r = relative_depth(t, parse_block_text(t.Y.alphabet, args.block))
    _emit_depth(r)
    _note(f"relative depth {r.value} at {r.certificate.n}")
    return 0


def _emit_estimate(est):
    _emit(
        {
            "value": est.value,
            "block": est.minimal_block,
            "scanned_length": est.scanned_length,
            "certified": est.certified,
        }
    )


def cmd_class_degree(args):
    t = _triple_from_arg(args.triple)
    est = class_degree(_pick(t, args.code))
    _emit_estimate(est)
    _note(f"class degree {est.value} (certified)")
    return 0


def cmd_relative(args):
    t = _triple_from_arg(args.triple)
    est = relative_class_degree(t)
    _emit_estimate(est)
    _note(f"relative class degree {est.value} (certified)")
    return 0


def cmd_magic(args):
    if args.code is not None:
        if args.which is not None:
            raise ParseError("--which picks a code of --triple, not of --code")
        code = _code_from_arg(args.code)
    else:
        code = _pick(_triple_from_arg(args.triple), args.which or "phi")
    res = find_magic_block(code)
    _emit(res)
    _note(f"preimage symbol count {res.value} at coordinate {res.coordinate}")
    return 0


def cmd_bridge(args):
    if args.window is not None and args.window < 1:
        raise ParseError("--window must be positive")
    code = _code_from_arg(args.code)
    x = parse_point_text(code.domain.alphabet, args.src)
    xp = parse_point_text(code.domain.alphabet, args.dst)
    search = bounded_bridge_exists(code, x, xp, args.m, args.window)
    _emit(search)
    _note("bridge found" if search.found else search.note)
    return 0 if search.found else 1


def cmd_classes_fixed(args):
    code = _code_from_arg(args.code)
    res = fixed_point_class_oracle(code, args.z)
    _emit(res)
    _note(f"{res.count} class(es); {res.caveat}")
    return 0


def cmd_generate(args):
    spec = TripleGenSpec(
        seed=args.seed,
        y_symbols=args.y_symbols,
        blowup_min=args.blowup_min,
        blowup_max=args.blowup_max,
        z_symbols=args.z_symbols,
        edge_density=args.density,
    )
    print(canonical_json(generate_triple(spec)), end="")
    return 0


def cmd_dump(args):
    if args.triple is not None:
        t = _triple_from_arg(args.triple)
        if args.format == "dot":
            print(dot_graph(t.X, t.phi, "X"), end="")
            print(dot_graph(t.Y, t.psi, "Y"), end="")
        else:
            print(canonical_json(t), end="")
        return 0
    shift = load_system(read_json(args.system))
    if args.format == "dot":
        print(dot_graph(shift, None, "shift"), end="")
    else:
        print(canonical_json(shift), end="")
    return 0


def _parse_seed_range(text):
    lo, _, hi = text.partition("..")
    try:
        a, b = int(lo), int(hi or lo)
    except ValueError:
        raise ParseError(f"bad seed range {text!r}") from None
    if b < a:
        raise ParseError(f"bad seed range {text!r}")
    return range(a, b + 1)


def _verify_cases(args):
    cases = []
    if args.corpus:
        if args.corpus == "builtin":
            from .corpus import builtin_cases

            cases.extend(builtin_cases())
        else:
            root = Path(args.corpus)
            if not root.is_dir():
                raise ParseError(f"{args.corpus} is not a directory")
            for path in sorted(root.glob("*.json")):
                cases.append(
                    HarnessCase(
                        case_id=f"file:{path.name}",
                        kind="file",
                        name=str(path),
                        checks=("main", "special"),
                    )
                )
    if args.gen:
        spec_doc = read_json(args.gen)
        if not isinstance(spec_doc, list):
            raise ParseError("generator spec file must hold a list of specs")
        for entry in spec_doc:
            try:
                gen = TripleGenSpec(**entry)
            except TypeError as e:
                raise ParseError(f"bad generator spec {entry!r}: {e}") from None
            cases.append(
                HarnessCase(
                    case_id=f"gen:{gen.seed}",
                    kind="generated",
                    gen=gen,
                    checks=("main", "special", "chain"),
                    chain_seed=gen.seed,
                )
            )
    if args.seeds:
        for seed in _parse_seed_range(args.seeds):
            cases.append(
                HarnessCase(
                    case_id=f"seed:{seed}",
                    kind="generated",
                    gen=spec_for_seed(seed),
                    checks=("main", "special", "chain"),
                    chain_seed=seed,
                )
            )
    if not cases:
        raise ParseError("nothing to verify: give --corpus, --gen, or --seeds")
    return cases


# Names the engine and the report schema behind a cache entry; change it
# whenever either changes, so that older entries miss.
_CACHE_VERSION = "sftcd-verify/4 prove-and-stop side closures"


def _case_key(case):
    """Cache key of a case: the engine version and the case itself."""
    text = repr((_CACHE_VERSION, case))
    return hashlib.sha256(text.encode()).hexdigest()


def _report_from_dict(d):
    checks = tuple(
        CheckResult(c["name"], c["verdict"], c.get("detail", ""))
        for c in d["checks"]
    )
    return TheoremReport(d["case_id"], d.get("values") or {}, checks)


def _cache_read(path, case):
    """The case's report documents, or None on a miss.  An entry that does
    not read back as exactly its case's reports is a miss, noted on stderr."""
    try:
        docs = json.loads(path.read_text())
        ids = [f"{case.case_id}/{kind}" for kind in case.checks]
        back = [to_jsonable(_report_from_dict(d)) for d in docs]
        if [d["case_id"] for d in back] != ids or back != docs:
            raise ValueError(f"it does not hold the reports of {case.case_id}")
        return docs
    except FileNotFoundError:
        return None
    except (OSError, ValueError, KeyError, TypeError) as e:
        _note(f"warning: ignoring unreadable cache entry {path.name}: {e}")
        return None


def _cache_write(path, docs):
    """Write an entry whole or not at all: a temp file beside it, then
    os.replace."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as out:
            out.write(json.dumps(docs, sort_keys=True))
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def _verify_case(item):
    """One case's report documents, written to its cache entry when it
    has one.  A worker runs this whole, so the parent only reads hits and
    prints."""
    case, archive, path = item
    docs = [to_jsonable(r) for r in run_case(case, archive_dir=archive)]
    if path is not None:
        _cache_write(path, docs)
    return docs


def cmd_verify(args):
    cases = _verify_cases(args)
    if args.jobs < 1:
        raise ParseError("--jobs must be positive")
    cache = os.environ.get("SFTCD_CACHE_DIR")
    if cache:
        Path(cache).mkdir(parents=True, exist_ok=True)
    paths = [
        Path(cache, _case_key(case) + ".json") if cache and case.kind != "file" else None
        for case in cases
    ]
    hits = [path and _cache_read(path, case) for case, path in zip(cases, paths)]
    work = zip(cases, paths, hits)
    misses = [(c, args.archive, p) for c, p, hit in work if hit is None]
    fresh = iter(map_cases(_verify_case, misses, args.jobs))
    docs = [doc for hit in hits for doc in (next(fresh) if hit is None else hit)]
    for doc in docs:
        print(json.dumps(doc, sort_keys=True))
    verdicts = Counter(c["verdict"] for doc in docs for c in doc["checks"])
    _note(f"{len(cases)} cases, {len(docs)} reports: {verdicts['pass']} passed, "
          f"{verdicts['fail']} failed, {verdicts['skipped']} skipped")
    return 1 if verdicts["fail"] else 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="sftcd",
        description="degrees, class degrees, and routing witnesses of "
        "letter-to-letter codes between shifts of finite type",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "--triple", required=True, help="triple document path or builtin:NAME"
        )

    p = sub.add_parser("depth", help="depth of a codomain block")
    common(p)
    p.add_argument("--block", required=True)
    p.add_argument("--code", choices=("phi", "psi", "pi"), default="pi")
    p.set_defaults(func=cmd_depth)

    p = sub.add_parser("rdepth", help="relative depth of a Y block")
    common(p)
    p.add_argument("--block", required=True)
    p.set_defaults(func=cmd_rdepth)

    p = sub.add_parser(
        "class-degree", help="exact minimum depth over all blocks of a code"
    )
    common(p)
    p.add_argument("--code", choices=("phi", "psi", "pi"), default="phi")
    p.set_defaults(func=cmd_class_degree)

    p = sub.add_parser("relative", help="relative class degree of a triple")
    common(p)
    p.set_defaults(func=cmd_relative)

    p = sub.add_parser("magic", help="minimizing block for preimage symbol counts")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--code", help="code document path or builtin:NAME[/phi|psi|pi]")
    source.add_argument("--triple", help="triple document path or builtin:NAME")
    p.add_argument(
        "--which", choices=("phi", "psi", "pi"), help="code of --triple (default: phi)"
    )
    p.set_defaults(func=cmd_magic)

    p = sub.add_parser("bridge", help="bounded bridge search between periodic points")
    p.add_argument("--code", required=True)
    p.add_argument("--from", dest="src", required=True, help='point like "(00)" or "(0·1)@1"')
    p.add_argument("--to", dest="dst", required=True)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--window", type=int, default=None)
    p.set_defaults(func=cmd_bridge)

    p = sub.add_parser("classes-fixed", help="class oracle over a fixed codomain symbol")
    p.add_argument("--code", required=True)
    p.add_argument("--z", required=True)
    p.set_defaults(func=cmd_classes_fixed)

    p = sub.add_parser("verify", help="run the property-check suite")
    p.add_argument("--corpus", help='"builtin" or a directory of triple documents')
    p.add_argument("--gen", help="JSON file with a list of generator specs")
    p.add_argument("--seeds", help='seed range "A..B" for the default sweep')
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--archive", help="directory for failed-case dumps")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("generate", help="emit a deterministic random triple")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--y-symbols", type=int, default=2)
    p.add_argument("--blowup-min", type=int, default=1)
    p.add_argument("--blowup-max", type=int, default=2)
    p.add_argument("--z-symbols", type=int, default=1)
    p.add_argument("--density", type=float, default=0.5)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("dump", help="canonical JSON or DOT for documents")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--triple", help="triple document path or builtin:NAME")
    source.add_argument("--system", help="system document path")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.set_defaults(func=cmd_dump)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        return args.func(args)
    except _USAGE_ERRORS as e:
        _note(f"error: {e}")
        return 2
    except SftcdError as e:
        _note(f"error: {e}")
        return 1


def entry():
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
