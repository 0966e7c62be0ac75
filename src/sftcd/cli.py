"""Command-line front end.

Machine-readable JSON goes to standard output, human notes to standard
error.  Exit status: 0 success, 1 a check failed or a runtime limit was
hit, 2 usage or input errors.
"""
from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from dataclasses import MISSING, fields
from functools import partial
from pathlib import Path

from .bridge import bounded_bridge_exists, fixed_point_class_oracle
from .codes import recode_to_one_block, SlidingBlockCode
from .core import is_point_of, parse_block_text, parse_point_text
from .corpus import builtin_triple
from .depth import class_degree, depth, relative_class_degree, relative_depth
from .documents import (
    canonical_json,
    dot_graph,
    load_code,
    load_system,
    load_triple,
    read_json,
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
    HarnessCase,
    TripleGenSpec,
    builtin_cases,
    generate_triple,
    map_cases,
    report_lines,
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
    print(canonical_json(payload), end="")


def _note(text):
    print(text, file=sys.stderr)


def _triple_from_arg(value):
    if value.startswith("builtin:"):
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
    for text, point in ((args.src, x), (args.dst, xp)):
        if not is_point_of(code.domain, point):
            raise PreconditionUnmet(f"{text} is not a point of the domain")
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
    _emit(generate_triple(spec))
    return 0


def cmd_dump(args):
    if args.triple is not None:
        t = _triple_from_arg(args.triple)
        if args.format == "dot":
            print(dot_graph(t.X, t.phi, "X"), end="")
            print(dot_graph(t.Y, t.psi, "Y"), end="")
        else:
            _emit(t)
        return 0
    shift = load_system(read_json(args.system))
    if args.format == "dot":
        print(dot_graph(shift, None, "shift"), end="")
    else:
        _emit(shift)
    return 0


def _parse_seed_range(text):
    lo, dots, hi = text.partition("..")
    try:
        a, b = int(lo), int(hi if dots else lo)
    except ValueError:
        raise ParseError(f"bad seed range {text!r}") from None
    if b < a:
        raise ParseError(f"bad seed range {text!r}")
    return range(a, b + 1)


def _gen_spec(entry):
    """The TripleGenSpec of one --gen entry; ParseError naming what is
    wrong with an entry that is no object, or has an unknown field or
    lacks a required one."""
    if not isinstance(entry, dict):
        raise ParseError(f"bad generator spec {entry!r}: not an object")
    spec_fields = fields(TripleGenSpec)
    unknown = sorted(set(entry).difference(f.name for f in spec_fields))
    missing = [f.name for f in spec_fields if f.default is MISSING and f.name not in entry]
    for problem, names in (("unknown", unknown), ("missing", missing)):
        if names:
            raise ParseError(f"bad generator spec {entry!r}: {problem} field {names[0]!r}")
    return TripleGenSpec(**entry)


def _verify_cases(args):
    cases = []
    if args.corpus:
        if args.corpus == "builtin":
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
    generated = []
    if args.gen:
        spec_doc = read_json(args.gen)
        if not isinstance(spec_doc, list):
            raise ParseError("generator spec file must hold a list of specs")
        generated += [("gen", _gen_spec(entry)) for entry in spec_doc]
    if args.seeds:
        generated += [("seed", spec_for_seed(s)) for s in _parse_seed_range(args.seeds)]
    for prefix, spec in generated:
        cases.append(
            HarnessCase(
                case_id=f"{prefix}:{spec.seed}",
                kind="generated",
                gen=spec,
                checks=("main", "special", "chain"),
                chain_seed=spec.seed,
            )
        )
    if not cases:
        raise ParseError("nothing to verify: give --corpus, --gen, or --seeds")
    return cases


def cmd_verify(args):
    """Print one JSON line per report, in case order, and tally the checks
    on stderr; exit 1 when any check failed.  At every --jobs the cases go
    through harness.map_cases as report_lines, so whichever process ran
    a case also serialised its reports (and archived its failures), and
    this process only prints the finished lines and counts verdicts."""
    cases = _verify_cases(args)
    if args.jobs < 1:
        raise ParseError("--jobs must be positive")
    tally = Counter()
    reports = 0
    for lines in map_cases(
        partial(report_lines, archive_dir=args.archive), cases, args.jobs
    ):
        for verdicts, line in lines:
            print(line)
            tally.update(verdicts)
            reports += 1
    _note(f"{len(cases)} cases, {reports} reports: "
          f"{tally['pass']} passed, {tally['fail']} failed, "
          f"{tally['skipped']} skipped")
    return 1 if tally["fail"] else 0


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
    try:
        code = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (| head): point stdout at devnull,
        # so the flush at interpreter exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
