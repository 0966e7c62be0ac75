"""JSON documents for shifts, codes, and triples.

Documents are plain dicts; dumping is canonical (sorted keys, two-space
indent) so that load followed by dump is byte-stable and goldens diff
cleanly.  A triple document names its systems and codes once and binds
them; the composite code is always recomputed on load, never trusted.
"""
from __future__ import annotations

import dataclasses
import json
from operator import methodcaller
from pathlib import Path

from .codes import CodeTriple, OneBlockCode, SlidingBlockCode, recode_to_one_block
from .core import Alphabet, Block, PeriodicPoint, VertexShift, parse_block_text
from .errors import InvariantViolation, ParseError


def read_json(path):
    """The JSON value held in a file; ParseError when the file cannot be
    read or does not hold JSON."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from None
    except ValueError as e:
        raise ParseError(f"invalid JSON in {path}: {e}") from None


def load_system(doc) -> VertexShift:
    if not isinstance(doc, dict):
        raise ParseError("system document must be an object")
    alphabet = doc.get("alphabet")
    allowed = doc.get("allowed")
    if not isinstance(alphabet, list) or not alphabet:
        raise ParseError("system document needs a nonempty alphabet list")
    if not all(isinstance(s, str) and s for s in alphabet):
        raise ParseError("alphabet symbols must be nonempty strings")
    if not isinstance(allowed, list):
        raise ParseError("system document needs an allowed pair list")
    pairs = []
    seen = set()
    for item in allowed:
        if not (isinstance(item, list) and len(item) == 2):
            raise ParseError(f"allowed entry {item!r} is not a pair")
        a, b = item
        if a not in alphabet or b not in alphabet:
            raise ParseError(f"pair {item!r} uses symbols outside the alphabet")
        if (a, b) in seen:
            raise ParseError(f"duplicate allowed pair {item!r}")
        seen.add((a, b))
        pairs.append((a, b))
    return _construct(VertexShift.build, tuple(alphabet), pairs)


def system_doc(shift) -> dict:
    return {
        "alphabet": list(shift.alphabet.symbols),
        "allowed": sorted([a, b] for a, b in shift.allowed),
    }


def _alphabet(raw, what):
    if not (isinstance(raw, list) and raw and all(isinstance(s, str) and s for s in raw)):
        raise ParseError(f"{what} must be a nonempty list of nonempty strings")
    return _construct(Alphabet, tuple(raw))


def _integer(doc, key):
    # bool is an int subclass: a JSON true must not pass as 1
    value = doc.get(key, 0)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{key} must be an integer, not {value!r}")
    return value


def _resolve_system(ref, systems, what):
    if isinstance(ref, str):
        if ref not in systems:
            raise ParseError(f"{what} references unknown system {ref!r}")
        return systems[ref]
    return load_system(ref)


def load_code(doc, systems=None):
    """A code document: either a symbol map or a sliding-block rule.  The
    domain (and optional codomain) may be inline system documents or names
    into the given system table."""
    if not isinstance(doc, dict):
        raise ParseError("code document must be an object")
    systems = systems or {}
    if "domain" not in doc:
        raise ParseError("code document lacks a domain")
    domain = _resolve_system(doc["domain"], systems, "domain")
    codomain = None
    if "codomain" in doc:
        codomain = _resolve_system(doc["codomain"], systems, "codomain")
    raw_alpha = doc.get("codomain_alphabet")
    if raw_alpha is not None:
        alpha = _alphabet(raw_alpha, "codomain_alphabet")
        if codomain is not None and codomain.alphabet != alpha:
            raise ParseError("codomain_alphabet disagrees with the codomain system")
    elif codomain is not None:
        alpha = codomain.alphabet
    else:
        raise ParseError("code document needs codomain_alphabet or codomain")
    if "rule" in doc:
        if not isinstance(doc["rule"], dict):
            raise ParseError("code rule must be an object")
        _strings(doc["rule"].values(), "code rule outputs")
        rule = {}
        for wtext, out in doc["rule"].items():
            window = parse_block_text(domain.alphabet, wtext)
            if window.symbols in rule:
                raise ParseError(f"duplicate rule window {wtext!r}")
            rule[window.symbols] = out
        return _construct(
            SlidingBlockCode.from_dict,
            domain,
            alpha,
            _integer(doc, "memory"),
            _integer(doc, "anticipation"),
            rule,
            codomain,
        )
    if "map" not in doc:
        raise ParseError("code document needs a map or a rule")
    if not isinstance(doc["map"], dict):
        raise ParseError("code map must be an object")
    _strings(doc["map"].values(), "code map images")
    return _construct(OneBlockCode.from_dict, domain, alpha, dict(doc["map"]), codomain)


def _strings(values, what):
    if not all(isinstance(v, str) for v in values):
        raise ParseError(f"{what} must be strings")


def _construct(build, *args):
    """A system, alphabet or code from its constructor; the invariants it
    checks (distinct, well-formed symbols, a symbol surviving the trim, a
    total rule or map, memory >= 0, edge compatibility) are errors of the
    document, so they come out as ParseError with the same message."""
    try:
        return build(*args)
    except InvariantViolation as e:
        raise ParseError(str(e)) from None


def code_doc(code) -> dict:
    doc = {
        "domain": system_doc(code.domain),
        "codomain_alphabet": list(code.codomain_alphabet.symbols),
    }
    if code.codomain is not None:
        doc["codomain"] = system_doc(code.codomain)
    if isinstance(code, SlidingBlockCode):
        doc["memory"] = code.memory
        doc["anticipation"] = code.anticipation
        doc["rule"] = {Block(w).text(): out for w, out in code.rule}
    else:
        doc["map"] = {
            s: code.apply_symbol(s) for s in code.domain.alphabet.symbols
        }
    return doc


@dataclasses.dataclass(frozen=True, slots=True)
class LoadedTriple:
    triple: CodeTriple
    warnings: tuple
    recoded: dict  # code name -> RecodedCode for sliding inputs


def load_triple_doc(doc) -> LoadedTriple:
    if not isinstance(doc, dict):
        raise ParseError("triple document must be an object")

    def table(key):
        value = doc.get(key, {})
        if not isinstance(value, dict):
            raise ParseError(f"triple document's {key} must be an object")
        return value

    systems = {name: load_system(d) for name, d in sorted(table("systems").items())}
    codes_raw = table("codes")
    binding = table("triple")
    warnings = []
    recoded = {}

    def raw_code(key):
        ref = binding.get(key, key)
        if isinstance(ref, str):
            if ref not in codes_raw:
                raise ParseError(f"triple binding lacks code {ref!r}")
            return codes_raw[ref]
        return ref

    phi = load_code(raw_code("phi"), systems)
    if isinstance(phi, SlidingBlockCode):
        rc = recode_to_one_block(phi)
        recoded["phi"] = rc
        phi = rc.code
        warnings.append(
            "phi was a sliding-block rule; recoded onto its window shift"
        )
    psi = load_code(raw_code("psi"), systems)
    if isinstance(psi, SlidingBlockCode):
        raise ParseError(
            "psi must be letter-to-letter; recode it against Y beforehand"
        )
    if phi.codomain is None:
        if "Y" not in binding:
            raise ParseError("phi carries no codomain shift and no Y is bound")
        phi = _construct(
            OneBlockCode,
            phi.domain,
            phi.codomain_alphabet,
            phi.mapping,
            _resolve_system(binding["Y"], systems, "Y"),
        )
    if "X" in binding:
        declared = _resolve_system(binding["X"], systems, "X")
        if "phi" in recoded:
            warnings.append("X re-presented on the window shift of phi's domain")
        elif declared != phi.domain:
            raise ParseError("bound X does not match phi's domain")
    if "Y" in binding:
        declared = _resolve_system(binding["Y"], systems, "Y")
        if declared != phi.codomain:
            raise ParseError("bound Y does not match phi's codomain")
    if "Z_alphabet" in binding:
        if _alphabet(binding["Z_alphabet"], "Z_alphabet") != psi.codomain_alphabet:
            raise ParseError("bound Z_alphabet does not match psi's codomain alphabet")
    triple = CodeTriple.build(phi, psi)
    if "pi" in codes_raw:
        if "phi" in recoded:
            warnings.append("declared pi ignored: phi was recoded")
        elif _code_key(load_code(codes_raw["pi"], systems)) != _code_key(triple.pi):
            warnings.append("declared pi disagreed with psi after phi; recomputed")
        else:
            warnings.append("declared pi recomputed (matched)")
    return LoadedTriple(triple, tuple(warnings), recoded)


def _code_key(code):
    """Domain shift, codomain alphabet and images; a rule has no images."""
    return code.domain, code.codomain_alphabet, getattr(code, "mapping", None)


def load_triple(path) -> LoadedTriple:
    return load_triple_doc(read_json(path))


def triple_doc(triple) -> dict:
    systems = {"X": system_doc(triple.X), "Y": system_doc(triple.Y)}
    psi_doc = {
        "domain": "Y",
        "map": {s: triple.psi.apply_symbol(s) for s in triple.Y.alphabet.symbols},
    }
    if triple.Z_shift is not None:
        systems["Z"] = system_doc(triple.Z_shift)
        psi_doc["codomain"] = "Z"
    else:
        psi_doc["codomain_alphabet"] = list(triple.Z_alphabet.symbols)
    codes = {
        "phi": {
            "domain": "X",
            "codomain": "Y",
            "map": {
                s: triple.phi.apply_symbol(s) for s in triple.X.alphabet.symbols
            },
        },
        "psi": psi_doc,
    }
    return {
        "systems": systems,
        "codes": codes,
        "triple": {
            "X": "X",
            "Y": "Y",
            "Z_alphabet": list(triple.Z_alphabet.symbols),
            "phi": "phi",
            "psi": "psi",
        },
    }


def _items(x):
    return [to_jsonable(v) for v in x]


def _sorted_items(x):
    return sorted(_items(x), key=repr)


_PROJECTIONS = {
    **dict.fromkeys((type(None), bool, int, float, str), lambda x: x),
    dict: lambda x: {str(k): to_jsonable(v) for k, v in x.items()},
    list: _items,
    tuple: _items,
    set: _sorted_items,
    frozenset: _sorted_items,
    Block: methodcaller("text"),
    PeriodicPoint: methodcaller("text"),
    Alphabet: lambda x: list(x.symbols),
    VertexShift: system_doc,
    CodeTriple: triple_doc,
    OneBlockCode: code_doc,
    SlidingBlockCode: code_doc,
}
_RESOLVED = dict(_PROJECTIONS)  # exact type -> projection, filled on first use


def _resolve(kind):
    # the walk reads the static table only: a subclass of a cached
    # dataclass must project its own fields, not its base's
    for base in kind.__mro__:
        if base in _PROJECTIONS:
            return _PROJECTIONS[base]
    if dataclasses.is_dataclass(kind):
        names = tuple(f.name for f in dataclasses.fields(kind))
        return lambda x: {name: to_jsonable(getattr(x, name)) for name in names}
    raise ParseError(f"cannot serialise {kind.__name__}")


def to_jsonable(x):
    """Lossy one-way projection of result objects onto JSON values.

    Every value goes through one table keyed by its exact type.  A type
    not listed is resolved once, then kept: it projects as the nearest
    listed class in its MRO, else (a dataclass) as a dict of its own
    fields, else it raises ParseError and nothing is kept."""
    kind = type(x)
    project = _RESOLVED.get(kind)
    if project is None:
        project = _RESOLVED[kind] = _resolve(kind)
    return project(x)


def canonical_json(obj) -> str:
    return json.dumps(to_jsonable(obj), indent=2, sort_keys=True) + "\n"


def dot_graph(shift, code=None, name="shift") -> str:
    """GraphViz text for a vertex shift; node labels show the code's
    symbol images when one is given."""
    lines = [f'digraph "{name}" {{']
    for s in shift.alphabet.symbols:
        if code is not None:
            lines.append(f'  "{s}" [label="{s}/{code.apply_symbol(s)}"];')
        else:
            lines.append(f'  "{s}";')
    for a, b in sorted(shift.allowed):
        lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
