"""Document parsing, canonical dumps, and the command-line surface."""

import hashlib
import json
import multiprocessing
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import DATA, SRC, hard_lift_triple, run_under_hash_seeds
from sftcd.cli import main
from sftcd.codes import SlidingBlockCode
from sftcd.core import SEPARATOR, Block, PeriodicPoint, parse_block_text
from sftcd.documents import (
    canonical_json,
    dot_graph,
    load_code,
    load_system,
    load_triple,
    load_triple_doc,
    system_doc,
    to_jsonable,
    triple_doc,
)
from sftcd.errors import InvariantViolation, ParseError
from sftcd.fiber import StabilizationInfo


def full_shift_doc(symbols):
    return {"alphabet": list(symbols), "allowed": [[a, b] for a in symbols for b in symbols]}


FULL2 = full_shift_doc("01")
FULLZ = full_shift_doc("z")


def xor_doc(x="01", y="01"):
    """Two-letter parity triple with phi written as a width-two rule on
    the full shift on x, onto the full shift on y."""
    rule = {
        Block((a, b)).text(): y[(i + j) % 2]
        for i, a in enumerate(x)
        for j, b in enumerate(x)
    }
    return {
        "systems": {"Y": full_shift_doc(y), "Z": FULLZ},
        "codes": {
            "phi": {
                "domain": full_shift_doc(x),
                "codomain": "Y",
                "memory": 0,
                "anticipation": 1,
                "rule": rule,
            },
            "psi": {"domain": "Y", "codomain": "Z", "map": {s: "z" for s in y}},
        },
        "triple": {"phi": "phi", "psi": "psi"},
    }


def collapse_doc():
    # phi hits only 0, so the triple must be refused as not onto
    a2 = {
        "alphabet": ["a", "b"],
        "allowed": [["a", "a"], ["a", "b"], ["b", "a"], ["b", "b"]],
    }
    return {
        "systems": {"Y": FULL2},
        "codes": {
            "phi": {"domain": a2, "codomain": "Y", "map": {"a": "0", "b": "0"}},
            "psi": {
                "domain": "Y",
                "codomain_alphabet": ["z"],
                "map": {"0": "z", "1": "z"},
            },
        },
        "triple": {"phi": "phi", "psi": "psi"},
    }


def malformed_system_docs():
    """(system document, error pattern) pairs the shift and alphabet
    constructors reject."""
    return [
        ({"alphabet": ["a", "a"], "allowed": [["a", "a"]]}, "duplicate symbols"),
        ({"alphabet": ["a·b"], "allowed": [["a·b", "a·b"]]}, "bad symbol"),
        ({"alphabet": ["a", "b"], "allowed": []}, "every symbol was trimmed away"),
    ]


def malformed_code_docs():
    """(code document, error pattern) pairs of wrongly typed fields, of
    malformed systems and alphabets, and of rules or maps the code
    constructors reject."""
    rule = xor_doc()["codes"]["phi"]
    sliding = {**rule, "codomain": FULL2}
    partial_rule = {k: v for k, v in rule["rule"].items() if k != "11"}
    one_block = {"domain": FULL2, "codomain_alphabet": ["0", "1"]}
    golden = {"alphabet": ["0", "1"], "allowed": [["0", "0"], ["0", "1"], ["1", "0"]]}
    return [
        ({**rule, "codomain": FULL2, "memory": "x"}, "memory must be an integer"),
        # a float, a JSON true or a numeral string is not an integer
        ({**sliding, "memory": 0.7, "anticipation": True}, "memory must be an integer"),
        ({**sliding, "memory": 0, "anticipation": True}, "anticipation must be an integer"),
        ({**sliding, "memory": "3"}, "memory must be an integer"),
        ({**rule, "codomain": FULL2, "rule": [1, 2]}, "rule must be an object"),
        (
            {"domain": FULL2, "codomain_alphabet": 5, "map": {"0": "0", "1": "1"}},
            "codomain_alphabet must be a nonempty list",
        ),
        ({**sliding, "memory": -1}, "memory and anticipation must be >= 0"),
        ({**sliding, "rule": partial_rule}, "rule not total"),
        (
            {**sliding, "rule": {**rule["rule"], "11": ["0"]}},
            "rule outputs must be strings",
        ),
        ({**one_block, "map": {"0": "0"}}, "mapping not total"),
        ({**one_block, "map": {"0": "0", "1": 1}}, "map images must be strings"),
        (
            {**one_block, "codomain": golden, "map": {"0": "1", "1": "1"}},
            "not edge-compatible",
        ),
        (
            {"domain": FULL2, "codomain_alphabet": ["a", "a"], "map": {"0": "a", "1": "a"}},
            "duplicate symbols",
        ),
    ] + [
        ({"domain": system, "codomain_alphabet": ["z"], "map": {}}, match)
        for system, match in malformed_system_docs()
    ]


class TestSystemDocs:
    def test_round_trip(self, xor2):
        doc = system_doc(xor2.X)
        assert load_system(doc) == xor2.X

    def test_parse_errors(self):
        with pytest.raises(ParseError, match="must be an object"):
            load_system([1, 2])
        with pytest.raises(ParseError, match="nonempty alphabet"):
            load_system({"alphabet": [], "allowed": []})
        with pytest.raises(ParseError, match="allowed pair list"):
            load_system({"alphabet": ["a"], "allowed": "aa"})
        with pytest.raises(ParseError, match="not a pair"):
            load_system({"alphabet": ["a"], "allowed": [["a", "a", "a"]]})
        with pytest.raises(ParseError, match="outside the alphabet"):
            load_system({"alphabet": ["a"], "allowed": [["a", "b"]]})
        with pytest.raises(ParseError, match="duplicate"):
            load_system({"alphabet": ["a"], "allowed": [["a", "a"], ["a", "a"]]})
        for doc, match in malformed_system_docs():
            with pytest.raises(ParseError, match=match):
                load_system(doc)


class TestCodeDocs:
    def test_one_block_round_trip(self, xor2):
        from sftcd.documents import code_doc

        code = load_code(code_doc(xor2.phi))
        assert code.mapping == xor2.phi.mapping
        assert code.codomain == xor2.phi.codomain

    def test_sliding_rule_loads(self):
        doc = xor_doc()["codes"]["phi"]
        doc["codomain"] = FULL2
        code = load_code(doc)
        assert isinstance(code, SlidingBlockCode)
        w = parse_block_text(code.domain.alphabet, "0011")
        images = [
            code.apply_window(w.symbols[i : i + code.width])
            for i in range(len(w.symbols) - code.width + 1)
        ]
        assert images == ["0", "1", "0"]

    def test_sliding_code_round_trip(self):
        # code_doc writes a sliding code's memory, anticipation and rule,
        # with two-character symbols joined by the separator; its
        # canonical JSON loads back to an equal code
        from sftcd.codes import SlidingBlockCode
        from sftcd.core import VertexShift
        from sftcd.documents import code_doc

        x, y = ("a0", "a1"), ("p", "q")
        domain, codomain = VertexShift.full_shift(x), VertexShift.full_shift(y)
        rule = {(a, b): y[(i + j) % 2] for i, a in enumerate(x) for j, b in enumerate(x)}
        code = SlidingBlockCode.from_dict(domain, y, 0, 1, rule, codomain)
        doc = json.loads(canonical_json(code_doc(code)))
        assert (doc["memory"], doc["anticipation"]) == (0, 1)
        assert doc["rule"][Block(("a0", "a1")).text()] == "q"
        assert "map" not in doc
        assert load_code(doc) == code

    def test_parse_errors(self):
        with pytest.raises(ParseError, match="lacks a domain"):
            load_code({"map": {}})
        with pytest.raises(ParseError, match="unknown system"):
            load_code({"domain": "nope", "map": {}}, {})
        with pytest.raises(ParseError, match="codomain_alphabet or codomain"):
            load_code({"domain": FULL2, "map": {"0": "0", "1": "1"}})
        with pytest.raises(ParseError, match="disagrees"):
            load_code(
                {
                    "domain": FULL2,
                    "codomain": FULL2,
                    "codomain_alphabet": ["z"],
                    "map": {"0": "0", "1": "1"},
                }
            )
        with pytest.raises(ParseError, match="map or a rule"):
            load_code({"domain": FULL2, "codomain_alphabet": ["z"]})
        with pytest.raises(ParseError, match="must be an object"):
            load_code({"domain": FULL2, "codomain_alphabet": ["z"], "map": ["z"]})
        with pytest.raises(ParseError, match="duplicate rule window"):
            load_code(
                {
                    "domain": FULL2,
                    "codomain_alphabet": ["z"],
                    "rule": {"01": "z", "0·1": "z"},
                }
            )
        for doc, match in malformed_code_docs():
            with pytest.raises(ParseError, match=match):
                load_code(doc)


class TestTripleDocs:
    def test_round_trip_byte_stable(self, xor2):
        d1 = canonical_json(xor2)
        d2 = canonical_json(load_triple_doc(json.loads(d1)).triple)
        assert d1 == d2

    def test_psi_without_a_codomain_shift_round_trips(self, golden_identity):
        # psi onto the alphabet ("z",) with no Z shift attached: the
        # document names psi's codomain alphabet and declares no Z
        from sftcd.codes import CodeTriple, OneBlockCode

        phi = golden_identity.phi
        psi = OneBlockCode.from_dict(phi.codomain, ("z",), {s: "z" for s in "01"})
        triple = CodeTriple.build(phi, psi)
        assert triple.Z_shift is None
        doc = triple_doc(triple)
        assert doc["codes"]["psi"]["codomain_alphabet"] == ["z"]
        assert "codomain" not in doc["codes"]["psi"] and "Z" not in doc["systems"]
        loaded = load_triple_doc(json.loads(canonical_json(doc)))
        assert loaded.triple == triple
        assert loaded.triple.Z_shift is None

    def test_sliding_phi_recoded_onto_window_shift(self, xor2):
        loaded = load_triple_doc(xor_doc())
        assert any("recoded" in w for w in loaded.warnings)
        assert "phi" in loaded.recoded
        # the window presentation is exactly the builtin pair-symbol triple
        assert canonical_json(loaded.triple) == canonical_json(xor2)

    def test_bound_x_noted_when_phi_recoded(self):
        doc = xor_doc()
        doc["triple"]["X"] = FULL2
        loaded = load_triple_doc(doc)
        assert any("re-presented" in w for w in loaded.warnings)

    def test_declared_pi_matched(self, xor2):
        doc = triple_doc(xor2)
        doc["codes"]["pi"] = {
            "domain": "X",
            "codomain_alphabet": ["z"],
            "map": {s: "z" for s in xor2.X.alphabet.symbols},
        }
        loaded = load_triple_doc(doc)
        assert any("matched" in w for w in loaded.warnings)

    def test_declared_pi_disagreeing_is_recomputed(self, xor2):
        doc = triple_doc(xor2)
        wrong = {s: "z" for s in xor2.X.alphabet.symbols}
        wrong["00"] = "w"
        doc["codes"]["pi"] = {
            "domain": "X",
            "codomain_alphabet": ["w", "z"],
            "map": wrong,
        }
        loaded = load_triple_doc(doc)
        assert any("disagreed" in w for w in loaded.warnings)
        assert loaded.triple.pi.apply_symbol("00") == "z"

    def test_hard_lift_documents_are_made_by_their_rule(self):
        # tests/data/README.md states the rule, conftest.hard_lift_triple
        # runs it, and each document loads back to its own bytes
        pins = {
            2: "b055de2de8f6109cb4de6e7792c381e6942273d81c5c83b94b2e2a9e469dc9eb",
            6: "5f2955f154a3fee0cca9d39471ebd68c321636d188462559aabf6bf56863328a",
            25: "bff773fc14090f763b81fecaa6f3a7d9abe7d91a9dcd6106e5fb155c76fba5c5",
        }
        for seed, digest in pins.items():
            text = (DATA / f"hard-lift-seed{seed}.json").read_text()
            assert hashlib.sha256(text.encode()).hexdigest() == digest
            assert canonical_json(triple_doc(hard_lift_triple(seed))) == text
            assert canonical_json(load_triple_doc(json.loads(text)).triple) == text

    def test_declared_pi_matches_by_its_whole_code(self, xor2):
        # each of these has pi's images, one symbol sent to z per symbol
        # of X, but is another code: on the 4-cycle q0 -> q1 -> q2 -> q3
        # -> q0, onto the alphabet (w, z), or a sliding rule on X
        doc = triple_doc(xor2)
        cycle = ["q0", "q1", "q2", "q3"]
        shifted = {
            "alphabet": cycle,
            "allowed": [[a, b] for a, b in zip(cycle, cycle[1:] + cycle[:1])],
        }
        x_to_z = {s: "z" for s in xor2.X.alphabet.symbols}
        for pi in (
            {"domain": shifted, "codomain_alphabet": ["z"], "map": dict.fromkeys(cycle, "z")},
            {"domain": "X", "codomain_alphabet": ["w", "z"], "map": x_to_z},
            {"domain": "X", "codomain_alphabet": ["z"], "memory": 0, "rule": x_to_z},
        ):
            doc["codes"]["pi"] = pi
            loaded = load_triple_doc(doc)
            assert loaded.warnings == ("declared pi disagreed with psi after phi; recomputed",)
            assert canonical_json(loaded.triple) == canonical_json(xor2)

    def test_declared_pi_ignored_after_recode(self):
        doc = xor_doc()
        doc["codes"]["pi"] = {
            "domain": FULL2,
            "codomain_alphabet": ["z"],
            "map": {"0": "z", "1": "z"},
        }
        loaded = load_triple_doc(doc)
        assert any("ignored" in w for w in loaded.warnings)

    def test_sliding_psi_rejected(self):
        doc = xor_doc()
        doc["codes"]["psi"] = {
            "domain": "Y",
            "codomain_alphabet": ["z"],
            "memory": 0,
            "anticipation": 1,
            "rule": {"00": "z", "01": "z", "10": "z", "11": "z"},
        }
        with pytest.raises(ParseError, match="letter-to-letter"):
            load_triple_doc(doc)

    def test_bound_declarations_must_match(self, xor2):
        golden = {"alphabet": ["0", "1"], "allowed": [["0", "0"], ["0", "1"], ["1", "0"]]}
        doc = triple_doc(xor2)
        doc["triple"]["X"] = golden
        with pytest.raises(ParseError, match="bound X"):
            load_triple_doc(doc)
        doc = triple_doc(xor2)
        doc["triple"]["Y"] = golden
        with pytest.raises(ParseError, match="bound Y"):
            load_triple_doc(doc)
        doc = triple_doc(xor2)
        doc["triple"]["Z_alphabet"] = ["w"]
        with pytest.raises(ParseError, match="Z_alphabet"):
            load_triple_doc(doc)

    def test_phi_without_codomain_needs_bound_y(self):
        doc = {
            "systems": {},
            "codes": {
                "phi": {
                    "domain": FULL2,
                    "codomain_alphabet": ["0", "1"],
                    "map": {"0": "0", "1": "1"},
                },
                "psi": {
                    "domain": FULL2,
                    "codomain_alphabet": ["z"],
                    "map": {"0": "z", "1": "z"},
                },
            },
            "triple": {"phi": "phi", "psi": "psi"},
        }
        with pytest.raises(ParseError, match="no Y is bound"):
            load_triple_doc(doc)
        doc["triple"]["Y"] = FULL2
        loaded = load_triple_doc(doc)
        assert loaded.triple.Y.alphabet.symbols == ("0", "1")

    def test_non_onto_phi_rejected(self):
        with pytest.raises(InvariantViolation, match="onto"):
            load_triple_doc(collapse_doc())

    def test_missing_code_reference(self):
        doc = xor_doc()
        doc["triple"]["phi"] = "nope"
        with pytest.raises(ParseError, match="lacks code"):
            load_triple_doc(doc)

    def test_codes_given_inline_in_the_binding(self, xor2):
        # the binding may hold a code itself in place of its name
        doc = triple_doc(xor2)
        for key in ("phi", "psi"):
            doc["triple"][key] = doc["codes"].pop(key)
        assert doc["codes"] == {}
        assert load_triple_doc(json.loads(canonical_json(doc))).triple == xor2

    def test_file_errors(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read"):
            load_triple(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ParseError, match="invalid JSON"):
            load_triple(bad)


class TestJsonable:
    def test_projections(self, xor2):
        w = parse_block_text(xor2.X.alphabet, "00·01")
        assert to_jsonable(w) == "00·01"
        assert to_jsonable(frozenset({"b", "a"})) == ["a", "b"]
        assert to_jsonable(StabilizationInfo(4, True)) == {
            "scanned_length": 4,
            "certified": True,
        }
        assert to_jsonable({1: (2, 3)}) == {"1": [2, 3]}
        with pytest.raises(ParseError, match="cannot serialise"):
            to_jsonable(object())
        # a dataclass type is not a result: it has no field values
        with pytest.raises(ParseError, match="cannot serialise type"):
            to_jsonable(StabilizationInfo)

    def test_exact_types_and_subclasses_agree(self, xor2):
        # one table keyed by exact type: a subclass projects as its
        # nearest listed base, a dataclass as its own fields, and a
        # type's second value reads the projection kept for it
        from dataclasses import dataclass

        from sftcd.harness import CheckResult, TheoremReport

        class Tagged(dict):
            pass

        class Marked(Block):
            pass

        @dataclass(frozen=True)
        class Wider(StabilizationInfo):
            extra: tuple = ()

        blocks = frozenset(
            parse_block_text(xor2.X.alphabet, t) for t in ("11", "00·01", "10")
        )
        point = PeriodicPoint.make(Block(("0", "1")), 1)
        report = TheoremReport(
            "c", {"x": StabilizationInfo(3, True)}, (CheckResult("n", "pass"),)
        )
        for _ in range(2):  # the second round reads the kept projections
            assert to_jsonable(Tagged({1: (2, None)})) == {"1": [2, None]}
            assert to_jsonable(Marked(("0", "1"))) == "01"
            assert to_jsonable(blocks) == ["00·01", "10", "11"]  # by repr
            assert to_jsonable(point) == "(01)@1"
            assert to_jsonable(report) == {
                "case_id": "c",
                "values": {"x": {"scanned_length": 3, "certified": True}},
                "checks": [{"name": "n", "verdict": "pass", "detail": ""}],
            }
            assert to_jsonable(Wider(2, False, (point,))) == {
                "scanned_length": 2,
                "certified": False,
                "extra": ["(01)@1"],
            }
            assert to_jsonable([True, 1.5, {"k": {point}}]) == [
                True, 1.5, {"k": ["(01)@1"]}
            ]

    def test_canonical_json_shape(self, xor2):
        text = canonical_json(xor2)
        assert text.endswith("\n")
        assert json.loads(text)["triple"]["phi"] == "phi"


class TestDot:
    def test_labels_and_edges(self, xor2):
        text = dot_graph(xor2.Y, xor2.psi, "Y")
        assert text.startswith('digraph "Y" {')
        assert '"0" [label="0/z"];' in text
        assert '"0" -> "1";' in text
        bare = dot_graph(xor2.Y)
        assert '"0";' in bare and "label" not in bare


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestCliBasics:
    def test_help_exits_zero(self, capsys):
        code, _, _ = run_cli(capsys, "--help")
        assert code == 0

    def test_no_subcommand_takes_a_scan_length(self, capsys):
        commands = (
            "depth", "rdepth", "class-degree", "relative", "magic", "bridge",
            "classes-fixed", "verify", "generate", "dump",
        )
        for command in commands:
            code, out, _ = run_cli(capsys, command, "--help")
            assert code == 0 and "usage: sftcd " + command in out
            assert "--max-len" not in out

    def test_usage_errors(self, capsys):
        assert run_cli(capsys)[0] == 2
        assert run_cli(capsys, "nope")[0] == 2
        assert run_cli(capsys, "depth", "--triple", "builtin:xor2")[0] == 2

    def test_malformed_code_arguments(self, capsys, tmp_path):
        # each used to escape as an uncaught Python error
        for name in ("bogus", "X"):
            code, out, err = run_cli(capsys, "magic", "--code", f"builtin:xor2/{name}")
            assert (code, out) == (2, "")
            assert f"error: unknown code {name!r}" in err
        for i, (doc, match) in enumerate(malformed_code_docs()):
            path = tmp_path / f"code{i}.json"
            path.write_text(json.dumps(doc))
            code, out, err = run_cli(capsys, "magic", "--code", str(path))
            assert (code, out) == (2, "")
            assert err.startswith("error: ") and re.search(match, err)

    def test_magic_and_dump_need_a_source(self, capsys):
        # exactly one source: neither, or both, is a usage error
        sources = {
            "magic": ("--code", "builtin:xor2/phi", "--triple", "builtin:xor2"),
            "dump": ("--triple", "builtin:xor2", "--system", "no-such-system.json"),
        }
        for command, (a, a_value, b, b_value) in sources.items():
            code, out, err = run_cli(capsys, command)
            assert (code, out) == (2, "")
            assert f"one of the arguments {a} {b} is required" in err
            code, out, err = run_cli(capsys, command, a, a_value, b, b_value)
            assert (code, out) == (2, "")
            assert f"argument {b}: not allowed with argument {a}" in err
            for option in (a, b):
                # an empty source is given, and unreadable
                code, out, err = run_cli(capsys, command, option, "")
                assert (code, out) == (2, "")
                assert err.startswith("error: cannot read") and "Traceback" not in err


class TestCliMeasures:
    def test_depth_defaults_to_pi(self, capsys):
        # "11" is a Y block, not a Z block, so the default code rejects it
        code, _, err = run_cli(
            capsys, "depth", "--triple", "builtin:xor2", "--block", "11"
        )
        assert code == 2
        assert "error:" in err

    def test_depth_phi(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "depth", "--triple", "builtin:xor2", "--block", "11", "--code", "phi",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == 2
        assert payload["coordinate"] == 1
        assert payload["routing_set"] == ["01", "10"]
        assert payload["mode"] == "absolute"

    def test_rdepth(self, capsys):
        code, out, err = run_cli(
            capsys, "rdepth", "--triple", "builtin:xor2", "--block", "0"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == 2
        assert payload["mode"] == "relative"
        assert "relative depth 2" in err

    def test_class_degree_defaults_to_phi(self, capsys):
        code, out, err = run_cli(capsys, "class-degree", "--triple", "builtin:xor2")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == 2
        assert payload["certified"] is True
        assert "class degree 2 (certified)" in err

    def test_window_names_on_a_multi_character_domain(self, capsys, tmp_path):
        # the windows of a0 and a1 are named a0_a0, ...: joined by the
        # block separator, a name could not be a symbol.  The rule reads
        # the same value at the same block as on 0 and 1
        path = tmp_path / "doc.json"
        answers = []
        for x in ("01", ("a0", "a1")):
            path.write_text(json.dumps(xor_doc(x, ("p", "q"))))
            code, out, _ = run_cli(
                capsys, "class-degree", "--triple", str(path), "--code", "phi"
            )
            assert code == 0
            payload = json.loads(out)
            answers.append((payload["value"], payload["block"]))
        assert answers == [(2, "p")] * 2
        code, out, _ = run_cli(capsys, "dump", "--triple", str(path))
        assert code == 0
        windows = ["a0_a0", "a0_a1", "a1_a0", "a1_a1"]
        assert json.loads(out)["systems"]["X"]["alphabet"] == windows

    def test_window_names_stay_distinct_when_symbols_hold_the_joiner(
        self, capsys, tmp_path
    ):
        # a_b·c and a·b_c would both be named a_b_c; with "\\" and "_"
        # escaped inside symbols the names differ, and the rule reads the
        # value at the block it reads on four plain symbols
        path = tmp_path / "doc.json"
        answers = []
        for x in ("wxyz", ("a_b", "c", "a", "b_c")):
            doc = xor_doc(x, ("p", "q"))
            # c·c, not Block.text()'s cc, which this alphabet reads as a symbol
            doc["codes"]["phi"]["rule"] = {
                SEPARATOR.join((a, b)): "pq"[(i + j) % 2]
                for i, a in enumerate(x)
                for j, b in enumerate(x)
            }
            path.write_text(json.dumps(doc))
            code, out, _ = run_cli(
                capsys, "class-degree", "--triple", str(path), "--code", "phi"
            )
            assert code == 0
            payload = json.loads(out)
            answers.append((payload["value"], payload["block"]))
        assert answers[0] == answers[1]
        code, out, _ = run_cli(capsys, "dump", "--triple", str(path))
        assert code == 0
        names = json.loads(out)["systems"]["X"]["alphabet"]
        assert len(set(names)) == 16
        assert {"a\\_b_c", "a_b\\_c"} <= set(names)

    def test_class_degree_pi(self, capsys):
        code, out, _ = run_cli(
            capsys, "class-degree", "--triple", "builtin:xor2", "--code", "pi"
        )
        assert code == 0
        assert json.loads(out)["value"] == 1

    def test_relative(self, capsys):
        code, out, _ = run_cli(capsys, "relative", "--triple", "builtin:xor2")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == 1
        assert payload["certified"] is True

    def test_magic_from_code_arg(self, capsys):
        code, out, _ = run_cli(capsys, "magic", "--code", "builtin:xor2/phi")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == 2
        assert payload["block"] == "0"
        assert payload["coordinate"] == 1

    def test_magic_from_triple(self, capsys):
        code, out, _ = run_cli(
            capsys, "magic", "--triple", "builtin:mod3", "--which", "phi"
        )
        assert code == 0
        assert json.loads(out)["value"] == 3

    def test_magic_which_needs_a_triple(self, capsys):
        # --which used to be ignored with --code: phi's value 2, exit 0
        for spelling in (("--which", "pi"), ("--which=phi",)):
            for argv in (
                ("--code", "builtin:xor2/phi", *spelling),
                (*spelling, "--code", "builtin:xor2/phi"),
            ):
                code, out, err = run_cli(capsys, "magic", *argv)
                assert (code, out) == (2, "")
                assert err == "error: --which picks a code of --triple, not of --code\n"
        values = {}
        for argv in ((), ("--which", "phi"), ("--which=pi",)):
            code, out, _ = run_cli(capsys, "magic", "--triple", "builtin:xor2", *argv)
            assert code == 0
            values[argv] = json.loads(out)["value"]
        assert values == {(): 2, ("--which", "phi"): 2, ("--which=pi",): 4}


class TestCliWitnesses:
    def test_bridge_found(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "bridge", "--code", "builtin:xor2/pi",
            "--from", "(00)", "--to", "(11)",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["found"] is True
        assert payload["witness"]["mode"] == "absolute"

    def test_bridge_absent(self, capsys):
        code, out, err = run_cli(
            capsys,
            "bridge", "--code", "builtin:xor2/phi",
            "--from", "(00)", "--to", "(11)", "--window", "12",
        )
        assert code == 1
        assert json.loads(out)["found"] is False
        assert "12" in err

    def test_bridge_window_must_be_positive(self, capsys):
        for window in ("0", "-3"):
            code, out, err = run_cli(
                capsys,
                "bridge", "--code", "builtin:xor2/pi",
                "--from", "(00)", "--to", "(11)", "--window", window,
            )
            assert (code, out) == (2, "")
            assert "error: --window must be positive" in err

    def test_bridge_image_mismatch(self, capsys):
        code, _, err = run_cli(
            capsys,
            "bridge", "--code", "builtin:xor2/phi",
            "--from", "(00)", "--to", "(01·10)",
        )
        assert code == 2
        assert "error:" in err

    def test_bridge_points_must_lie_in_the_domain(self, capsys):
        # 00 -> 11 is not an allowed transition of xor2's X
        bad = "(11·00)"
        for src, dst in ((bad, "(00)"), ("(00)", bad)):
            code, out, err = run_cli(
                capsys,
                "bridge", "--code", "builtin:xor2/phi",
                "--from", src, "--to", dst,
            )
            assert (code, out) == (2, "")
            assert f"error: {bad} is not a point of the domain" in err

    def test_classes_fixed(self, capsys):
        code, out, _ = run_cli(
            capsys, "classes-fixed", "--code", "builtin:xor2/phi", "--z", "0"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 2
        assert payload["representatives"] == ["(00)", "(11)"]
        assert payload["caveat"]

    def test_classes_fixed_unknown_symbol(self, capsys):
        code, _, err = run_cli(
            capsys, "classes-fixed", "--code", "builtin:xor2/phi", "--z", "q"
        )
        assert code == 2


class TestCliDocuments:
    def test_generate_is_deterministic_and_loadable(self, capsys, tmp_path):
        code, out1, _ = run_cli(capsys, "generate", "--seed", "5")
        assert code == 0
        _, out2, _ = run_cli(capsys, "generate", "--seed", "5")
        assert out1 == out2
        path = tmp_path / "gen5.json"
        path.write_text(out1)
        loaded = load_triple(path)
        assert loaded.triple.Y.alphabet.symbols
        code, out3, _ = run_cli(capsys, "dump", "--triple", str(path))
        assert code == 0
        assert out3 == out1

    def test_dump_triple_round_trip(self, capsys, tmp_path):
        code, out1, _ = run_cli(capsys, "dump", "--triple", "builtin:xor2")
        assert code == 0
        path = tmp_path / "xor2.json"
        path.write_text(out1)
        code, out2, _ = run_cli(capsys, "dump", "--triple", str(path))
        assert code == 0
        assert out1 == out2

    def test_dump_dot(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "dump", "--triple", "builtin:xor2", "--format", "dot"
        )
        assert code == 0
        assert 'digraph "X"' in out and 'digraph "Y"' in out
        assert '"00" [label="00/0"];' in out
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(FULL2))
        code, out, _ = run_cli(
            capsys, "dump", "--system", str(path), "--format", "dot"
        )
        assert code == 0
        assert 'digraph "shift"' in out

    def test_malformed_system_exits_two(self, capsys, tmp_path):
        for i, (doc, match) in enumerate(malformed_system_docs()):
            path = tmp_path / f"sys{i}.json"
            path.write_text(json.dumps(doc))
            code, out, err = run_cli(capsys, "dump", "--system", str(path))
            assert (code, out) == (2, "")
            assert err.startswith("error: ") and re.search(match, err)

    def test_dump_system_json(self, capsys, tmp_path):
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(FULL2))
        code, out, _ = run_cli(capsys, "dump", "--system", str(path))
        assert code == 0
        assert out == canonical_json(load_system(FULL2))

    def test_sliding_code_file_is_recoded(self, capsys, tmp_path):
        doc = xor_doc()["codes"]["phi"]
        doc["codomain"] = FULL2
        path = tmp_path / "xor_rule.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "magic", "--code", str(path))
        assert code == 0
        assert "recoded" in err
        assert json.loads(out)["value"] == 2

    def test_long_memory_rule_runs_without_recursion(self, capsys, tmp_path):
        # a window of 1501 symbols used to be listed by a recursion 1501
        # calls deep, which ended in a RecursionError traceback
        doc = {
            "domain": {"alphabet": ["a"], "allowed": [["a", "a"]]},
            "codomain_alphabet": ["z"],
            "memory": 1500,
            "anticipation": 0,
            "rule": {"a" * 1501: "z"},
        }
        path = tmp_path / "long_memory.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "magic", "--code", str(path))
        assert code == 0 and "Traceback" not in err
        assert (json.loads(out)["block"], json.loads(out)["value"]) == ("z", 1)

    def test_non_onto_triple_file_fails(self, capsys, tmp_path):
        path = tmp_path / "collapse.json"
        path.write_text(json.dumps(collapse_doc()))
        code, _, err = run_cli(
            capsys, "depth", "--triple", str(path), "--block", "0"
        )
        assert code == 1
        assert "onto" in err

    def test_mismatched_bound_is_an_input_error(self, capsys, tmp_path, xor2):
        doc = triple_doc(xor2)
        doc["triple"]["Z_alphabet"] = ["q"]
        path = tmp_path / "bound.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "relative", "--triple", str(path))
        assert (code, out) == (2, "")
        assert "error: bound Z_alphabet does not match psi's codomain alphabet" in err
        assert "Traceback" not in err
        # phi sends both symbols of the full shift on x0, x1 to q, which
        # Y forbids twice running: the same input error whether Y is
        # bound to a phi with no codomain or attached as its codomain
        qr = {"alphabet": ["q", "r"], "allowed": [["q", "r"], ["r", "q"]]}
        phi = {
            "domain": full_shift_doc(["x0", "x1"]),
            "codomain_alphabet": ["q", "r"],
            "map": {"x0": "q", "x1": "q"},
        }
        doc = {
            "systems": {"Y": qr, "Z": FULLZ},
            "codes": {
                "phi": phi,
                "psi": {"domain": "Y", "codomain": "Z", "map": {"q": "z", "r": "z"}},
            },
            "triple": {"phi": "phi", "psi": "psi", "Y": "Y"},
        }
        for attached in (False, True):
            if attached:
                phi["codomain"] = "Y"
            path.write_text(json.dumps(doc))
            code, out, err = run_cli(capsys, "relative", "--triple", str(path))
            assert (code, out) == (2, "")
            assert err == (
                "error: code is not edge-compatible: "
                "('x0','x0') maps to forbidden pair ('q','q')\n"
            )

    def test_declared_pi_keeps_the_mismatched_y_error(self, capsys, tmp_path, xor2):
        # psi's domain is the golden mean shift on 0, 1, not phi's full
        # codomain: the same input error with a declared pi as without,
        # and not the composition's, which read the pi first
        doc = triple_doc(xor2)
        doc["systems"]["G"] = {
            "alphabet": ["0", "1"],
            "allowed": [["0", "0"], ["0", "1"], ["1", "0"]],
        }
        doc["codes"]["psi"]["domain"] = "G"
        path = tmp_path / "mismatch.json"
        pi = {"domain": "X", "codomain": "Z", "map": dict.fromkeys(xor2.X.alphabet.symbols, "z")}
        for declared in (False, True):
            if declared:
                doc["codes"]["pi"] = pi
            path.write_text(json.dumps(doc))
            code, out, err = run_cli(capsys, "relative", "--triple", str(path))
            assert (code, out) == (2, "")
            assert err == "error: psi's domain shift is not phi's codomain\n"

    def test_unreadable_triple_inputs(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "depth", "--triple", str(tmp_path / "no.json"), "--block", "0"
        )
        assert code == 2
        bad = tmp_path / "bad.json"
        for content in (b"{oops", b"\xff\xfe not utf-8"):
            bad.write_bytes(content)
            code, _, err = run_cli(
                capsys, "depth", "--triple", str(bad), "--block", "0"
            )
            assert code == 2
            assert "error: invalid JSON in" in err
        # only an absent table reads as empty: a present empty list, zero,
        # false, "" or null is no table
        for key in ("systems", "codes", "triple"):
            for value in ([1], [], 0, False, "", None):
                doc = xor_doc()
                doc[key] = value
                bad.write_text(json.dumps(doc))
                code, _, err = run_cli(
                    capsys, "depth", "--triple", str(bad), "--block", "0"
                )
                assert code == 2
                assert f"error: triple document's {key} must be an object" in err


class TestCliVerify:
    def test_builtin_corpus(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--corpus", "builtin"
        )
        assert code == 0
        lines = [l for l in out.splitlines() if l]
        assert lines
        for line in lines:
            payload = json.loads(line)
            assert "case_id" in payload and "checks" in payload
        assert "passed" in err and "0 failed" in err

    def test_seeds_with_jobs(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--seeds", "3..4", "--jobs", "2",
        )
        assert code == 0
        ids = [json.loads(l)["case_id"] for l in out.splitlines() if l]
        assert any(i.startswith("seed:3/") for i in ids)
        assert any(i.startswith("seed:4/") for i in ids)

    def test_gen_spec_file(self, capsys, tmp_path):
        path = tmp_path / "specs.json"
        path.write_text(
            json.dumps(
                [
                    {
                        "seed": 5,
                        "y_symbols": 2,
                        "blowup_min": 1,
                        "blowup_max": 2,
                        "z_symbols": 1,
                        "edge_density": 0.5,
                    }
                ]
            )
        )
        code, out, _ = run_cli(
            capsys, "verify", "--gen", str(path)
        )
        assert code == 0
        assert any("gen:5/" in l for l in out.splitlines())
        bad = tmp_path / "bad_specs.json"
        for entry in (
            {"nope": 1},
            {},
            {"seed": 1, "nope": 1},
            {"seed": "x"},
            {"seed": 1, "y_symbols": 2.5},
            {"seed": 1, "blowup_max": 2.5},
            {"seed": True, "y_symbols": True},
            {"seed": 1, "edge_density": True},
            {"seed": 1, "edge_density": "0.5"},
            1,
            "x",
            None,
        ):
            bad.write_text(json.dumps([entry]))
            code, _, err = run_cli(capsys, "verify", "--gen", str(bad))
            assert code == 2
            # an entry that is no JSON object is named as such, and a
            # missing or unknown field by its name, not by the error
            # unpacking the entry would raise
            assert ("not an object" in err) == (not isinstance(entry, dict))
            assert "__init__" not in err
            if entry in ({}, {"nope": 1}, {"seed": 1, "nope": 1}):
                named = "missing field 'seed'" if entry == {} else "unknown field 'nope'"
                assert err.strip().endswith(named)
        # a file holding one spec object instead of a list of them
        bad.write_text(json.dumps({"seed": 1}))
        code, out, err = run_cli(capsys, "verify", "--gen", str(bad))
        assert (code, out) == (2, "")
        assert err == "error: generator spec file must hold a list of specs\n"

    def test_closed_stdout_exits_without_a_traceback(self):
        # the read end is closed before the command writes, as `| head -1`
        # does after its line: the first flush meets a broken pipe
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        try:
            proc = subprocess.run(
                [sys.executable, "-c", "from sftcd.cli import entry; entry()",
                 "verify", "--seeds", "1..2"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert b"Traceback" not in proc.stderr
        assert b"BrokenPipeError" not in proc.stderr

    def test_bad_arguments(self, capsys):
        assert run_cli(capsys, "verify")[0] == 2
        # an empty bound is refused on either side: "7.." is no one-seed range
        for text in ("5..2", "a..b", "7..", "..5"):
            code, out, err = run_cli(capsys, "verify", "--seeds", text)
            assert (code, out) == (2, "")
            assert f"error: bad seed range {text!r}" in err
        # the scan length is gone: --max-len is an unknown option
        code, out, err = run_cli(capsys, "verify", "--seeds", "1..2", "--max-len", "6")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --max-len 6" in err
        for jobs in ("0", "-1"):
            code, out, err = run_cli(
                capsys, "verify", "--seeds", "3..3", "--jobs", jobs
            )
            assert (code, out) == (2, "")
            assert "error: --jobs must be positive" in err

    def test_failed_check_exits_1_is_counted_and_archived(
        self, capsys, tmp_path, monkeypatch
    ):
        from dataclasses import replace

        from sftcd import harness

        real = harness.triple_degrees
        calls = []

        def pi_off_by_one_once(t):
            # the first question is seed 3's main check
            v = real(t)
            calls.append(t)
            if len(calls) == 1:
                v = dict(v, pi=replace(v["pi"], value=v["pi"].value + 1))
            return v

        monkeypatch.setattr(harness, "triple_degrees", pi_off_by_one_once)
        archive = tmp_path / "archive"
        argv = ("verify", "--seeds", "3..4", "--archive", str(archive))
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        reports = [json.loads(line) for line in out.splitlines()]
        failed = [
            (r["case_id"], c["name"])
            for r in reports
            for c in r["checks"]
            if c["verdict"] == "fail"
        ]
        assert ("seed:3/main", "product-identity") in failed
        assert {case for case, _ in failed} == {"seed:3/main"}
        assert len(failed) == 2  # pi + 1 also breaks the composite bound
        assert err == "2 cases, 6 reports: 9 passed, 2 failed, 5 skipped\n"
        assert [p.name for p in archive.iterdir()] == ["seed:3_main.json"]
        dump = (archive / "seed:3_main.json").read_text()
        triple = harness.generate_triple(harness.spec_for_seed(3))
        # an archive file is a canonical document, newline-terminated
        assert dump == canonical_json(
            {"case": "seed:3", "triple": triple, "report": reports[0]}
        )

    def test_an_archive_that_cannot_be_made_exits_2_before_any_case(
        self, capsys, tmp_path, monkeypatch
    ):
        # seed 3's main check fails and would be archived; the archive
        # path is a file, so the directory is refused before any case
        # runs: one error line, nothing on stdout, at both --jobs
        from dataclasses import replace

        from sftcd import harness

        real = harness.triple_degrees

        def pi_off_by_one(t):
            v = real(t)
            return dict(v, pi=replace(v["pi"], value=v["pi"].value + 1))

        monkeypatch.setattr(harness, "triple_degrees", pi_off_by_one)
        archive = tmp_path / "archive"
        archive.write_text("not a directory\n")
        for jobs in ("1", "2"):
            argv = ("verify", "--seeds", "3..4", "--jobs", jobs, "--archive", str(archive))
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, "")
            assert err.startswith(f"error: cannot archive to {archive}: ")
            assert err.count("\n") == 1
        assert archive.read_text() == "not a directory\n"

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the monkeypatch reaches the workers only through fork",
    )
    def test_failed_check_at_two_jobs_is_counted_and_archived(
        self, capsys, tmp_path, monkeypatch
    ):
        # the workers serialise and archive the reports and the parent
        # tallies their verdicts; the patch keys on seed 3's triple, not
        # on the call count, since each forked worker counts its own calls
        from dataclasses import replace

        from sftcd import harness

        real = harness.triple_degrees
        seed3_x = harness.generate_triple(harness.spec_for_seed(3)).X
        seen = []

        def pi_off_by_one_in_seed_3_main(t):
            v = real(t)
            if t.X == seed3_x:
                seen.append(t)
                if len(seen) == 1:  # seed 3's first question is its main check
                    v = dict(v, pi=replace(v["pi"], value=v["pi"].value + 1))
            return v

        monkeypatch.setattr(harness, "triple_degrees", pi_off_by_one_in_seed_3_main)
        archive = tmp_path / "archive"
        argv = ("verify", "--seeds", "3..4", "--jobs", "2", "--archive", str(archive))
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        lines = out.splitlines()
        assert [json.loads(line)["case_id"] for line in lines] == [
            f"seed:{s}/{k}" for s in (3, 4) for k in ("main", "special", "chain")
        ]
        assert err == "2 cases, 6 reports: 9 passed, 2 failed, 5 skipped\n"
        assert not seen  # every check ran in a worker
        assert [p.name for p in archive.iterdir()] == ["seed:3_main.json"]
        dump = (archive / "seed:3_main.json").read_text()
        triple = harness.generate_triple(harness.spec_for_seed(3))
        assert dump == canonical_json(
            {"case": "seed:3", "triple": triple, "report": json.loads(lines[0])}
        )

    def test_file_corpus(self, capsys, tmp_path):
        # a directory of triple documents runs one case per file, in name
        # order, each with its main and special checks, and prints the
        # same bytes at either --jobs
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for name, argv in (
            ("xor2.json", ("dump", "--triple", "builtin:xor2")),
            ("gen5.json", ("generate", "--seed", "5", "--y-symbols", "3",
                           "--blowup-max", "3", "--z-symbols", "2")),
        ):
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            (corpus / name).write_text(out)
        runs = [run_cli(capsys, "verify", "--corpus", str(corpus), "--jobs", jobs)
                for jobs in ("1", "2")]
        assert runs[0] == runs[1]
        code, out, err = runs[0]
        assert code == 0
        assert [json.loads(line)["case_id"] for line in out.splitlines()] == [
            f"file:{name}/{check}"
            for name in ("gen5.json", "xor2.json")
            for check in ("main", "special")
        ]
        assert err.splitlines()[-1] == "2 cases, 4 reports: 9 passed, 0 failed, 5 skipped"
        # a path that is no directory is refused
        code, out, err = run_cli(capsys, "verify", "--corpus", str(corpus / "xor2.json"))
        assert (code, out) == (2, "")
        assert "is not a directory" in err
        # one malformed document, sorted after the good ones, fails the
        # whole run before any line is printed
        (corpus / "zz.json").write_text(json.dumps({"systems": 1}))
        for jobs in ("1", "2"):
            code, out, err = run_cli(capsys, "verify", "--corpus", str(corpus), "--jobs", jobs)
            assert (code, out) == (2, "")
            assert err == "error: triple document's systems must be an object\n"

    def test_every_verify_path_prints_the_same_bytes(self, capsys):
        jobs1, jobs2 = (
            run_cli(capsys, "verify", "--seeds", "1..24", "--jobs", jobs)
            for jobs in ("1", "2")
        )
        assert jobs1[0] == 0 and jobs1[1].count("\n") == 72
        assert jobs2 == jobs1


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_json_examples():
    """{command: stdout} for each `$ sftcd ...` line of the README that is
    followed by its JSON output."""
    examples = {}
    pattern = re.compile(r"^\$ sftcd ([^\n]+)\n(\{\n.*?\n\})$", re.M | re.S)
    for match in pattern.finditer(README.read_text()):
        examples[match.group(1)] = match.group(2) + "\n"
    return examples


def test_readme_json_examples_match_the_cli(capsys):
    examples = readme_json_examples()
    assert sorted(cmd.split()[0] for cmd in examples) == [
        "class-degree",
        "classes-fixed",
        "rdepth",
    ]
    for cmd, expected in examples.items():
        code, out, _ = run_cli(capsys, *shlex.split(cmd))
        assert code == 0, cmd
        assert out == expected, cmd


@pytest.mark.parametrize(
    "argv",
    [["verify", "--seeds", "1..10"], ["classes-fixed", "--code", "builtin:mod3/phi", "--z", "0"]],
)
def test_cli_output_is_the_same_in_every_process(argv):
    snippet = f"import sys\nfrom sftcd.cli import main\nsys.exit(main({argv!r}))\n"
    first, second = run_under_hash_seeds(snippet)
    assert first and first == second
