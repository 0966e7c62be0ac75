"""Document parsing, canonical dumps, and the command-line surface."""

import json
import os
import re
import shlex
from pathlib import Path

import pytest

from conftest import run_under_hash_seeds
from sftcd.cli import main
from sftcd.codes import SlidingBlockCode
from sftcd.core import parse_block_text
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

FULL2 = {"alphabet": ["0", "1"], "allowed": [[a, b] for a in "01" for b in "01"]}
FULLZ = {"alphabet": ["z"], "allowed": [["z", "z"]]}


def xor_doc():
    """Two-letter parity triple with phi written as a width-two rule."""
    return {
        "systems": {"Y": FULL2, "Z": FULLZ},
        "codes": {
            "phi": {
                "domain": FULL2,
                "codomain": "Y",
                "memory": 0,
                "anticipation": 1,
                "rule": {"00": "0", "01": "1", "10": "1", "11": "0"},
            },
            "psi": {"domain": "Y", "codomain": "Z", "map": {"0": "z", "1": "z"}},
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
        assert loaded.pi.apply_symbol("00") == "z"

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
        assert loaded.Y.alphabet.symbols == ("0", "1")

    def test_non_onto_phi_rejected(self):
        with pytest.raises(InvariantViolation, match="onto"):
            load_triple_doc(collapse_doc())

    def test_missing_code_reference(self):
        doc = xor_doc()
        doc["triple"]["phi"] = "nope"
        with pytest.raises(ParseError, match="lacks code"):
            load_triple_doc(doc)

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
        assert loaded.Y.alphabet.symbols
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
        for key in ("systems", "triple"):
            doc = xor_doc()
            doc[key] = [1]
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
        for entry in ({"nope": 1}, {"seed": "x"}):
            bad.write_text(json.dumps([entry]))
            assert run_cli(capsys, "verify", "--gen", str(bad))[0] == 2

    def test_bad_arguments(self, capsys):
        assert run_cli(capsys, "verify")[0] == 2
        assert run_cli(capsys, "verify", "--seeds", "5..2")[0] == 2
        assert run_cli(capsys, "verify", "--seeds", "a..b")[0] == 2
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

    def test_cache_round_trip(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        monkeypatch.setenv("SFTCD_CACHE_DIR", str(cache))
        code, out1, _ = run_cli(
            capsys, "verify", "--seeds", "3..3"
        )
        assert code == 0
        assert any(cache.iterdir())
        code, out2, _ = run_cli(
            capsys, "verify", "--seeds", "3..3"
        )
        assert code == 0
        assert sorted(out1.splitlines()) == sorted(out2.splitlines())

    def test_cache_key_names_the_engine_version(self, monkeypatch):
        import hashlib

        from sftcd import cli
        from sftcd.harness import HarnessCase, spec_for_seed

        case = HarnessCase("seed:3", "generated", gen=spec_for_seed(3))
        key = cli._case_key(case)
        # the key the length-bounded scan used, over (case, L, plateau)
        scan_key = hashlib.sha256(repr((case, 8, 3)).encode()).hexdigest()
        assert key != scan_key
        monkeypatch.setattr(cli, "_CACHE_VERSION", "another engine")
        assert cli._case_key(case) != key

    def test_cache_entries_are_replaced_whole(self, capsys, tmp_path, monkeypatch):
        from sftcd import cli

        cache = tmp_path / "cache"
        monkeypatch.setenv("SFTCD_CACHE_DIR", str(cache))
        real_replace = os.replace
        moves = []

        def replace(src, dst):
            # the temp file is complete, beside its target, when moved
            json.loads(open(src).read())
            moves.append((os.path.dirname(src), os.path.dirname(dst)))
            real_replace(src, dst)

        monkeypatch.setattr(cli.os, "replace", replace)
        assert run_cli(capsys, "verify", "--seeds", "3..4")[0] == 0
        assert moves == [(str(cache), str(cache))] * 2
        assert sorted(p.suffix for p in cache.iterdir()) == [".json", ".json"]

    def test_unreadable_cache_entry_is_a_miss(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        monkeypatch.setenv("SFTCD_CACHE_DIR", str(cache))
        code, out1, _ = run_cli(capsys, "verify", "--seeds", "3..3")
        assert code == 0
        (entry,) = cache.iterdir()
        entry.write_text("{half written")
        code, out2, err = run_cli(capsys, "verify", "--seeds", "3..3")
        assert code == 0
        assert "unreadable cache entry" in err and "Traceback" not in err
        assert out2 == out1
        assert json.loads(entry.read_text())

    def test_half_warm_cache_prints_what_an_uncached_run_prints(
        self, capsys, tmp_path, monkeypatch
    ):
        argv = ("verify", "--seeds", "3..6", "--jobs", "2")
        code, uncached, _ = run_cli(capsys, *argv)
        assert code == 0
        monkeypatch.setenv("SFTCD_CACHE_DIR", str(tmp_path / "cache"))
        # warm the later half, so hits printed first would show
        assert run_cli(capsys, "verify", "--seeds", "5..6")[0] == 0
        code, half_warm, _ = run_cli(capsys, *argv)
        assert code == 0
        assert half_warm == uncached

    @pytest.mark.parametrize("damage", ["empty", "foreign", "null-values"])
    def test_entry_that_is_not_its_case_is_a_miss(
        self, capsys, tmp_path, monkeypatch, damage
    ):
        cache = tmp_path / "cache"
        monkeypatch.setenv("SFTCD_CACHE_DIR", str(cache))
        argv = ("verify", "--seeds", "1..2")
        code, warm, _ = run_cli(capsys, *argv)
        assert code == 0
        entries = {
            json.loads(p.read_text())[0]["case_id"].split("/")[0]: p
            for p in cache.iterdir()
        }
        entry, other = entries["seed:1"], entries["seed:2"]
        good = entry.read_text()
        if damage == "empty":
            entry.write_text("[]")
        elif damage == "foreign":
            entry.write_text(other.read_text())
        else:
            docs = json.loads(good)
            docs[0]["values"] = None
            entry.write_text(json.dumps(docs, sort_keys=True))
        code, out, err = run_cli(capsys, *argv)
        assert code == 0
        assert f"unreadable cache entry {entry.name}" in err
        assert "2 cases, 6 reports:" in err and "Traceback" not in err
        assert out == warm
        assert entry.read_text() == good

    def test_every_verify_path_prints_the_same_bytes(
        self, capsys, tmp_path, monkeypatch
    ):
        # uncached, cache cold and cache warm, each at --jobs 1 and 2; the
        # two cold passes also write the same entry files
        runs = {}
        for jobs in ("1", "2"):
            argv = ("verify", "--seeds", "1..24", "--jobs", jobs)
            monkeypatch.delenv("SFTCD_CACHE_DIR", raising=False)
            runs["uncached", jobs] = run_cli(capsys, *argv)
            monkeypatch.setenv("SFTCD_CACHE_DIR", str(tmp_path / jobs))
            runs["cold", jobs] = run_cli(capsys, *argv)
            runs["warm", jobs] = run_cli(capsys, *argv)
        first = runs["uncached", "1"]
        assert first[0] == 0 and first[1].count("\n") == 72
        assert all(run == first for run in runs.values())

        def files(jobs):
            return {p.name: p.read_bytes() for p in (tmp_path / jobs).iterdir()}

        assert len(files("1")) == 24
        assert files("1") == files("2")

    def test_all_hit_run_starts_no_worker(self, capsys, tmp_path, monkeypatch):
        from sftcd import harness

        monkeypatch.setenv("SFTCD_CACHE_DIR", str(tmp_path / "cache"))
        argv = ("verify", "--seeds", "3..6", "--jobs", "2")
        code, cold, _ = run_cli(capsys, *argv)
        assert code == 0

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker process was started")

        monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
        assert run_cli(capsys, *argv)[:2] == (0, cold)


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
