import json
import math
import os
import random
import subprocess
import sys
from enum import IntEnum
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, strategies as st

from ocasync import corpus, lps, mc
from ocasync.cli import _ROW_KEY, _dumps, _items, _row, _row_ints, _segment_text, main
from ocasync.errors import (
    FormulaSyntaxError, InputError, OcaSyntaxError, UncoveredOperatorError, UnknownNameError,
)
from ocasync.formula import MAX_DEPTH, parse_formula
from ocasync.oca import Configuration, loads, oca_to_json, parse_configuration, validate
from conftest import NESTED_SHAPES, cyclic_garbage, nested, random_total_oca

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(scope="module")
def schema():
    text = resources.files("ocasync").joinpath("schema/report.schema.json").read_text()
    return json.loads(text)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    doc = json.loads(out)
    return code, doc, out


def check_schema(schema, doc):
    jsonschema.validate(doc, schema)


class TestCheck:
    def test_countdown_example(self, capsys, schema):
        code, doc, _ = run(
            capsys, "check", "--oca", "countdown", "--formula", "FA p",
            "--init", "s,2", "--mode", "empirical",
        )
        assert code == 0
        check_schema(schema, doc)
        assert doc["data"]["holds"] is True
        assert doc["data"]["witnessK"] == 3

    def test_negative_verdict_still_exits_zero(self, capsys, schema):
        code, doc, _ = run(
            capsys, "check", "--oca", "asym-fork", "--formula", "FA p",
            "--init", "f,1",
        )
        assert code == 0 and doc["data"]["holds"] is False
        check_schema(schema, doc)

    def test_supplied_mode_parsing(self, capsys, schema):
        code, doc, _ = run(
            capsys, "check", "--oca", "countdown", "--formula", "EX p",
            "--init", "s,0", "--mode", "supplied:1,1",
        )
        assert code == 0 and doc["data"]["holds"] is True
        check_schema(schema, doc)

    def test_budget_exceeded_exit_code(self, capsys, schema):
        code, doc, _ = run(
            capsys, "check", "--oca", "asym-fork", "--formula", "FA p",
            "--init", "f,0", "--mode", "paper",
        )
        assert code == 2
        assert doc["error"]["kind"] == "budget"
        check_schema(schema, doc)

    def test_job_file_with_flag_overrides(self, capsys, schema, tmp_path):
        job = tmp_path / "job.json"
        job.write_text(json.dumps({
            "oca": "countdown", "formula": "FA p", "init": "s,2",
            "mode": "empirical",
        }))
        code, doc, _ = run(capsys, "check", "--job", str(job))
        assert code == 0 and doc["data"]["witnessK"] == 3
        check_schema(schema, doc)
        code, doc, _ = run(capsys, "check", "--job", str(job), "--init", "s,0")
        assert code == 0 and doc["data"]["witnessK"] == 1

    def test_explicit_mode_flag_overrides_the_job_file(self, capsys, schema, tmp_path):
        # an explicit flag wins even when it spells the default
        job = tmp_path / "job.json"
        job.write_text(json.dumps({
            "oca": "countdown", "formula": "FA p", "init": "s,2", "mode": "supplied:3,1",
        }))
        code, doc, _ = run(capsys, "check", "--job", str(job))
        assert code == 0 and doc["data"]["caveats"][0].startswith("threshold/period pair supplied")
        code, doc, _ = run(capsys, "check", "--job", str(job), "--mode", "empirical")
        assert code == 0 and doc["data"]["caveats"][0].startswith("constants mined empirically")
        check_schema(schema, doc)

    def test_explicit_caps_flag_overrides_the_job_file(self, capsys, schema, tmp_path):
        # caps 1,1 leave mining no counters 0..2, so the job alone is refused
        job = tmp_path / "job.json"
        job.write_text(json.dumps({
            "oca": "countdown", "formula": "FA p", "init": "s,2", "caps": "1,1",
        }))
        code, doc, _ = run(capsys, "check", "--job", str(job))
        assert code == 1 and doc["error"]["kind"] == "input"
        code, doc, _ = run(capsys, "check", "--job", str(job), "--caps", "60,200")
        assert code == 0 and doc["data"]["witnessK"] == 3
        check_schema(schema, doc)

    def test_job_file_unknown_keys_rejected(self, capsys, schema, tmp_path):
        job = tmp_path / "job.json"
        job.write_text(json.dumps({"oca": "countdown", "formulae": "FA p"}))
        code, doc, _ = run(capsys, "check", "--job", str(job))
        assert code == 1 and doc["error"]["kind"] == "input"
        check_schema(schema, doc)

    @pytest.mark.parametrize("key, value", [
        ("caps", [1, 2]), ("init", 5), ("oca", None), ("formula", {"kind": "atom"}),
        ("mode", 1), ("b", "3"), ("budget", 1.5), ("mineVCap", True),
    ])
    def test_job_value_of_the_wrong_type_is_input_error(
        self, capsys, schema, tmp_path, key, value
    ):
        job = tmp_path / "job.json"
        job.write_text(json.dumps({
            "oca": "countdown", "formula": "FA p", "init": "s,2", key: value,
        }))
        code, doc, _ = run(capsys, "check", "--job", str(job))
        assert code == 1 and doc["error"]["kind"] == "input"
        assert doc["error"]["message"].startswith(f"job key {key!r} must be ")
        check_schema(schema, doc)

    def test_job_file_must_hold_an_object(self, capsys, schema, tmp_path):
        job = tmp_path / "job.json"
        job.write_text(json.dumps(["countdown", "FA p", "s,2"]))
        code, doc, _ = run(capsys, "check", "--job", str(job))
        assert code == 1 and doc["error"] == {
            "kind": "input", "message": "job file must hold a JSON object"}
        check_schema(schema, doc)

    def test_missing_job_file_is_input_error(self, capsys, schema, tmp_path):
        code, doc, _ = run(capsys, "check", "--job", str(tmp_path / "absent.json"))
        assert code == 1 and doc["error"]["kind"] == "input"
        check_schema(schema, doc)

    def test_job_file_integer_values(self, capsys, schema, tmp_path):
        job = tmp_path / "job.json"
        job.write_text(json.dumps({
            "oca": "countdown", "formula": "FA p", "init": "s,2",
            "mode": "empirical", "caps": "60,200", "b": 3, "budget": 1000,
            "mineVCap": 20,
        }))
        code, doc, _ = run(capsys, "check", "--job", str(job))
        assert code == 0 and doc["data"]["witnessK"] == 3
        check_schema(schema, doc)

    def test_budget_env_override(self, capsys, schema, monkeypatch):
        monkeypatch.setenv("OCASYNC_BUDGET", "1")
        code, doc, _ = run(
            capsys, "check", "--oca", "countdown", "--formula", "FA p",
            "--init", "s,2",
        )
        assert code == 2 and doc["error"]["kind"] == "budget"


class TestValidate:
    def test_valid_corpus(self, capsys, schema):
        code, doc, _ = run(capsys, "validate", "--oca", "corpus:countdown")
        assert code == 0 and doc["data"]["diagnostics"] == []
        check_schema(schema, doc)

    def test_broken_automaton_exits_one(self, capsys, schema, tmp_path):
        bad = tmp_path / "broken.oca"
        bad.write_text("states: s\natoms: p\ns -[=0,0]-> s\n")  # no positive guard
        code, doc, _ = run(capsys, "validate", "--oca", str(bad))
        assert code == 1
        assert any(">0" in d for d in doc["error"]["diagnostics"])
        check_schema(schema, doc)

    def test_json_automaton_file(self, capsys, schema, tmp_path):
        doc_in = oca_to_json(corpus.load("fork"))
        path = tmp_path / "fork.json"
        path.write_text(json.dumps(doc_in))
        code, doc, _ = run(capsys, "validate", "--oca", str(path))
        assert code == 0
        check_schema(schema, doc)

    def test_missing_file_exits_one(self, capsys, schema):
        code, doc, _ = run(capsys, "validate", "--oca", "/nonexistent.oca")
        assert code == 1 and doc["error"]["kind"] == "input"
        check_schema(schema, doc)

    def test_unreadable_path_exits_one(self, capsys, schema, tmp_path):
        code, doc, _ = run(capsys, "validate", "--oca", str(tmp_path))
        assert code == 1 and doc["error"]["kind"] == "input"
        assert doc["error"]["message"].startswith("cannot read automaton file: ")
        check_schema(schema, doc)

    @pytest.mark.parametrize("label", [[], "a", 3])
    def test_label_not_an_object_exits_one(self, capsys, schema, tmp_path, label):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"states": ["a"], "label": label, "transitions": []}))
        code, doc, _ = run(capsys, "validate", "--oca", str(path))
        assert code == 1 and doc["error"]["kind"] == "input"
        assert doc["error"]["message"].startswith("malformed automaton JSON: ")
        check_schema(schema, doc)


class TestInvalidAutomata:
    """Every subcommand but ``validate`` refuses an invalid automaton at load,
    as malformed input with ``check_oca``'s message."""

    AUTOMATA = {
        "zero-decrement": "states: s\natoms: p\ns -[=0,-1]-> s\ns -[>0,-1]-> s\n",
        "not-total": "states: s\natoms: p\ns -[=0,0]-> s\n",
        "no-zero-move": "states: s\natoms: p\ns -[>0,-1]-> s\n",
        # only the JSON format can carry an effect outside -1..1
        "effect-five": json.dumps({"states": ["s"], "atoms": ["p"], "transitions": [
            {"src": "s", "guard": "=0", "effect": 5, "dst": "s"},
            {"src": "s", "guard": ">0", "effect": 0, "dst": "s"}]}),
    }
    COMMANDS = [
        ("check", "--formula", "FA p", "--init", "s,1"),
        ("sat-sets", "--formula", "p"),
        ("constants", "--formula", "p UA p"),
        ("oracle", "--formula", "EX p", "--init", "s,0"),
        ("oracle", "--formula", "FA p", "--init", "s,1"),
        ("mine-period", "--formula", "EX p", "--state", "s"),
        ("cross-check", "--formula", "EX p", "--init", "s,0"),
        ("check-lemma11",),
        ("lps", "--src", "s", "--dst", "s", "--start", "s,0", "--target-length", "2"),
    ]

    @pytest.mark.parametrize("name", sorted(AUTOMATA))
    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
    def test_rejected_at_load(self, capsys, schema, tmp_path, name, argv):
        path = tmp_path / f"{name}.oca"
        path.write_text(self.AUTOMATA[name])
        with pytest.raises(ValueError) as exc:
            mc.check_oca(loads(self.AUTOMATA[name]), parse_formula("p"), Configuration(0, 0))
        code, doc, _ = run(capsys, argv[0], "--oca", str(path), *argv[1:])
        assert code == 1 and doc["error"] == {"kind": "input", "message": str(exc.value)}
        assert str(exc.value).startswith("invalid automaton: ")
        check_schema(schema, doc)

    @pytest.mark.parametrize("name", sorted(AUTOMATA))
    def test_validate_still_lists_diagnostics(self, capsys, schema, tmp_path, name):
        path = tmp_path / f"{name}.oca"
        path.write_text(self.AUTOMATA[name])
        code, doc, _ = run(capsys, "validate", "--oca", str(path))
        assert code == 1 and doc["error"]["message"] == "automaton invalid"
        assert doc["error"]["diagnostics"] == validate(loads(self.AUTOMATA[name]))
        check_schema(schema, doc)


def _countdown_json(**changes):
    """Countdown's JSON form with top-level keys replaced and the first
    transition's effect or guard set by ``effect`` or ``guard``."""
    doc = oca_to_json(corpus.load("countdown"))
    for key in ("effect", "guard"):
        if key in changes:
            doc["transitions"][0][key] = changes.pop(key)
    doc.update(changes)
    return doc


class TestMalformedJsonAutomata:
    """A JSON automaton is read as strictly as the text format: each of
    these is refused at load as malformed input."""

    CASES = {
        "states-string": (_countdown_json(states="st"),
                          'states must be a list of strings, got "st"'),
        "effect-fraction": (_countdown_json(effect=0.9), "effect must be an integer, got 0.9"),
        "effect-negative-fraction": (_countdown_json(effect=-1.5),
                                     "effect must be an integer, got -1.5"),
        "effect-bool": (_countdown_json(effect=True), "effect must be an integer, got true"),
        "effect-string": (_countdown_json(effect="1"), 'effect must be an integer, got "1"'),
        "guard-unknown": (_countdown_json(guard="<0"), 'unknown guard "<0"'),
        "duplicate-state": (_countdown_json(states=["s", "t", "t"]), "duplicate state 't'"),
        "no-states": (_countdown_json(states=[], label={}, transitions=[]),
                      "no states declared"),
        "undeclared-label": (_countdown_json(label={"s": [], "t": ["p"], "u": ["p"]}),
                             "undeclared state 'u'"),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_refused_at_load(self, capsys, schema, tmp_path, name):
        doc, message = self.CASES[name]
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "check", "--oca", str(path), "--formula", "FA p",
                           "--init", "s,2")
        assert code == 1 and out["error"] == {
            "kind": "input", "message": f"malformed automaton JSON: {message}"}
        check_schema(schema, out)

    def test_text_format_messages_are_unchanged(self):
        with pytest.raises(OcaSyntaxError, match=r"^2:1: duplicate state 's'$"):
            loads("states: s t\nstates: s\n")
        with pytest.raises(OcaSyntaxError, match=r"^1:1: undeclared state 'u'$"):
            loads("states: s\nlabel u = {p}\n")
        with pytest.raises(OcaSyntaxError, match=r"^1:1: no states declared$"):
            loads("atoms: p\n")
        with pytest.raises(OcaSyntaxError, match=r"^2:1: empty states declaration$"):
            loads("atoms: p\nstates:\n")


class TestArgumentErrors:
    """A command line argparse rejects exits 1 (malformed input), not 2 (the
    budget code); under a known subcommand it prints one error document."""

    @pytest.mark.parametrize("argv, message", [
        (("check", "--b", "x"), "argument --b: invalid int value: 'x'"),
        (("lps", "--oca", "countdown", "--src", "s"),
         "the following arguments are required: --dst"),
        (("cross-check", "--oca", "countdown", "--formula", "p", "--init", "s,0",
          "--caps", "-1,5"), "argument --caps: expected one argument"),
        (("oracle", "--oca", "countdown", "--formula", "p", "--init", "s,0", "--zzz", "1"),
         "unrecognized arguments: --zzz 1"),
    ], ids=["check", "lps", "cross-check", "oracle"])
    def test_known_subcommand_prints_an_input_error(self, capsys, schema, argv, message):
        code, doc, _ = run(capsys, *argv)
        assert code == 1
        assert doc == {"command": argv[0], "ok": False,
                       "error": {"kind": "input", "message": message}}
        check_schema(schema, doc)

    @pytest.mark.parametrize("argv, message", [
        ((), "the following arguments are required: command"),
        (("bogus", "--oca", "countdown"), "argument command: invalid choice: 'bogus'"),
    ], ids=["missing", "unknown"])
    def test_no_known_subcommand_writes_stderr_only(self, capsys, argv, message):
        assert main(list(argv)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"ocasync: error: {message}" in captured.err

    def test_help_still_exits_zero(self, capsys):
        for argv in (["-h"], ["check", "-h"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
            assert "usage: ocasync" in capsys.readouterr().out


class TestOtherCommands:
    def test_constants_bundle(self, capsys, schema):
        code, doc, _ = run(
            capsys, "constants", "--oca", "countdown", "--formula", "p UA p",
            "--b", "3",
        )
        assert code == 0
        check_schema(schema, doc)
        bundle = doc["data"]["bundle"]
        assert bundle["b"] == 3 and bundle["segments"] == 5

    def test_constants_default_bound_is_symbolic(self, capsys, schema):
        code, doc, _ = run(
            capsys, "constants", "--oca", "asym-fork", "--formula", "p UA p",
        )
        assert code == 0
        check_schema(schema, doc)
        assert doc["data"]["bundle"]["P"]["kind"] == "lcm-poly"

    def test_oracle_verdict(self, capsys, schema):
        code, doc, _ = run(
            capsys, "oracle", "--oca", "increment-loop", "--formula", "FA p",
            "--init", "s,0", "--counter-cap", "5", "--level-cap", "5",
        )
        assert code == 0 and doc["data"]["verdict"] == "FALSE"
        check_schema(schema, doc)

    def test_mine_period(self, capsys, schema):
        code, doc, _ = run(
            capsys, "mine-period", "--oca", "countdown", "--formula", "EX p",
            "--state", "s", "--v-cap", "20",
        )
        assert code == 0 and doc["data"]["pair"] == {"t": 1, "p": 1}
        check_schema(schema, doc)

    def test_cross_check(self, capsys, schema):
        code, doc, _ = run(
            capsys, "cross-check", "--oca", "countdown", "--formula", "FA p",
            "--init", "s,0", "--init", "s,1", "--init", "s,5",
        )
        assert code == 0
        check_schema(schema, doc)
        assert doc["data"]["counts"].get("AGREE", 0) == 3

    def test_cross_check_honours_the_scheme_bound(self, capsys, schema):
        # the default bound needs three states; the countdown has one
        code, doc, _ = run(
            capsys, "cross-check", "--oca", "countdown", "--formula", "FA p",
            "--init", "s,3", "--mode", "paper", "--b", "1", "--caps", "30,60",
        )
        assert code == 0
        check_schema(schema, doc)
        assert doc["data"]["counts"] == {"AGREE": 1}

    def test_cross_check_honours_the_node_budget(self, capsys, schema):
        code, doc, _ = run(
            capsys, "cross-check", "--oca", "random-b", "--formula", "E true U p",
            "--init", "x,0", "--mode", "paper", "--budget", "5", "--caps", "30,60",
        )
        assert code == 0
        check_schema(schema, doc)
        assert doc["data"]["checkerError"].endswith("over the budget of 5")

    def test_repeated_main_calls_share_no_state(self, capsys):
        # the parser is built once per process; parsed values must not leak
        # from one call into the next
        argv = ("cross-check", "--oca", "countdown", "--formula", "EX p",
                "--mode", "supplied:1,1")
        code, doc, _ = run(capsys, *argv, "--init", "s,0", "--init", "s,1")
        assert code == 0 and len(doc["data"]["rows"]) == 2
        code, doc, _ = run(capsys, *argv, "--init", "s,2")
        assert code == 0
        assert [r["init"] for r in doc["data"]["rows"]] == ["s,2"]

    def test_check_lemma11(self, capsys, schema):
        code, doc, _ = run(
            capsys, "check-lemma11", "--oca", "countdown", "--b", "1",
        )
        assert code == 0
        check_schema(schema, doc)
        assert doc["data"]["cases"] > 0
        seg0 = {k: v for k, v in doc["data"]["summary"].items() if "segment0" in k}
        assert seg0 and all(v.get("fail", 0) == 0 for v in seg0.values())

    def test_check_lemma11_levels_below_zero_are_not_audited(self, capsys, schema):
        # segment 1 at counter 5 starts at level -2; its levels -2 and -1
        # used to be read from the end of the traces and listed as failures
        code, doc, _ = run(capsys, "check-lemma11", "--oca", "countdown", "--prev-t", "3",
                           "--prev-p", "2", "--b", "1", "--counter", "5")
        assert code == 0 and doc["data"]["cases"] == 72
        assert doc["data"]["failures"] and all(
            f["length"] >= 0 for f in doc["data"]["failures"])
        check_schema(schema, doc)

    def test_check_lemma11_skips_truncated_levels(self, capsys, schema):
        # counters past 12 are cut, so every level they reach is skipped, not failed
        code, doc, _ = run(capsys, "check-lemma11", "--oca", "increment-loop", "--b", "1",
                           "--counter-cap", "12")
        assert code == 0 and doc["data"]["cases"] == 96 and not doc["data"]["failures"]
        summary = doc["data"]["summary"]
        assert summary["1a/outside-core"] == summary["1b/outside-core"] == {
            "pass": 10, "skipped": 26}
        assert summary["2a/segment>=1"] == {"pass": 1, "skipped": 5}
        check_schema(schema, doc)

    def test_check_lemma11_drops_core_levels_past_the_level_cap(self, capsys, schema):
        argv = ("check-lemma11", "--oca", "fork", "--b", "1")
        code, doc, _ = run(capsys, *argv)
        assert code == 0 and doc["data"]["cases"] == 288
        assert doc["data"]["summary"]["2a/segment>=1"] == {"pass": 18}
        code, doc, _ = run(capsys, *argv, "--level-cap", "3")
        assert code == 0 and doc["data"]["cases"] == 66
        assert "2a/segment>=1" not in doc["data"]["summary"]
        check_schema(schema, doc)

    def test_lps_with_reach(self, capsys, schema):
        code, doc, _ = run(
            capsys, "lps", "--oca", "countdown", "--src", "s", "--dst", "s",
            "--flat", "1", "--size", "1", "--start", "s,5",
            "--target-length", "3",
        )
        assert code == 0
        check_schema(schema, doc)
        reached = [r for s in doc["data"]["schemes"] for r in s.get("reached", [])]
        assert any(r["config"] == "s,2" for r in reached)

    def test_sat_sets(self, capsys, schema):
        code, doc, _ = run(
            capsys, "sat-sets", "--oca", "countdown", "--formula", "E true U p",
        )
        assert code == 0
        check_schema(schema, doc)
        assert doc["data"]["perState"]["s"]["residues"] == [0]


def error_bytes(command, message):
    doc = {"command": command, "ok": False, "error": {"kind": "input", "message": message}}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


class TestConstantRecursionErrors:
    """``constants`` and ``check --mode paper`` share one recursion but word
    its missing UE case differently; errors come in subformula order."""

    UA_ERROR = "default scheme bound needs at least 3 states; pass an override"

    def test_ue_messages(self, capsys):
        code, _, out = run(capsys, "constants", "--oca", "countdown", "--formula", "p UE p")
        assert code == 1
        assert out == error_bytes("constants", "the constant recursion covers UA but not UE")
        code, _, out = run(
            capsys, "check", "--oca", "countdown", "--formula", "p UE p",
            "--init", "s,0", "--mode", "paper",
        )
        assert code == 1
        assert out == error_bytes(
            "check",
            "the constant recursion covers only the all-paths synchronized "
            "operator; use supplied or empirical mode for UE",
        )

    def test_inner_ua_error_comes_before_the_ue_error(self, capsys):
        code, _, out = run(
            capsys, "constants", "--oca", "countdown", "--formula", "(FA p) UE p",
        )
        assert code == 1 and out == error_bytes("constants", self.UA_ERROR)
        code, _, out = run(
            capsys, "check", "--oca", "countdown", "--formula", "(FA p) UE p",
            "--init", "s,0", "--mode", "paper",
        )
        assert code == 1 and out == error_bytes("check", self.UA_ERROR)


class TestErrorsAndDeterminism:
    def test_malformed_formula_position(self, capsys, schema):
        code, doc, _ = run(
            capsys, "check", "--oca", "countdown", "--formula", "p &",
            "--init", "s,0",
        )
        assert code == 1 and doc["error"]["kind"] == "input"
        assert "1:4" in doc["error"]["message"]
        check_schema(schema, doc)

    def test_unknown_mode_is_input_error(self, capsys, schema):
        code, doc, _ = run(
            capsys, "check", "--oca", "countdown", "--formula", "true",
            "--init", "s,0", "--mode", "psychic",
        )
        assert code == 1
        check_schema(schema, doc)

    def test_unknown_names_are_input_errors(self, capsys, schema):
        code, doc, _ = run(
            capsys, "check", "--oca", "countdown", "--formula", "p", "--init", "nope,0",
        )
        assert code == 1 and doc["error"]["message"] == "\"unknown state 'nope'\""
        check_schema(schema, doc)
        code, doc, _ = run(capsys, "validate", "--oca", "corpus:nope")
        assert code == 1 and doc["error"]["message"].startswith(
            "\"unknown corpus automaton 'nope'; have [")

    def test_key_error_inside_the_library_is_internal(self, capsys, schema, monkeypatch):
        def broken(*args):
            raise KeyError("lost node")

        monkeypatch.setattr(mc, "unfold_kripke", broken)
        code, doc, _ = run(
            capsys, "check", "--oca", "countdown", "--formula", "FA p", "--init", "s,2",
        )
        assert code == 3 and doc["error"]["kind"] == "internal"
        assert doc["error"]["message"] == "KeyError: 'lost node'"
        check_schema(schema, doc)

    def test_oracle_region_over_budget(self, capsys, schema, monkeypatch):
        # two states, so counter cap c needs 2 * (c + 1) configurations
        monkeypatch.setenv("OCASYNC_BUDGET", "42")
        code, doc, _ = run(
            capsys, "oracle", "--oca", "countdown", "--formula", "p", "--init", "s,0",
            "--counter-cap", "20",
        )
        assert code == 0 and doc["data"]["verdict"] == "FALSE"
        code, doc, _ = run(
            capsys, "oracle", "--oca", "countdown", "--formula", "p", "--init", "s,0",
            "--counter-cap", "21",
        )
        assert code == 2 and doc["error"]["kind"] == "budget"
        assert (doc["error"]["required"], doc["error"]["budget"]) == (44, 42)
        check_schema(schema, doc)

    def test_mining_samples_over_budget(self, capsys, schema, monkeypatch):
        # the region, 2 * 21 configurations, fits; 51 sampled counters do not
        monkeypatch.setenv("OCASYNC_BUDGET", "45")
        argv = ["mine-period", "--oca", "countdown", "--formula", "p", "--state", "s",
                "--counter-cap", "20"]
        code, doc, _ = run(capsys, *argv, "--v-cap", "44")
        assert code == 0 and doc["data"]["pair"] == {"t": 0, "p": 1}
        code, doc, _ = run(capsys, *argv, "--v-cap", "50")
        assert code == 2 and doc["error"]["kind"] == "budget"
        assert (doc["error"]["required"], doc["error"]["budget"]) == (51, 45)
        check_schema(schema, doc)

    def test_audit_traces_over_budget(self, capsys, schema, monkeypatch):
        # countdown's default audit at b = 1 traces levels 0..15 over two
        # states and counters 0..25: 16 * 2 * 26 configurations
        argv = ["check-lemma11", "--oca", "countdown", "--b", "1"]
        monkeypatch.setenv("OCASYNC_BUDGET", "832")
        code, doc, _ = run(capsys, *argv)
        assert code == 0 and doc["data"]["cases"] > 0
        monkeypatch.setenv("OCASYNC_BUDGET", "831")
        code, doc, _ = run(capsys, *argv)
        assert code == 2 and doc["error"]["kind"] == "budget"
        assert (doc["error"]["required"], doc["error"]["budget"]) == (832, 831)
        check_schema(schema, doc)

    LPS_REACH = ("lps", "--oca", "countdown", "--src", "s", "--dst", "s", "--flat", "2",
                 "--size", "1", "--start", "s,5", "--target-length", "3")

    def test_lps_report_over_budget(self, capsys, schema, monkeypatch):
        # 6 rows of 8 transition indices in all, with 3 reached configurations
        code, doc, _ = run(capsys, *self.LPS_REACH)
        rows = doc["data"]["schemes"]
        assert (len(rows), sum(r["flatLength"] for r in rows),
                sum(len(r["reached"]) for r in rows)) == (6, 8, 3)
        monkeypatch.setenv("OCASYNC_BUDGET", "17")
        code, doc, _ = run(capsys, *self.LPS_REACH)
        assert code == 0 and len(doc["data"]["schemes"]) == 6
        monkeypatch.setenv("OCASYNC_BUDGET", "16")
        code, doc, _ = run(capsys, *self.LPS_REACH)
        assert code == 2 and doc["error"]["kind"] == "budget"
        assert (doc["error"]["required"], doc["error"]["budget"]) == (17, 16)
        check_schema(schema, doc)

    def test_lps_max_schemes_keeps_the_first_rows(self, capsys):
        _, every, _ = run(capsys, *self.LPS_REACH)
        for cap in (0, 1, 4):
            code, doc, _ = run(capsys, *self.LPS_REACH, "--max-schemes", str(cap))
            assert code == 0 and doc["data"]["schemes"] == every["data"]["schemes"][:cap]

    def test_lps_report_budget_stops_a_large_enumeration(self):
        # 822,396 schemes holding 6,393,757 transition indices, too many to
        # keep in the child's 1 GB address space: without the budget the
        # report exits 3 with a MemoryError
        env = dict(os.environ, OCASYNC_BUDGET="50000")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        child = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from ocasync.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", child, "lps", "--oca", "random-a", "--src", "x", "--dst",
             "x", "--flat", "8", "--size", "4", "--max-schemes", "100000000"],
            capture_output=True, env=env, timeout=120,
        )
        doc = json.loads(proc.stdout)
        assert proc.returncode == 2 and doc["error"]["kind"] == "budget"
        # one row of at most 8 transitions went over
        assert doc["error"]["budget"] == 50000 and 50000 < doc["error"]["required"] <= 50009
        assert proc.stderr == b""

    def test_lps_frontier_budget_stops_a_large_cap_search(self):
        # at target length and exponent cap 400 the frontier stack of this
        # search peaks at 27,399 entries; under a budget of 20,000 the run
        # stops with exit 2 and a budget document in the child's 1 GB
        env = dict(os.environ, OCASYNC_BUDGET="20000")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        child = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from ocasync.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", child, "lps", "--oca", "random-a", "--src", "x", "--dst",
             "x", "--flat", "5", "--size", "3", "--start", "x,3", "--target-length", "400",
             "--exp-cap", "400", "--max-schemes", "100000"],
            capture_output=True, env=env, timeout=120,
        )
        doc = json.loads(proc.stdout)
        assert proc.returncode == 2 and doc["error"]["kind"] == "budget"
        assert doc["error"]["message"].startswith("lps frontier needs ")
        # checked after each stepped entry, which adds at most 401
        assert doc["error"]["budget"] == 20000 and 20000 < doc["error"]["required"] <= 20401
        assert proc.stderr == b""

    def test_check_lemma11_at_a_huge_scheme_bound_fits_in_2_gb(self):
        # the segment count at b = 10^8 is a sum of 10^8 totients; a sieve
        # over all of them does not fit in the child's 2 GB address space and
        # exits 3 with a MemoryError, where the audit should refuse the
        # symbolic bundle as input
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        child = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
            "from ocasync.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", child, "check-lemma11", "--oca", "fork", "--b", "100000000"],
            capture_output=True, env=env, timeout=120,
        )
        doc = json.loads(proc.stdout)
        assert proc.returncode == 1 and doc["error"] == {
            "kind": "input", "message": "audit needs a materialized (scaled-down) bundle"}
        assert proc.stderr == b""

    def test_byte_identical_reruns(self, capsys):
        argv = ["check", "--oca", "fork", "--formula", "E true U p", "--init", "s,3"]
        _, _, first = run(capsys, *argv)
        _, _, second = run(capsys, *argv)
        assert first == second

    def test_sorted_set_output(self, capsys):
        _, doc, _ = run(capsys, "sat-sets", "--oca", "fork", "--formula", "p | q")
        for u in doc["data"]["perState"].values():
            assert u["base"] == sorted(u["base"])
            assert u["residues"] == sorted(u["residues"])


class TestUndeclaredAtoms:
    """Every command that reads a formula refuses atoms the automaton does
    not declare, with the message ``check_oca`` gives."""

    @pytest.mark.parametrize("argv", [
        ("check", "--init", "s,0"),
        ("sat-sets",),
        ("cross-check", "--init", "s,0"),
        ("oracle", "--init", "s,0"),
        ("mine-period", "--state", "s"),
        ("constants",),
    ], ids=lambda argv: argv[0])
    def test_refused(self, capsys, argv):
        command, *rest = argv
        code, _, out = run(capsys, command, "--oca", "countdown", "--formula", "p & r", *rest)
        assert code == 1
        assert out == error_bytes(command, "formula uses undeclared atoms ['r']")


class TestExitCodes:
    """Input errors exit 1 with their message; any other ``ValueError``
    is a library bug and exits 3."""

    @pytest.mark.parametrize("argv, message", [
        (("check", "--oca", "countdown", "--formula", "p", "--init", "s,x"),
         "invalid literal for int() with base 10: 'x'"),
        (("check", "--oca", "countdown", "--formula", "p", "--init", "s,0",
          "--mode", "supplied:0,0"), "supplied pair must have t >= 0 and p >= 1"),
        (("oracle", "--oca", "countdown", "--formula", "p", "--init", "s,0",
          "--counter-cap", "-1"), "caps must be non-negative"),
        (("mine-period", "--oca", "countdown", "--formula", "p", "--state", "s",
          "--v-cap", "1"), "need at least counters 0..2 to mine a period"),
        (("check-lemma11", "--oca", "countdown", "--b", "1", "--level-cap", "-1"),
         "caps must be non-negative"),
        (("check-lemma11", "--oca", "countdown", "--b", "30"),
         "audit needs a materialized (scaled-down) bundle"),
        (("check-lemma11", "--oca", "countdown", "--b", "1", "--counter", "0"),
         "audited counters must exceed the counter threshold"),
        (("check-lemma11", "--oca", "countdown", "--b", "1", "--prev-p", "0"),
         "previous period must be positive and threshold non-negative"),
        (("check-lemma11", "--oca", "countdown", "--b", "1", "--prev-t", "100"),
         "period does not dominate the inherited threshold; "
         "the scheme-bound override is too small for these subformulas"),
        (("constants", "--oca", "countdown", "--formula", "FA p", "--b", "0"),
         "scheme bound must be positive"),
        (("check", "--oca", "countdown", "--formula", "FA p", "--init", "s,0",
          "--mode", "paper"), "default scheme bound needs at least 3 states; pass an override"),
        (("lps", "--oca", "countdown", "--src", "s", "--dst", "s", "--start", "s,5",
          "--target-length", "-1"), "target length must be non-negative"),
        (("lps", "--oca", "countdown", "--src", "s", "--dst", "s", "--flat", "-1"),
         "flat length bound must be non-negative"),
        (("lps", "--oca", "countdown", "--src", "s", "--dst", "s", "--size", "-1"),
         "size bound must be non-negative"),
        (("lps", "--oca", "countdown", "--src", "s", "--dst", "s", "--exp-cap", "-1"),
         "exponent cap must be non-negative"),
        (("lps", "--oca", "countdown", "--src", "s", "--dst", "s", "--max-schemes", "-1"),
         "scheme limit must be non-negative"),
        (("check", "--oca", "countdown", "--formula", "p", "--init", "s,0",
          "--mode", "supplied:x,1"), "malformed supplied pair in 'supplied:x,1'"),
        (("check", "--oca", "countdown", "--formula", "p", "--init", "s,0",
          "--caps", "60"), "malformed caps '60'; use counterCap,levelCap"),
        (("check",), "check needs an automaton, a formula, and an init "
                     "(from flags or a job file)"),
        (("oracle", "--oca", "countdown", "--formula", "p", "--init", "s"),
         "expected 'state,counter', got 's'"),
    ], ids=lambda v: v if isinstance(v, str) else v[0])
    def test_input_errors_exit_one(self, capsys, argv, message):
        code, _, out = run(capsys, *argv)
        assert code == 1 and out == error_bytes(argv[0], message)

    @pytest.mark.parametrize("argv", [
        ("--src", "t", "--dst", "s", "--start", "t,1"),  # no scheme from t to s
        ("--src", "s", "--dst", "s", "--start", "s,1", "--max-schemes", "0"),
        ("--src", "s", "--dst", "s", "--start", "s,1"),
    ], ids=["no-scheme", "no-row", "schemes"])
    def test_lps_negative_target_length_exits_one_before_enumerating(self, argv):
        # the length is checked whether or not a scheme is ever reached from
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "ocasync", "lps", "--oca", "countdown", *argv,
             "--target-length", "-1"],
            capture_output=True, env=env, timeout=120,
        )
        assert proc.returncode == 1 and proc.stderr == b""
        assert proc.stdout.decode() == error_bytes("lps", "target length must be non-negative")

    def test_invalid_automaton_exits_one(self, capsys, tmp_path):
        path = tmp_path / "blocking.oca"
        path.write_text("states: s\natoms: p\ns -[=0,0]-> s\n")
        code, _, out = run(capsys, "check", "--oca", str(path), "--formula", "p",
                           "--init", "s,0")
        assert code == 1
        assert out == error_bytes("check", "invalid automaton: missing >0-successor at state s")

    def test_malformed_json_exits_one(self, capsys, tmp_path):
        with pytest.raises(json.JSONDecodeError) as exc:
            json.loads("{\"states\": ")
        path = tmp_path / "broken.json"
        path.write_text("{\"states\": ")
        code, _, out = run(capsys, "validate", "--oca", str(path))
        assert code == 1 and out == error_bytes("validate", str(exc.value))
        code, _, out = run(capsys, "check", "--job", str(path))
        assert code == 1 and out == error_bytes("check", str(exc.value))

    def test_input_error_types(self):
        for cls in (OcaSyntaxError, FormulaSyntaxError, UnknownNameError,
                    UncoveredOperatorError):
            assert issubclass(cls, InputError)
        assert issubclass(UnknownNameError, KeyError)
        with pytest.raises(InputError, match="^supplied mode needs a threshold/period pair$"):
            mc.check_oca(corpus.load("countdown"), parse_formula("p"), Configuration(0, 0),
                         "supplied")

    @pytest.mark.parametrize("target", ["unfold_kripke", "_label_mask"])
    def test_value_error_inside_the_library_is_internal(
        self, capsys, schema, monkeypatch, target
    ):
        def broken(*args):
            raise ValueError("lost node")

        monkeypatch.setattr(mc, target, broken)
        code, doc, _ = run(
            capsys, "check", "--oca", "countdown", "--formula", "FA p", "--init", "s,2",
        )
        assert code == 3 and doc["error"] == {
            "kind": "internal", "message": "ValueError: lost node"}
        check_schema(schema, doc)

    def test_malformed_budget_variable_exits_one(self, capsys, schema, monkeypatch):
        monkeypatch.setenv("OCASYNC_BUDGET", "abc")
        code, doc, out = run(capsys, "check", "--oca", "countdown", "--formula", "FA p",
                             "--mode", "supplied:2,2", "--init", "s,0")
        assert code == 1
        assert out == error_bytes(
            "check", "OCASYNC_BUDGET must be a non-negative integer, not 'abc'")
        check_schema(schema, doc)

    def test_closed_stdout_keeps_the_exit_code_and_prints_no_traceback(self):
        # the document is about 2 MB, far more than a pipe buffers, so the
        # write fails once the reader has gone
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "ocasync", "lps", "--oca", "random-a", "--src", "x",
             "--dst", "x", "--flat", "5", "--size", "3", "--max-schemes", "100000",
             "--start", "x,3", "--target-length", "16"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=120) == 0
        assert stderr == b""

    @pytest.mark.parametrize("flag", [("--start", "s,5"), ("--target-length", "3")],
                             ids=lambda flag: flag[0])
    def test_lps_reach_flags_come_together(self, capsys, flag):
        code, _, out = run(capsys, "lps", "--oca", "countdown", "--src", "s", "--dst", "s",
                           "--flat", "1", "--size", "1", *flag)
        assert code == 1
        assert out == error_bytes("lps", "--start and --target-length must be given together")


BIG = "1000000000"
CD = ("--oca", "countdown")
CD_FA = (*CD, "--formula", "FA p")
CD_LPS = ("lps", *CD, "--src", "s", "--dst", "s")
RB_UE = ("--oca", "random-b", "--formula", "p UE q", "--init", "x,0")
UNCERTIFIED = ("no periodic pattern certified for 'p UE q' at state x within counters "
               "0..20; raise the caps or supply a pair")

CAP_PROBES = [
    (("oracle", *CD_FA, "--init", "s,0", "--counter-cap", BIG), None),
    (("oracle", *CD_FA, "--init", "s,0", "--level-cap", BIG), None),
    (("check", *CD_FA, "--init", "s,0", "--caps", f"{BIG},200"), None),
    (("check", *CD_FA, "--init", "s,0", "--caps", f"60,{BIG}"), None),
    (("mine-period", *CD_FA, "--state", "s", "--v-cap", BIG), None),
    (("check", *CD_FA, "--init", "s,0", "--mine-v-cap", BIG), None),
    (("check-lemma11", *CD, "--counter", BIG), None),
    (("check-lemma11", *CD, "--prev-t", BIG), None),
    (("check-lemma11", *CD, "--prev-p", BIG), None),
    ((*CD_LPS, "--flat", BIG), None),
    ((*CD_LPS, "--size", BIG), None),
    ((*CD_LPS, "--max-schemes", BIG), None),
    ((*CD_LPS, "--start", "s,5", "--target-length", BIG), None),
    ((*CD_LPS, "--start", "s,5", "--target-length", "3", "--exp-cap", BIG), None),
    ((*CD_LPS, "--start", f"s,{BIG}", "--target-length", "3"), None),
    (("check", *CD_FA, "--init", f"s,{BIG}"), None),
    (("check", *CD_FA, "--init", "s,0", "--mode", f"supplied:{BIG},1"), None),
    (("check", *CD_FA, "--init", "s,0", "--mode", f"supplied:1,{BIG}"), None),
    (("oracle", *RB_UE, "--counter-cap", "40", "--level-cap", BIG), (0, "FALSE")),
    (("check", *RB_UE, "--caps", f"40,{BIG}"), (2, UNCERTIFIED)),
    (("check", *RB_UE, "--caps", "40,100000000"), (2, UNCERTIFIED)),
    (("cross-check", *RB_UE, "--caps", f"40,{BIG}"), (0, "FALSE")),
    (("oracle", *RB_UE, "--counter-cap", "30000", "--level-cap", "100000"), (0, "FALSE")),
    (("oracle", *CD, "--formula", "true UE p", "--init", "t,5", "--counter-cap", "3000",
      "--level-cap", BIG), (0, "TRUE")),
    (("oracle", *CD, "--formula", "true UE p", "--init", "t,5", "--counter-cap", "30000",
      "--level-cap", "100000"), (0, "TRUE")),
]


class TestCapProbes:
    """Every integer flag at 10^9, each run in a child limited to a 1 GB
    address space.  Every cap-sized allocation but the oracle's UE distance
    layers is checked against the budget before it is made, so each run
    answers or exits 1 or 2; it never exits 3 with a ``MemoryError``, and
    never runs past the wall limit.  Left out: ``--b``, whose constant
    recursion at a huge scheme bound still runs out of memory (an open
    ROADMAP item), and ``--budget``, which raises the budget itself: set
    above what memory holds, it can still exit 3.  The UE rows used to exit
    3 under 1 GB, when the distance index tiled every mask out to the level
    cap; their outcomes are pinned too.  The countdown rows' layers repeat
    only after about counter cap steps, so the row at counter cap 30000
    fits the wall limit only if neither the index nor the scan takes a
    Python step per configuration of every layer."""

    WALL_S = 60

    @pytest.mark.parametrize("argv, want", CAP_PROBES,
                             ids=[" ".join(argv) for argv, _ in CAP_PROBES])
    def test_exits_zero_one_or_two_under_1_gb(self, schema, argv, want):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        child = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from ocasync.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        proc = subprocess.run([sys.executable, "-c", child, *argv],
                              capture_output=True, env=env, timeout=self.WALL_S)
        doc = json.loads(proc.stdout)
        assert proc.returncode in (0, 1, 2), doc
        assert proc.stderr == b""
        check_schema(schema, doc)
        if want is not None:
            code, answer = want
            assert proc.returncode == code
            if code:
                assert doc["error"]["message"] == answer
            elif argv[0] == "cross-check":
                assert [row["oracle"] for row in doc["data"]["rows"]] == [answer]
            else:
                assert doc["data"]["verdict"] == answer


class TestDeeplyNestedFormulas:
    """Nesting up to ``MAX_DEPTH`` is checked as before; one level more is
    malformed input (exit 1), never a ``RecursionError`` (exit 3)."""

    @pytest.mark.parametrize("command", ["check", "oracle", "cross-check", "sat-sets"])
    @pytest.mark.parametrize("shape", NESTED_SHAPES)
    def test_one_level_past_the_limit_is_input(self, capsys, schema, command, shape):
        argv = [command, "--oca", "countdown"]
        if command != "sat-sets":
            argv += ["--init", "s,3"]
        if command != "oracle":
            argv += ["--mode", "supplied:1,1"]
        code, doc, _ = run(capsys, *argv, "--formula", nested(shape, MAX_DEPTH))
        assert code == 0, doc
        code, doc, _ = run(capsys, *argv, "--formula", nested(shape, MAX_DEPTH + 1))
        assert code == 1 and doc["error"]["kind"] == "input"
        check_schema(schema, doc)


class TestNoCyclicGarbage:
    """A successful job leaves nothing for the cyclic collector: every
    search and cache it builds is freed by reference counting.  The first
    run of a job may build process-wide state (the argument parser), so the
    second is the one measured."""

    @pytest.mark.parametrize("argv", [
        ("lps", "--oca", "random-a", "--src", "x", "--dst", "x", "--flat", "5", "--size", "3",
         "--start", "x,3", "--target-length", "16", "--max-schemes", "100000"),
        ("check", "--oca", "countdown", "--formula", "p UA p", "--init", "s,3"),
        ("sat-sets", "--oca", "countdown", "--formula", "EX p", "--mode", "supplied:1,1"),
        ("cross-check", "--oca", "countdown", "--formula", "p UE p", "--init", "s,3"),
        ("constants", "--oca", "countdown", "--formula", "EX (FA (EX p))", "--b", "2"),
        ("check-lemma11", "--oca", "countdown", "--b", "1", "--counter", "40"),
        ("oracle", "--oca", "countdown", "--formula", "p UA p", "--init", "s,3"),
        ("mine-period", "--oca", "countdown", "--formula", "p UA p", "--state", "s"),
    ], ids=lambda argv: argv[0])
    def test_one_job(self, capsys, argv):
        assert main(list(argv)) == 0
        codes = []
        assert cyclic_garbage(lambda: codes.append(main(list(argv)))) == 0
        assert codes == [0]
        capsys.readouterr()


class _Level(IntEnum):
    LOW = -3
    HIGH = 2**70


class _Name(str):
    pass


_strings = st.text() | st.text(
    alphabet=st.characters(max_codepoint=0x1F) | st.sampled_from('"\\/\x7f\xe9\u2028\ud800\U0001f600')
)
_leaves = (
    st.none() | st.booleans() | _strings
    | st.integers() | st.integers(min_value=2**64) | st.integers(max_value=-(2**64))
)
# values that ``_dumps`` hands to ``json.dumps``
_fallback = st.floats() | st.sampled_from(list(_Level)) | _strings.map(_Name)
_documents = st.recursive(
    _leaves | _fallback,
    lambda kids: (
        st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
        | st.dictionaries(_strings, kids, max_size=4)
        | st.dictionaries(st.integers(), kids, max_size=4)
    ),
    max_leaves=40,
)


class TestEmitter:
    """The CLI prints ``json.dumps(doc, indent=2, sort_keys=True)`` byte for
    byte, through its own emitter.  These run on every Python version of the
    tier-1 matrix; the pinned output digests are checked on one only."""

    @given(_documents)
    @example({"b": [], "a": {}, "c": (), "d": [[{}], ((), [None, True, False])]})
    @example([math.nan, math.inf, -math.inf, -0.0, 1e300, {2: "x", -1: [_Level.LOW]}])
    @example({"k": {1: {"nested": [1.5, {3: ()}]}}, "\u00e9\"\\": _Name("\x00")})
    def test_matches_json_dumps(self, value):
        assert _dumps(value) == json.dumps(value, indent=2, sort_keys=True)

    @pytest.mark.parametrize("argv", [
        ("check", "--oca", "countdown", "--formula", "FA p", "--init", "s,2"),
        ("sat-sets", "--oca", "fork", "--formula", "p | q"),
        ("constants", "--oca", "asym-fork", "--formula", "p UA p"),
        ("oracle", "--oca", "increment-loop", "--formula", "FA p", "--init", "s,0",
         "--counter-cap", "5", "--level-cap", "5"),
        ("mine-period", "--oca", "countdown", "--formula", "EX p", "--state", "s",
         "--v-cap", "20"),
        ("cross-check", "--oca", "countdown", "--formula", "FA p", "--init", "s,0",
         "--init", "s,5"),
        ("check-lemma11", "--oca", "countdown", "--b", "1"),
        ("lps", "--oca", "fork", "--src", "s", "--dst", "s", "--flat", "3",
         "--size", "2", "--start", "s,2", "--target-length", "4"),
        ("validate", "--oca", "fork"),
        pytest.param(("oracle", "--oca", "countdown", "--formula", "p &", "--init", "s,0"),
                     id="input-error"),
    ], ids=lambda argv: argv[0])
    def test_every_subcommand_prints_json_dumps_bytes(self, capsys, argv):
        _, doc, out = run(capsys, *argv)
        assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"


_int_lists = st.lists(st.integers() | st.integers(min_value=2**64), max_size=4)
_reached_entries = st.tuples(
    _strings,
    st.none() | _int_lists,
    st.dictionaries(st.fractions().map(str), st.integers(min_value=0), max_size=4),
)


def lps_row_text(alpha0, flat_length, segments, size, reached=None):
    """The row ``lps`` writes: ``_row`` over ``alpha0`` and each (beta,
    alpha) segment written the way ``_cmd_lps`` writes them."""
    return _row(_row_ints(alpha0), flat_length,
                _items([_segment_text(s) for s in segments], _ROW_KEY), size, reached)


def lps_row_dict(alpha0, flat_length, segments, size, reached=None) -> dict:
    """The dict that ``lps_row_text(alpha0, flat_length, segments, size,
    reached)`` writes."""
    row = {
        "alpha0": list(alpha0),
        "segments": [{"beta": list(b), "alpha": list(a)} for b, a in segments],
        "flatLength": flat_length,
        "size": size,
    }
    if reached is not None:
        row["reached"] = [
            {"config": c, "exponents": None if e is None else list(e), "slopeRepetitions": s}
            for c, e, s in reached
        ]
    return row


class TestLpsRows:
    """``lps`` writes each scheme row as its final text, at its place in the
    document; the document is still ``json.dumps(indent=2, sort_keys=True)``
    byte for byte."""

    @given(
        _int_lists, st.integers(min_value=0), st.lists(st.tuples(_int_lists, _int_lists), max_size=3),
        st.integers(min_value=0), st.none() | st.lists(_reached_entries, max_size=3),
    )
    @example([], 0, [], 0, None)
    @example([], 0, [], 0, [])
    @example([], 2, [([], []), ([4, 5], [])], 2, [("s,0", None, {})])
    @example([0], 3, [([1], [])], 1,
             [("s,1", [2], {"-1/2": 2}), ("s,2", [0], {"0": 0}), ("s,3", [1], {})])
    @example([7], 1, [([1], [2])], 1, [('q"\\\u00e9,4', [3, 0], {"1/3": 0, "-1": 1, "0": 2})])
    def test_matches_json_dumps_at_the_row_indent(self, alpha0, flat, segments, size, reached):
        row = lps_row_dict(alpha0, flat, segments, size, reached)
        text = lps_row_text(alpha0, flat, segments, size, reached)
        assert text == json.dumps(row, indent=2, sort_keys=True).replace("\n", "\n" + " " * 6)
        doc = {"command": "lps", "data": {"from": "s", "schemes": [row, row]}, "ok": True}
        written = {**doc, "data": {**doc["data"], "schemes": [text, text]}}
        assert _dumps(written) == json.dumps(doc, indent=2, sort_keys=True)

    def test_state_names_that_need_escaping(self, capsys, schema, tmp_path):
        names = ['q"1', "b\\", "\u00e9t\u00e9"]
        q, b, e = names
        automaton = {
            "states": names, "atoms": ["p"], "label": {e: ["p"]},
            "transitions": [
                {"src": q, "guard": ">0", "effect": -1, "dst": b},
                {"src": q, "guard": "=0", "effect": 1, "dst": e},
                {"src": b, "guard": ">0", "effect": 0, "dst": q},
                {"src": b, "guard": "=0", "effect": 0, "dst": q},
                {"src": e, "guard": ">0", "effect": 1, "dst": e},
                {"src": e, "guard": "=0", "effect": 0, "dst": q},
            ],
        }
        path = tmp_path / "escapes.json"
        path.write_text(json.dumps(automaton))
        code, doc, out = run(capsys, "lps", "--oca", str(path), "--src", q, "--dst", e,
                             "--flat", "6", "--size", "2", "--start", f"{q},3",
                             "--target-length", "8", "--max-schemes", "100000")
        assert code == 0
        check_schema(schema, doc)
        assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"
        configs = {r["config"] for row in doc["data"]["schemes"] for r in row.get("reached", [])}
        assert any(c.startswith(e + ",") for c in configs), configs
        assert "\\u00e9" in out and '"from": "q\\"1"' in out

    def test_slope_keys_match_analyze_cycle_repetitions(self, capsys, tmp_path):
        # per reached configuration: the CLI keys its repetitions by the
        # slopes it computed once per scheme
        compared = 0
        for seed in range(40):
            rng = random.Random(seed)
            oca = random_total_oca(rng, n_states=rng.randint(1, 3))
            names = oca.state_names
            compared += self.check_slope_keys(
                capsys, tmp_path, oca, rng.choice(names), rng.choice(names), rng.randint(1, 4),
                rng.randint(0, 2), f"{rng.choice(names)},{rng.randint(0, 5)}", rng.randint(0, 10))
        assert compared >= 300, compared

    def test_equal_slopes_of_different_lengths_share_a_key(self, capsys, tmp_path):
        # at s a 2-cycle and a 4-cycle, both of slope 1/2; at exponent cap 2
        # a shaped path of length 12 takes each of them twice
        oca = loads(
            "states: s a b c d\natoms: p\n"
            "s -[>0,+1]-> a\na -[>0,0]-> s\n"
            "s -[>0,+1]-> b\nb -[>0,0]-> c\nc -[>0,+1]-> d\nd -[>0,0]-> s\n"
            + "".join(f"{x} -[=0,+1]-> {x}\n" for x in "sabcd")
        )
        assert self.check_slope_keys(capsys, tmp_path, oca, "s", "s", 6, 2, "s,1", 12, 2) > 0
        _, doc, _ = run(capsys, "lps", "--oca", str(tmp_path / "oca.json"), "--src", "s",
                        "--dst", "s", "--flat", "6", "--size", "2", "--start", "s,1",
                        "--target-length", "12", "--exp-cap", "2", "--max-schemes", "100000")
        merged = [
            r for row in doc["data"]["schemes"]
            if sorted(len(seg["beta"]) for seg in row["segments"]) == [2, 4]
            for r in row["reached"]
        ]
        assert merged
        for r in merged:
            assert (r["config"], r["exponents"], r["slopeRepetitions"]) == ("s,7", [2, 2], {"1/2": 4})

    @staticmethod
    def check_slope_keys(capsys, tmp_path, oca, src, dst, flat, size, start, length,
                         exp_cap=32) -> int:
        """Run ``lps`` with a reach query; check every reached entry against
        ``shaped_reach``, ``shaped_witness_exponents`` and
        ``analyze_cycle_repetitions``, and return how many there were."""
        path = tmp_path / "oca.json"
        path.write_text(json.dumps(oca_to_json(oca)))
        code, doc, _ = run(capsys, "lps", "--oca", str(path), "--src", src, "--dst", dst,
                           "--flat", str(flat), "--size", str(size), "--start", start,
                           "--target-length", str(length), "--exp-cap", str(exp_cap),
                           "--max-schemes", "100000")
        assert code == 0
        init = parse_configuration(oca, start)
        schemes = list(lps.enumerate_lps(oca, oca.state_index(src), oca.state_index(dst),
                                         flat, size))
        rows = doc["data"]["schemes"]
        assert len(rows) == len(schemes)
        entries = 0
        for row, scheme in zip(rows, schemes):
            assert {k: v for k, v in row.items() if k != "reached"} == lps_row_dict(
                scheme.alpha0, scheme.flat_length, scheme.segments, scheme.size)
            reach = sorted(lps.shaped_reach(oca, scheme, init, length, exp_cap))
            assert [r["config"] for r in row["reached"]] == [
                f"{oca.state_names[c.state]},{c.counter}" for c in reach]
            for cfg, entry in zip(reach, row["reached"]):
                exps = lps.shaped_witness_exponents(oca, scheme, init, cfg, length, exp_cap)
                assert exps is not None and entry["exponents"] == list(exps)
                assert entry["slopeRepetitions"] == {
                    str(k): v
                    for k, v in lps.analyze_cycle_repetitions(oca, scheme, list(exps)).items()
                }
                entries += 1
        return entries
