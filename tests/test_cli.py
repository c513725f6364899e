"""CLI behavior: output format, exit codes, golden agreement with the library."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from pkb.backward import truep
from pkb.cli import _render_answers, main
from pkb.kb import KnowledgeBase
from pkb.sexpr import parse_sentence as S

FOO_KB = """
(fact (foo fred) (0.3 . 0.2))
(fact (foo harry) (0.7 . 0.0))
"""

ROOT = Path(__file__).resolve().parent.parent

CLASH_KB = """
(rule (and (p $x) (q $y)) (r $x $y) (0.9 . 0))
(fact (p a) (1 . 0))
(fact (q b) (1 . 0))
"""

TWEETY_KB = """
(rule (bird $x) (flies $x) (0.7 . 0.0))
(rule (ostrich $x) (flies $x) (0 . 1))
(fact (bird Tweety) (1 . 0))
(fact (ostrich Tweety) (1 . 0))
"""


@pytest.fixture
def foo_file(tmp_path):
    path = tmp_path / "foo.pkb"
    path.write_text(FOO_KB)
    return str(path)


@pytest.fixture
def tweety_file(tmp_path):
    path = tmp_path / "tweety.pkb"
    path.write_text(TWEETY_KB)
    return str(path)


class TestQuery:
    def test_lookup_example(self, foo_file, capsys):
        code = main(["--kb", foo_file, "query", "(foo $x)", "--cutoff", "0.5"])
        out = capsys.readouterr().out
        assert code == 0
        assert out == "{$x=harry} 0.7\n"

    def test_tweety_not_tag(self, tweety_file, capsys):
        code = main(["--kb", tweety_file, "query", "(flies Tweety)", "--tag", "not"])
        out = capsys.readouterr().out.strip()
        assert code == 0
        binding, value = out.rsplit(" ", 1)
        assert binding == "{}"
        assert float(value) == pytest.approx(1.0, abs=1e-9)

    def test_absent_fact_exits_one(self, capsys):
        code = main(["query", "(zzz q)"])
        assert capsys.readouterr().out == ""
        assert code == 1

    def test_answers_sorted_by_value(self, foo_file, capsys):
        code = main(["--kb", foo_file, "query", "(foo $x)", "--cutoff", "0.0"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out == ["{$x=harry} 0.7", "{$x=fred} 0.3"]

    def test_matches_library_rendering(self, tweety_file, capsys):
        code = main(["--kb", tweety_file, "query", "(flies $x)", "--tag", "not", "--cutoff", "0.5"])
        out = capsys.readouterr().out
        assert code == 0
        kb = KnowledgeBase()
        kb.load_text(TWEETY_KB)
        answers = truep(kb, S("(flies $x)"), "not", 0.5)
        expected = "".join(line + "\n" for line in _render_answers(answers))
        assert out == expected

    def test_method_override(self, tweety_file, capsys):
        code = main(["--kb", tweety_file, "query", "(flies Tweety)", "--method", "bc", "--tag", "not", "--cutoff", "0.9"])
        assert code == 0
        assert capsys.readouterr().out.startswith("{}")

    @pytest.mark.parametrize("method", ["lookup", "bc", "resolution", None])
    def test_out_of_range_cutoff_exits_two(self, tweety_file, capsys, method):
        argv = ["--kb", tweety_file, "query", "(flies Tweety)", "--cutoff", "2"]
        code = main(argv + (["--method", method] if method else []))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "cutoff must be in [0, 1]" in captured.err

    def test_parse_error_exits_two(self, capsys):
        code = main(["query", "(unbalanced"])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("extra", [1, 0], ids=["bound_above_depth", "bound_at_depth"])
    def test_chain_deeper_than_the_interpreter_stack_runs_to_its_bound(self, tmp_path, capsys, extra):
        # (pN k) is solved at depth N, and the bound is max-chain-depth alone
        levels = 3 * sys.getrecursionlimit()
        path = tmp_path / "deep.pkb"
        # loading derives (p0 k) at depth N, within N + 1; the query runs
        # under the bound the file sets last
        rules = "".join(f"(rule (p{i + 1} $x) (p{i} $x) (0.9 . 0))\n" for i in range(levels - 1, -1, -1))
        path.write_text(
            f"(setvar max-chain-depth {levels + 1})\n(fact (p{levels} k) (0.5 . 0))\n"
            + rules
            + f"(setvar max-chain-depth {levels + extra})\n"
        )
        code = main(["--kb", str(path), "query", "(p0 k)", "--method", "bc", "--cutoff", "0"])
        captured = capsys.readouterr()
        if extra:
            assert code == 0 and captured.err == ""
            bindings, value = captured.out.split()
            assert bindings == "{}" and float(value) == pytest.approx(0.5 * 0.9**levels, rel=1e-9)
        else:
            assert code == 2 and captured.out == ""
            assert captured.err == f"error: chain depth {levels} exceeded at (p{levels} k)\n"

    @pytest.mark.parametrize("extra", [1, 0], ids=["bound_above_depth", "bound_at_depth"])
    def test_forward_chain_deeper_than_the_interpreter_stack_runs_to_its_bound(self, tmp_path, capsys, extra):
        # loading (p0 k) chains to (pN k) at depth N
        levels = 3 * sys.getrecursionlimit()
        path = tmp_path / "deep.pkb"
        rules = "".join(f"(rule (p{i} $x) (p{i + 1} $x) (0.9 . 0))\n" for i in range(levels))
        path.write_text(f"(setvar max-chain-depth {levels + extra})\n" + rules + "(fact (p0 k) (0.5 . 0))\n")
        code = main(["--kb", str(path), "query", f"(p{levels} k)", "--cutoff", "0"])
        captured = capsys.readouterr()
        if extra:
            assert code == 0 and captured.err == ""
            bindings, value = captured.out.split()
            assert bindings == "{}" and float(value) == pytest.approx(0.5 * 0.9**levels, rel=1e-9)
        else:
            assert code == 2 and captured.out == ""
            assert captured.err == f"error: chain depth {levels} exceeded at (p{levels} k)\n"


def _nested(depth: int) -> str:
    return "(p " * depth + "a" + ")" * depth


class TestDeepTerms:
    """Terms as deep as the reader takes print and compare without
    running out of interpreter stack."""

    def test_answer_holding_a_deep_term_prints(self, tmp_path, capsys):
        path = tmp_path / "deep.pkb"
        path.write_text(f"(fact {_nested(250)} (0.5 . 0))\n")
        code = main(["--kb", str(path), "query", "(p $y)", "--cutoff", "0"])
        assert (code, capsys.readouterr().out) == (0, "{$y=" + _nested(249) + "} 0.5\n")

    def test_trace_of_a_deep_goal_prints(self, tmp_path, capsys):
        path = tmp_path / "deep.pkb"
        path.write_text(f"(fact {_nested(300)} (0.5 . 0))\n")
        code = main(["--trace", "--kb", str(path), "query", _nested(300), "--method", "bc", "--cutoff", "0"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (0, "{} 0.5\n")
        assert f"TASK goal={_nested(300)} src=fact acc=(0.5 . 0)\n" in captured.err

    def test_deep_fact_stated_twice_loads(self, tmp_path, capsys):
        # storing the second statement compares the two deep sentences
        path = tmp_path / "deep.pkb"
        path.write_text(f"(fact {_nested(399)} (0.5 . 0))\n" * 2)
        code = main(["--kb", str(path), "query", _nested(399), "--cutoff", "0"])
        assert (code, capsys.readouterr().out) == (0, "{} 0.75\n")


class TestAssertSetWhy:
    def test_assert_is_session_local_noop_without_query(self, capsys):
        code = main(["assert", "(foo fred)", "(0.4 . 0.1)"])
        assert code == 0

    def test_set_replaces_evidence(self, tweety_file, capsys, monkeypatch):
        assert main(["--kb", tweety_file, "set", "(bird Tweety)", "(0 . 0)"]) == 0
        query = 'query "(flies Tweety)" --cutoff 0.5'
        lines = iter([query, 'set "(ostrich Tweety)" "(0 . 0)"', query, "quit"])
        monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
        capsys.readouterr()
        assert main(["--kb", tweety_file]) == 0
        # (0 . 1) from the ostrich rule hides the answer until it is unset
        assert capsys.readouterr().out.splitlines()[1:] == ["{} 0.7"]

    @pytest.mark.parametrize("command", ["assert", "set"])
    def test_bad_truth_value_exits_two(self, command, capsys):
        code = main([command, "(foo fred)", "(0.9 . 0.3)"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_why_lists_justifications(self, tweety_file, capsys):
        code = main(["--kb", tweety_file, "why", "(flies Tweety)"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out == [
            "rule=r1 bind={$x=Tweety} premise=(1 . 0) contrib=(0.7 . 0)",
            "rule=r2 bind={$x=Tweety} premise=(1 . 0) contrib=(0 . 1)",
        ]

    def test_why_without_matches_exits_one(self, foo_file, capsys):
        code = main(["--kb", foo_file, "why", "(foo fred)"])
        assert code == 1

    def test_missing_kb_file_exits_two(self, capsys):
        code = main(["--kb", "/nonexistent/kb.pkb", "query", "(p)"])
        assert code == 2


class TestSetvarAndLoad:
    def test_load_validates(self, foo_file):
        assert main(["load", foo_file]) == 0

    def test_load_bad_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.pkb"
        path.write_text("(fact (foo fred) (0.9 . 0.5))")
        assert main(["load", str(path)]) == 2

    def test_setvar_ok(self):
        assert main(["setvar", "inference-cutoff", "0.2"]) == 0

    def test_setvar_out_of_range(self, capsys):
        assert main(["setvar", "accept-as-true", "0"]) == 2

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("inference-cutoff", "2", "inference-cutoff must be in [0, 1], got 2.0"),
            ("accept-as-true", "0", "accept-as-true must be in (0, 1], got 0.0"),
            ("max-chain-depth", "0", "max-chain-depth must be positive, got 0"),
        ],
    )
    def test_setvar_range_error_names_the_variable(self, name, value, message, capsys):
        assert main(["setvar", name, value]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_setvar_non_finite_exits_two(self, capsys):
        assert main(["setvar", "max-chain-depth", "inf"]) == 2
        assert capsys.readouterr().err.startswith("error: max-chain-depth must be finite")

    def test_non_finite_setvar_in_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "deep.pkb"
        path.write_text("(setvar max-chain-depth 1e400)")
        assert main(["--kb", str(path), "query", "(foo $x)"]) == 2
        assert capsys.readouterr().err.startswith("error: max-chain-depth must be finite")

    @pytest.mark.parametrize("value", ["2.7", "0.5"])
    def test_setvar_fractional_depth_exits_two(self, value, capsys):
        assert main(["setvar", "max-chain-depth", value]) == 2
        assert capsys.readouterr().err == f"error: max-chain-depth must be a whole number, got {float(value)!r}\n"

    def test_inf_word_is_a_symbol(self, tmp_path, capsys):
        path = tmp_path / "inf.pkb"
        path.write_text("(fact (foo inf) (1 . 0))")
        assert main(["--kb", str(path), "query", "(foo $x)"]) == 0
        assert capsys.readouterr().out == "{$x=inf} 1\n"


class TestTraceAndRepl:
    def test_trace_streams_to_stderr(self, tweety_file, capsys, monkeypatch):
        monkeypatch.setenv("PKB_TRACE", "1")
        code = main(["--kb", tweety_file, "query", "(flies Tweety)", "--tag", "not"])
        captured = capsys.readouterr()
        assert code == 0
        assert "FIRE rule=r1" in captured.err
        assert "FIRE" not in captured.out

    def test_repl_session(self, foo_file, capsys, monkeypatch):
        lines = iter(
            [
                f"load {foo_file}",
                'query "(foo $x)" --cutoff 0.5',
                'assert "(foo burt)" "(0.9 . 0.0)"',
                'query "(foo burt)" --cutoff 0.8',
                "quit",
            ]
        )
        monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
        code = main([])
        out = capsys.readouterr().out
        assert code == 0
        assert "{$x=harry} 0.7" in out
        assert "{} 0.9" in out

    def test_load_onto_a_kb_with_rules(self, tmp_path, capsys, monkeypatch):
        # b.pkb changes a premise of a.pkb's rules and adds a rule between
        # them; the old rules fire again only on what it changed
        first = "(rule (bird $x) (flies $x) (0.7 . 0))\n(rule (flies $x) (travels $x) (0.5 . 0.1))\n(fact (bird Tweety) (0.8 . 0))\n"
        second = "(fact (bird Tweety) (0.5 . 0))\n(fact (bird Robin) (1 . 0))\n(rule (ostrich $x) (flies $x) (0 . 1))\n(fact (ostrich Tweety) (0.5 . 0))\n"
        (tmp_path / "a.pkb").write_text(first)
        (tmp_path / "b.pkb").write_text(second)
        (tmp_path / "ab.pkb").write_text(first + second)
        query = ["query", "(travels $x)", "--cutoff", "0"]
        assert main(["--kb", str(tmp_path / "ab.pkb"), *query]) == 0
        expected = capsys.readouterr().out
        assert main(["--kb", str(tmp_path / "a.pkb"), "load", str(tmp_path / "b.pkb")]) == 0
        lines = iter([f"load {tmp_path / 'b.pkb'}", 'query "(travels $x)" --cutoff 0', "quit"])
        monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
        assert main(["--trace", "--kb", str(tmp_path / "a.pkb")]) == 0
        captured = capsys.readouterr()
        assert captured.out.endswith(expected) and expected.count("\n") == 2
        assert "SKIP" not in captured.err and captured.err.count("RETRACT") == 2

    def test_repl_recovers_from_errors(self, capsys, monkeypatch):
        lines = iter(["query (((", "nonsense walrus", "exit"])
        monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
        code = main([])
        assert code == 0


class TestFreshProcess:
    """Runs ``python -m pkb`` in a new interpreter, so that the names a
    clash needs cannot depend on what earlier tests in this process ran."""

    @pytest.mark.parametrize(
        "goal, answer",
        [("(r $y__1 $x__1)", "{$x__1=b, $y__1=a} 0.9"), ("(r $u $v)", "{$u=a, $v=b} 0.9")],
    )
    def test_query_variables_never_clash_with_rule_variables(self, tmp_path, goal, answer):
        path = tmp_path / "clash.pkb"
        path.write_text(CLASH_KB)
        result = subprocess.run(
            [sys.executable, "-m", "pkb", "--kb", str(path), "query", "--method", "bc", "--cutoff", "0.5", goal],
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (result.returncode, result.stdout, result.stderr) == (0, answer + "\n", "")
