"""Exit codes, report formats, and determinism of the command line."""

import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import LEFT3_TEXT, chain_machine

from forge import cli
from forge.cli import main
from forge.formulas import free_vars
from forge.prop import node_to_prop
from forge.sexpr import parse_formula, read_one

MACHINES = Path(__file__).resolve().parents[1] / "src" / "forge" / "machines"
PK = Path(__file__).resolve().parents[1] / "src" / "forge" / "pk"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# --- exit code contract ---

def test_oracle_test_reports_pass(capsys):
    code, out, _ = run(capsys, "oracle-test", "--tm", str(MACHINES / "scan1.tm"),
                       "--max-len", "6")
    assert code == 0
    assert "acc-equivalence: PASS" in out


def test_oracle_test_reports_a_mismatch(monkeypatch, capsys):
    # the formula's verdict flipped on one input shows as its one mismatch
    real = cli.eval_acc
    monkeypatch.setattr(cli, "eval_acc", lambda tm, p, x: real(tm, p, x) != (x == "11"))
    argv = ("oracle-test", "--tm", str(MACHINES / "scan1.tm"), "--max-len", "3")
    code, out, _ = run(capsys, *argv)
    assert (code, out.splitlines()[1:]) == \
        (1, ["inputs: 7", "mismatches: 1", "acc-equivalence: FAIL"])
    code, out, _ = run(capsys, *argv, "--json")
    data = json.loads(out)
    assert (code, data["inputs"], data["mismatches"], data["pass"]) == (1, 7, ["11"], False)


def test_invalid_proof_is_domain_failure(tmp_path, capsys):
    bad = tmp_path / "bad.pk"
    bad.write_text("1: (seq () ((pv z 0))) axiom\n")
    code, out, _ = run(capsys, "check-proof", "--proof", str(bad))
    assert code == 1
    assert "proof: REJECTED" in out
    # no target: an endsequent with a left side, or no lines at all
    for text in ("1: (seq ((pv z 0)) ((pv z 0))) axiom\n", "# no lines\n"):
        bad.write_text(text)
        code, out, _ = run(capsys, "check-proof", "--proof", str(bad))
        assert (code, "proof: REJECTED" in out) == (1, True), text


def test_eval_parse_error_is_domain_failure(tmp_path, capsys):
    f = tmp_path / "f.sexp"
    f.write_text("(leq (+ 1) 0)\n")
    code, out, err = run(capsys, "eval", "--formula", str(f), "--num-bound", "4")
    assert (code, out) == (1, "")
    assert err == "forge eval: error: 1:6: (+ t t) takes two arguments\n"


def test_eval_unbound_variable_is_usage_error(tmp_path, capsys):
    f = tmp_path / "f.sexp"
    f.write_text("(= x (+ 1 1))\n")
    code, _, err = run(capsys, "eval", "--formula", str(f), "--num-bound", "8")
    assert code == 2
    assert "usage: forge eval" in err
    assert "unbound variable(s): x" in err


def test_usage_errors_print_the_offending_grammar(capsys):
    code, _, err = run(capsys, "compile-nepo", "--tm", str(MACHINES / "scan1.tm"),
                       "--m", "4", "--eps", "3/2", "--k", "2")
    assert code == 2
    assert "usage: forge compile-nepo" in err


def test_unknown_subcommand_and_missing_subcommand():
    assert main(["bogus"]) == 2
    assert main([]) == 2


def test_missing_required_flag_is_usage_error():
    assert main(["compile-acc"]) == 2


def test_unreadable_input_path_is_usage_error(capsys):
    code, _, err = run(capsys, "check-proof", "--proof", "/nonexistent.pk")
    assert code == 2
    assert "cannot read" in err


# --- eval bindings ---

def test_eval_binds_both_sorts(tmp_path, capsys):
    f = tmp_path / "f.sexp"
    f.write_text("(and (in i X) (= i 1))")
    code, out, _ = run(capsys, "eval", "--formula", str(f), "--num-bound", "4",
                       "--bind", "X=01", "--bind", "i=1")
    assert (code, out) == (0, "value: true\n")
    code, out, _ = run(capsys, "eval", "--formula", str(f), "--num-bound", "4",
                       "--bind", "X=10", "--bind", "i=1")
    assert (code, out) == (0, "value: false\n")


def test_eval_rejects_stray_and_malformed_bindings(tmp_path, capsys):
    f = tmp_path / "f.sexp"
    f.write_text("(= x x)")
    assert run(capsys, "eval", "--formula", str(f), "--num-bound", "2",
               "--bind", "x=1", "--bind", "y=2")[0] == 2
    assert run(capsys, "eval", "--formula", str(f), "--num-bound", "2",
               "--bind", "x")[0] == 2
    assert run(capsys, "eval", "--formula", str(f), "--num-bound", "2",
               "--bind", "x=ten")[0] == 2


def test_eval_string_quantifier_needs_width(tmp_path, capsys):
    f = tmp_path / "f.sexp"
    f.write_text("(exS W (+ 1 1) (in 0 W))")
    code, out, _ = run(capsys, "eval", "--formula", str(f), "--num-bound", "4",
                       "--str-width", "2")
    assert (code, out) == (0, "value: true\n")
    # without the width the slice cannot sweep the quantifier
    assert run(capsys, "eval", "--formula", str(f), "--num-bound", "4")[0] == 1


def test_eval_rejects_nonpositive_num_bound(tmp_path, capsys):
    f = tmp_path / "f.sexp"
    f.write_text("(= 1 1)")
    assert run(capsys, "eval", "--formula", str(f), "--num-bound", "0")[0] == 2


# --- compile subcommands ---

def test_compile_acc_prints_a_parseable_formula(capsys):
    code, out, _ = run(capsys, "compile-acc", "--tm", str(MACHINES / "parity.tm"),
                       "--poly", "2,1")
    assert code == 0
    parse_formula(out)


def test_compile_acc_var_names_the_input(capsys):
    code, out, _ = run(capsys, "compile-acc", "--tm", str(MACHINES / "parity.tm"),
                       "--poly", "2,1", "--var", "Y")
    assert code == 0
    assert free_vars(parse_formula(out)) == (set(), {"Y"})


@pytest.mark.parametrize("var", ["x", "1X", "", "W", "X-1", "X Y"])
def test_compile_acc_rejects_bad_var(capsys, var):
    # lowercase, non-identifier and empty names print a formula the reader
    # rejects; W would be captured by the witness binder exS W
    code, out, err = run(capsys, "compile-acc", "--tm", str(MACHINES / "parity.tm"),
                         "--poly", "2,1", "--var", var)
    assert (code, out) == (2, "")
    assert "usage: forge compile-acc" in err
    assert "--var" in err
    proc = subprocess.run([sys.executable, "-m", "forge.cli", "compile-acc", "--tm",
                           str(MACHINES / "parity.tm"), "--poly", "2,1", "--var", var],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


def test_compile_nepo_report_and_out_file(tmp_path, capsys):
    dest = tmp_path / "nepo.sexp"
    code, out, _ = run(capsys, "compile-nepo", "--tm", str(MACHINES / "scan1.tm"),
                       "--m", "4", "--eps", "1/3", "--k", "2", "--out", str(dest))
    assert code == 0
    assert f"wrote: {dest}" in out
    assert "nodes[acceptance]:" in out
    parse_formula(dest.read_text())


def test_unwritable_out_is_usage_error(tmp_path, capsys):
    for dest in (tmp_path, tmp_path / "missing" / "f.sexp"):
        code, out, err = run(capsys, "compile-acc", "--tm", str(MACHINES / "parity.tm"),
                             "--poly", "2,1", "--out", str(dest))
        assert (code, out) == (2, ""), dest
        assert f"cannot write {dest}" in err
        assert "usage: forge compile-acc" in err


def test_compile_nepo_budget_failure_is_domain_error(capsys):
    # span 1 cannot cover the step budget without an explicit depth
    code, _, err = run(capsys, "compile-nepo", "--tm", str(MACHINES / "scan1.tm"),
                       "--m", "4", "--eps", "1/2", "--k", "2")
    assert code == 1
    assert "error" in err


def test_node_cap_blocks_large_output(monkeypatch, capsys):
    monkeypatch.setenv("FORGE_NODE_CAP", "100")
    code, _, err = run(capsys, "compile-acc", "--tm", str(MACHINES / "parity.tm"),
                       "--poly", "2,1")
    assert code == 1
    assert "FORGE_NODE_CAP" in err
    monkeypatch.setenv("FORGE_NODE_CAP", "10000000")
    assert run(capsys, "compile-acc", "--tm", str(MACHINES / "parity.tm"),
               "--poly", "2,1")[0] == 0
    monkeypatch.setenv("FORGE_NODE_CAP", "many")
    assert run(capsys, "compile-acc", "--tm", str(MACHINES / "parity.tm"),
               "--poly", "2,1")[0] == 2
    monkeypatch.setenv("FORGE_NODE_CAP", "0")
    code, _, err = run(capsys, "compile-acc", "--tm", str(MACHINES / "parity.tm"),
                       "--poly", "2,1")
    assert code == 2 and "FORGE_NODE_CAP must be positive" in err


# --- translate ---

def test_translate_reports_shape(tmp_path, capsys):
    f = tmp_path / "f.sexp"
    f.write_text("(alN i (len X) (or (in i X) (not (in i X))))")
    code, out, _ = run(capsys, "translate", "--formula", str(f), "--len", "X=3",
                       "--json")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"subcommand", "formula", "lengths", "values",
                         "nodes", "depth", "prop"}
    node_to_prop(read_one(data["prop"]))


def test_translate_missing_length_is_usage_error(tmp_path, capsys):
    f = tmp_path / "f.sexp"
    f.write_text("(in 0 X)")
    code, _, err = run(capsys, "translate", "--formula", str(f))
    assert code == 2
    assert "unbound variable(s): X" in err


def test_translate_refuses_string_quantifiers(tmp_path, capsys):
    f = tmp_path / "f.sexp"
    f.write_text("(exS W (+ 1 1) (in 0 W))")
    assert run(capsys, "translate", "--formula", str(f))[0] == 1


# --- mfv ---

def test_mfv_reports_value_and_table(capsys):
    code, out, _ = run(capsys, "mfv", "--tree", "1011", "--a", "4",
                       "--input", "1101")
    assert code == 0
    assert out.splitlines() == ["value: 1", "table: 11101101", "mfv-check: PASS"]


def test_mfv_reports_a_failed_check(monkeypatch, capsys):
    real = cli.check_mfv
    monkeypatch.setattr(cli, "check_mfv", lambda *args: not real(*args))
    argv = ("mfv", "--tree", "1011", "--a", "4", "--input", "1101")
    code, out, _ = run(capsys, *argv)
    assert (code, out.splitlines()) == (1, ["value: 1", "table: 11101101", "mfv-check: FAIL"])
    code, out, _ = run(capsys, *argv, "--json")
    data = json.loads(out)
    assert (code, data["table"], data["check"]) == (1, "11101101", False)


def test_mfv_bad_geometry_is_usage_error(capsys):
    assert run(capsys, "mfv", "--tree", "101", "--a", "4", "--input", "1101")[0] == 2
    assert run(capsys, "mfv", "--tree", "1012", "--a", "4", "--input", "1101")[0] == 2
    for node in ("0", "-1"):  # the root is node 1
        code, _, err = run(capsys, "mfv", "--tree", "1011", "--a", "4",
                           "--input", "1101", "--node", node)
        assert code == 2 and "Traceback" not in err


# --- check-proof ---

def test_check_proof_accepts_corpus_and_depth_variants(capsys):
    proof = str(PK / "corpus01.pk")
    assert run(capsys, "check-proof", "--proof", proof)[0] == 0
    assert run(capsys, "check-proof", "--proof", proof, "--depth", "4")[0] == 0
    assert run(capsys, "check-proof", "--proof", proof, "--depth", "0")[0] == 1


def test_check_proof_json_schema(capsys):
    code, out, _ = run(capsys, "check-proof", "--proof", str(PK / "corpus02.pk"),
                       "--json")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"subcommand", "proof", "system", "lines", "accepted"}
    assert data["accepted"] is True


def test_check_proof_malformed_text_is_domain_failure(tmp_path, capsys):
    bad = tmp_path / "junk.pk"
    bad.write_text("this is not a proof\n")
    assert run(capsys, "check-proof", "--proof", str(bad))[0] == 1


# --- reflect ---

def test_reflect_sweep_honest_and_broken(capsys):
    base = ("reflect", "--system", "frege", "--t", "12", "--x", "1", "--sweep")
    code, out, _ = run(capsys, *base)
    assert (code, "reflection: HOLDS" in out) == (0, True)
    code, out, _ = run(capsys, *base, "--broken")
    assert (code, "reflection: FAILS" in out) == (1, True)


def test_reflect_emits_parseable_instance(capsys):
    code, out, _ = run(capsys, "reflect", "--system", "frege", "--t", "12",
                       "--x", "1")
    assert code == 0
    parse_formula(out)


def test_reflect_depth_frege_needs_d(capsys):
    assert run(capsys, "reflect", "--system", "depth-frege", "--t", "12",
               "--x", "1")[0] == 2
    assert run(capsys, "reflect", "--system", "depth-frege", "--d", "2",
               "--t", "12", "--x", "1", "--sweep")[0] == 0


def test_reflect_checks_d_as_check_proof_checks_depth(capsys):
    """A negative --d is a usage error worded as check-proof's --depth -1,
    not the library's unknown proof system; --d 0 is a depth."""
    reflect = ["reflect", "--system", "depth-frege", "--t", "4", "--x", "1"]
    code, out, err = run(capsys, *reflect, "--d", "-1")
    assert (code, out) == (2, "")
    assert "error: --d must be non-negative" in err and "unknown proof system" not in err
    code, out, err = run(capsys, "check-proof", "--proof", str(PK / "corpus01.pk"),
                         "--depth", "-1")
    assert (code, out) == (2, "") and "error: --depth must be non-negative" in err
    code, out, _ = run(capsys, *reflect, "--d", "0")
    assert code == 0
    parse_formula(out)


# --- determinism and JSON stability ---

def test_stdout_is_deterministic(capsys):
    argv = ("oracle-test", "--tm", str(MACHINES / "zeros.tm"), "--max-len", "4",
            "--sample", "3", "--seed", "9", "--json")
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second
    data = json.loads(first[1])
    assert set(data) == {"subcommand", "machine", "poly", "max_len", "seed",
                         "sample", "inputs", "mismatches", "pass"}


def test_compile_acc_json_schema(capsys):
    code, out, _ = run(capsys, "compile-acc", "--tm", str(MACHINES / "zeros.tm"),
                       "--poly", "2,1", "--json")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"subcommand", "machine", "poly", "nodes", "class",
                         "formula"}
    assert data["class"] == "SigmaB(1)"


def test_module_entry_point_matches_function(tmp_path):
    f = tmp_path / "f.sexp"
    f.write_text("(= x (+ 1 1))\n")
    proc = subprocess.run(
        [sys.executable, "-m", "forge.cli", "eval", "--formula", str(f),
         "--num-bound", "8"],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert "usage: forge eval" in proc.stderr


def test_deep_nesting_is_a_parse_error_not_a_crash(tmp_path):
    formula = tmp_path / "deep.sexp"
    formula.write_text("(not " * 2999 + "(leq 0 1)" + ")" * 2999)
    flat = tmp_path / "flat.sexp"  # nests 2 deep as written, 2000 once folded
    flat.write_text("(and" + " (leq 0 1)" * 2000 + ")")
    proof = tmp_path / "deep.pk"
    f = "(pnot " * 2997 + "(pv z 0)" + ")" * 2997
    proof.write_text(f"1: (seq ({f}) ({f})) axiom\n")
    em = tmp_path / "em.pk"  # excluded middle over a 398-deep formula, 400 at the end
    a = "(pnot " * 397 + "(pv z 0)" + ")" * 397
    em.write_text(f"1: (seq ({a}) ({a})) axiom\n"
                  f"2: (seq () ((pnot {a}) {a})) not-right 1\n"
                  f"3: (seq () ((por (pnot {a}) {a}))) or-right 2\n")
    for argv in (["eval", "--formula", str(formula), "--num-bound", "2"],
                 ["translate", "--formula", str(formula)],
                 ["eval", "--formula", str(flat), "--num-bound", "2"],
                 ["translate", "--formula", str(flat)],
                 ["check-proof", "--proof", str(proof)],
                 ["check-proof", "--proof", str(em)]):
        proc = subprocess.run([sys.executable, "-m", "forge.cli", *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 1, argv
        assert "Traceback" not in proc.stderr
        assert "nest deeper than" in proc.stderr
    # under the cap: 440 and/or pairs nest 881 deep, and so does the image
    alt = tmp_path / "alt.sexp"
    alt.write_text("(and (in 0 X) (or (in 1 X) " * 440 + "(in 0 X)" + "))" * 440)
    proc = subprocess.run([sys.executable, "-m", "forge.cli", "translate",
                           "--formula", str(alt), "--len", "X=3", "-v"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    assert "1761 nodes, depth 881" in proc.stderr


def test_module_entry_point_is_quiet():
    proc = subprocess.run([sys.executable, "-m", "forge.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "usage: forge" in proc.stdout
    assert "RuntimeWarning" not in proc.stderr


def test_compile_nepo_wide_constants_do_not_recurse():
    # m = 256 holds a constant of 991 bits: compiling, sizing and printing
    # it must not recurse once per bit. The printed text does not yet read
    # back (it nests past the reader's cap); that gap is pinned as an xfail
    # in tests/test_nepo.py::test_acceptance_at_m256_reads_back
    proc = subprocess.run([sys.executable, "-m", "forge.cli", "compile-nepo",
                           "--tm", str(MACHINES / "parity.tm"), "--m", "256",
                           "--eps", "1/3", "--k", "2"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    assert proc.stdout.startswith("(and ")


def test_compile_acc_takes_a_thousand_rule_trans_chain(tmp_path):
    # TRANS is a right-nested conjunction of one clause per rule; sizing,
    # classifying and printing it must not take a frame per link
    tm = tmp_path / "chain500.tm"
    tm.write_text(chain_machine(500))
    proc = subprocess.run([sys.executable, "-m", "forge.cli", "compile-acc",
                           "--tm", str(tm), "--poly", "2,1", "--json"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["class"] == "SigmaB(1)"


@pytest.mark.parametrize("poly", ["2,1", "0,0,1", "1,1,1"])
def test_oracle_test_agrees_on_left_moves(tmp_path, capsys, poly):
    # LEFT3's verdict depends on its step budget, which accepts reads off
    # the raw string and eval_acc off the set: only strings ending in 1
    # give both the same input
    tm = tmp_path / "left3.tm"
    tm.write_text(LEFT3_TEXT)
    code, out, _ = run(capsys, "oracle-test", "--tm", str(tm), "--poly", poly,
                       "--max-len", "4")
    assert code == 0
    assert "inputs: 15\nmismatches: 0\nacc-equivalence: PASS" in out


# --- bound flags ---

def test_bound_flags_are_validated(tmp_path, capsys):
    f = tmp_path / "f.sexp"
    f.write_text("(leq 0 1)\n")
    nepo = ["compile-nepo", "--tm", str(MACHINES / "scan1.tm"), "--m", "4", "--k", "2"]
    for argv, message in [
            (["eval", "--formula", str(f), "--num-bound", "0"], "--num-bound must be positive"),
            (["eval", "--formula", str(f), "--num-bound", "4", "--str-width", "-1"],
             "--str-width must be non-negative"),
            (nepo + ["--eps", "2/1"], "bad --eps '2/1': need 0 < p < q"),
            (nepo + ["--eps", ""], "bad --eps '': expected the form p/q"),
            (nepo + ["--eps", "a/3"], "bad --eps 'a/3': expected the form p/q"),
            (nepo + ["--eps", "1/2", "--d", "-1"], "depth must be non-negative"),
            (["eval", "--formula", str(f), "--num-bound", "4", "--bind", "i=-1"],
             "bad binding 'i=-1': value must be non-negative"),
            (["eval", "--formula", str(f), "--num-bound", "4", "--bind", "_x=1"],
             "bad binding '_x=1': name must be a sorted identifier"),
            (["reflect", "--system", "depth-frege", "--d", "-1", "--t", "4", "--x", "1"],
             "--d must be non-negative")]:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert f"usage: forge {argv[0]}" in err
        assert message in err
    code, out, _ = run(capsys, "eval", "--formula", str(f), "--num-bound", "4",
                       "--str-width", "0")
    assert (code, out) == (0, "value: true\n")


FLAG_CHECKS = [
    pytest.param("check-proof", "--proof", PK / "corpus01.pk", ["--depth", "-1"],
                 "--depth must be non-negative", id="check-proof--depth"),
    pytest.param("eval", "--formula", "good.sexp", ["--num-bound", "4", "--bind", "X=2"],
                 "--bind X must be a string of 0s and 1s", id="eval--bind"),
    pytest.param("translate", "--formula", "good.sexp", ["--len", "X=a"],
                 "--len 'X=a': length must be an integer", id="translate--len"),
    pytest.param("translate", "--formula", "good.sexp", ["--val", "i=-1"],
                 "value of i must be non-negative", id="translate--val"),
    pytest.param("compile-acc", "--tm", MACHINES / "scan1.tm", ["--poly", "x"],
                 "bad polynomial 'x'", id="compile-acc--poly"),
    pytest.param("compile-acc", "--tm", MACHINES / "scan1.tm",
                 ["--poly", "2,1", "--var", "x"], "bad --var 'x'", id="compile-acc--var"),
    pytest.param("compile-nepo", "--tm", MACHINES / "scan1.tm",
                 ["--m", "1", "--eps", "1/3", "--k", "2"], "need m >= 2",
                 id="compile-nepo--m"),
    pytest.param("oracle-test", "--tm", MACHINES / "scan1.tm", ["--max-len", "0"],
                 "--max-len must be positive", id="oracle-test--max-len"),
    pytest.param("oracle-test", "--tm", MACHINES / "scan1.tm",
                 ["--max-len", "2", "--sample", "-1"], "--sample must be non-negative",
                 id="oracle-test--sample"),
]


@pytest.mark.parametrize("sub, file_flag, good, flags, message", FLAG_CHECKS)
def test_flag_values_are_checked_before_the_input_is_read(tmp_path, capsys, sub,
                                                          file_flag, good, flags, message):
    (tmp_path / "good.sexp").write_text("(leq 0 1)\n")
    bad = tmp_path / "bad"
    bad.write_text("(garbage\n")
    # a malformed input file does not hide the flag's error behind exit 1
    for path in (tmp_path / good, bad):
        code, out, err = run(capsys, sub, file_flag, str(path), *flags)
        assert (code, out) == (2, ""), (path, err)
        assert f"usage: forge {sub}" in err and message in err, err


# --- fuzzing: small argv from each subcommand's flags ---

def mix(good, bad):
    """Mostly a good value, so handlers run; sometimes a bad one."""
    return st.integers(0, 3).flatmap(lambda n: good if n else bad)


def fuzz_flags(tmp: Path) -> dict[str, dict]:
    """Per subcommand, a value strategy per flag (None for a switch).

    Numbers stay small, so every run is quick."""
    def files(name, *texts):
        paths = []
        for n, text in enumerate(texts):
            path = tmp / f"{n}.{name}"
            path.write_text(text)
            paths.append(str(path))
        return st.sampled_from(paths)

    unreadable = st.sampled_from([str(tmp / "missing" / "in"), str(tmp)])
    junk = st.text("01,/=-xXWi ", max_size=3)

    def num(lo, hi):
        return mix(st.integers(lo, hi).map(str), st.sampled_from(["-1", "", "x", "1.5"]))

    tm = mix(st.sampled_from([str(MACHINES / "scan1.tm"), str(MACHINES / "parity.tm")])
             | files("tm", "states 1\n1 0 -> 1 0 0\n1 1 -> 1 1 0\n"),
             unreadable | files("bad.tm", "", "states 2\n1 0 -> 9 9 9\n", "states x\n"))
    poly = mix(st.sampled_from(["2,1", "1,1", "1", "0,2"]),
               st.sampled_from(["0", "1,-1", "2,1,0"]) | junk)
    formula = mix(files("sexp", "(and (in i X) (leq i 2))", "(exS Y (+ 1 1) (in 0 Y))",
                        "(alN i (len X) (or (in i X) (not (in i X))))", "(= x (+ 1 1))"),
                  unreadable | files("bad.sexp", "", "(leq 0", "(in x i)",
                                     "(not " * 1000 + "(leq 0 1)" + ")" * 1000))
    bind = mix(st.sampled_from(["X=01", "X=1", "i=1", "i=2", "x=0"]),
               st.sampled_from(["X=2", "i=-1", "i=x", "x", "=1", "Y=3"]) | junk)
    out = mix(st.just(str(tmp / "out.txt")),
              st.sampled_from([str(tmp), str(tmp / "missing" / "out")]))
    bits = mix(st.text("01", min_size=1, max_size=8), junk)
    return {
        "compile-acc": {"--tm": tm, "--poly": poly, "--out": out,
                        "--var": mix(st.sampled_from(["X", "Y", "In_1"]),
                                     st.sampled_from(["W", "x", "1X"]) | junk)},
        "compile-nepo": {"--tm": tm, "--m": num(1, 8), "--k": num(1, 3), "--c": num(1, 2),
                         "--d": num(0, 3), "--out": out,
                         "--eps": mix(st.sampled_from(["1/3", "1/2", "2/3"]),
                                      st.sampled_from(["3/2", "0/1", "1/0"]) | junk)},
        "eval": {"--formula": formula, "--num-bound": num(1, 6), "--str-width": num(0, 3),
                 "--bind": bind},
        "translate": {"--formula": formula, "--len": bind, "--val": bind,
                      "--num-bound": num(1, 6), "--out": out},
        "mfv": {"--tree": bits, "--a": num(1, 8), "--input": bits, "--node": num(1, 7)},
        "check-proof": {"--depth": num(0, 4), "--proof": mix(
            st.sampled_from([str(PK / "corpus01.pk"), str(PK / "corpus05.pk")]),
            unreadable | files("pk", "", "1: (seq () ((pv z 0))) axiom\n", "junk",
                               "(pnot " * 900))},
        "reflect": {"--system": st.sampled_from(["frege", "depth-frege", "x"]),
                    "--d": num(0, 3), "--x": num(0, 2), "--sweep": None, "--broken": None,
                    "--t": mix(st.sampled_from(["0,1", "1", "0,2", "2,1"]),
                               st.sampled_from(["", "x", "0,-1", "0"])),
                    "--num-bound": num(1, 5), "--str-width": num(0, 3), "--out": out},
        "oracle-test": {"--tm": tm, "--max-len": num(1, 4), "--poly": poly,
                        "--sample": num(0, 3), "--seed": num(0, 3)},
    }


@st.composite
def fuzz_argv(draw, sub: str, flags: dict) -> list[str]:
    argv = [sub]
    for flag in draw(st.permutations(sorted(flags) + ["--json", "-v"])):
        if draw(st.integers(0, 7)):  # most flags present, so handlers run
            argv.append(flag)
            if flags.get(flag) is not None:
                argv.append(draw(flags[flag]))
    return argv


@pytest.mark.parametrize("sub", ["compile-acc", "compile-nepo", "eval", "translate",
                                 "mfv", "check-proof", "reflect", "oracle-test"])
def test_fuzzed_argv_exits_cleanly(tmp_path, sub):
    flags = fuzz_flags(tmp_path)[sub]

    @settings(max_examples=40, deadline=None)
    @given(fuzz_argv(sub, flags))
    def exits_cleanly(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err.getvalue(), argv

    exits_cleanly()
