"""CLI layer: exit codes, document formats, determinism, error surfaces."""

import dataclasses
import hashlib
import json
import subprocess
import sys

import pytest

from polybern import cli
from polybern.identities import (
    REGISTRY,
    Counterexample,
    ParameterError,
    VerificationReport,
    verify_all,
)
from polybern.series import DomainError

GENOCCHI_CSV = (
    "n,value\n"
    "0,0\n1,1\n2,-1\n3,0\n4,1\n5,0\n6,-3\n7,0\n8,17\n9,0\n10,-155\n11,0\n"
)

# `verify all` at default bounds: every default, parameter order and checked
# count.  The json document is pinned by its SHA-256 (2,075 bytes).
VERIFY_ALL_TEXT = (
    "ok    duality  [max_l=20 max_m=20 max_n=6]  checked=3087\n"
    "ok    egf  [n=4 order=14]  checked=120\n"
    "ok    ogf  [n=4 order=14]  checked=345\n"
    "ok    trivariate  [order=6]  checked=196\n"
    "ok    stirling-expansion  [n=3 r=6 order=12]  checked=26\n"
    "ok    kernel-closed-form  [n=3 order=10]  checked=66\n"
    "ok    alternating-b-sum  [max_n=30]  checked=30\n"
    "ok    genocchi-sum  [max_n=30]  checked=62\n"
    "ok    beta1-funceq  [order=30]  checked=31\n"
    "ok    g1-funceq  [order=30]  checked=31\n"
    "ok    f2-funceq  [order=30]  checked=93\n"
    "ok    funceq-remainder  [n=4 mode=series order=30]  checked=31\n"
    "ok    uniqueness-recursion  [max_m=40]  checked=118\n"
    "13/13 identities verified\n"
)
VERIFY_ALL_JSON_SHA256 = "08430f8c58af3e74275d6723ff55ba2715314296832b28f1a7304a03cda45b0a"

# `verify all --mode sample`: only the funceq-remainder line differs, and it
# reports the default points in lowest terms.  Json: 2,132 bytes.
VERIFY_ALL_SAMPLE_TEXT = VERIFY_ALL_TEXT.replace(
    "ok    funceq-remainder  [n=4 mode=series order=30]  checked=31\n",
    "ok    funceq-remainder  [n=4 mode=sample points=['1/100', '1/97', '-1/101']]  checked=3\n",
)
VERIFY_ALL_SAMPLE_TEXT_SHA256 = "65869ee2842b424de99e64eed715a2bda846b64867947719cd88801453b5b72b"
VERIFY_ALL_SAMPLE_JSON_SHA256 = "fefce6f9cb4f6c0095c3e4c2b3cd2576bffe8c90878d4daaf2e4f1e7017055ec"


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# table


def test_genocchi_golden_csv(capsys):
    code, out, err = run_cli(capsys, "table", "genocchi", "--max-n", "11")
    assert code == 0 and err == ""
    assert out == GENOCCHI_CSV


def test_table_determinism(capsys):
    first = run_cli(capsys, "table", "stirling1", "--max-n", "9", "--format", "json")
    second = run_cli(capsys, "table", "stirling1", "--max-n", "9", "--format", "json")
    assert first == second
    assert first[0] == 0


def test_table_json_shape(capsys):
    code, out, _ = run_cli(capsys, "table", "bernoulli", "--max-n", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["sequence"] == "bernoulli"
    assert doc["header"] == ["n", "value"]
    assert doc["rows"][0] == [0, 1]
    assert doc["rows"][1] == [1, "-1/2"]
    assert doc["params"] == {"max_n": 4}


def test_table_text_aligns(capsys):
    code, out, _ = run_cli(capsys, "table", "stirling2", "--max-n", "3", "--format", "text")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1 + 10  # header + rows for n <= 3
    assert len({len(line) for line in lines}) == 1  # fixed-width rows


def test_table_polybernoulli_requires_k(capsys):
    code, _, err = run_cli(capsys, "table", "polybernoulli-B")
    assert code == 2
    assert "--k" in err


def test_table_polybernoulli_negative_k(capsys):
    code, out, _ = run_cli(capsys, "table", "polybernoulli-B", "--k", "-1", "--max-n", "5")
    assert code == 0
    assert out.splitlines()[-1] == "5,-1,32"


def test_table_scriptb_requires_all_indices(capsys):
    code, _, err = run_cli(capsys, "table", "scriptB", "--m", "2", "--l", "2")
    assert code == 2 and "--n" in err


def test_table_scriptb_symmetric(capsys):
    code, out, _ = run_cli(
        capsys, "table", "scriptB", "--m", "3", "--l", "3", "--n", "2", "--format", "json"
    )
    assert code == 0
    rows = {(m, l): value for m, l, _, value in json.loads(out)["rows"]}
    for m in range(4):
        for l in range(4):
            assert rows[m, l] == rows[l, m]


def test_unknown_sequence_lists_choices(capsys):
    code, _, err = run_cli(capsys, "table", "nosuchseq")
    assert code == 2
    assert "genocchi" in err and "scriptB" in err


def test_negative_max_n_rejected(capsys):
    code, _, err = run_cli(capsys, "table", "bernoulli", "--max-n", "-3")
    assert code == 2 and "non-negative" in err


def test_output_writes_file(tmp_path, capsys):
    target = tmp_path / "genocchi.csv"
    code, out, _ = run_cli(
        capsys, "table", "genocchi", "--max-n", "11", "--output", str(target)
    )
    assert code == 0 and out == ""
    assert target.read_text(encoding="utf-8") == GENOCCHI_CSV


def test_output_to_missing_directory_exits_two(tmp_path, capsys):
    target = tmp_path / "missing" / "bernoulli.csv"
    code, out, err = run_cli(capsys, "table", "bernoulli", "--output", str(target))
    assert code == 2 and out == ""
    assert err == f"error: cannot write {target}: No such file or directory\n"
    assert not target.parent.exists()


@pytest.fixture
def no_identity_runs(monkeypatch):
    """Make every registered runner fail the test if it is called."""

    def must_not_run(*args, **kwargs):
        raise AssertionError("an identity ran before the command line was checked")

    for identity_id, entry in REGISTRY.items():
        monkeypatch.setitem(REGISTRY, identity_id, dataclasses.replace(entry, runner=must_not_run))


def test_unwritable_output_exits_two_before_any_identity_runs(tmp_path, capsys, no_identity_runs):
    target = tmp_path / "missing" / "report.txt"
    code, out, err = run_cli(capsys, "verify", "all", "--output", str(target))
    assert code == 2 and out == ""
    assert err == f"error: cannot write {target}: No such file or directory\n"


def test_out_of_contract_arguments_fail_before_any_identity_runs(capsys, no_identity_runs):
    with pytest.raises(
        ParameterError, match="^identity 'uniqueness-recursion' does not accept parameter 'order'$"
    ):
        verify_all({"uniqueness-recursion": {"order": 4}})
    with pytest.raises(ParameterError, match="^max_m must be an integer >= 2, got 1$"):
        verify_all({"uniqueness-recursion": {"max_m": 1}})
    code, out, err = run_cli(capsys, "verify", "all", "--max-m", "1")
    assert (code, out, err) == (2, "", "error: max_m must be an integer >= 2, got 1\n")
    code, out, err = run_cli(capsys, "verify", "all", "--r", "2")
    assert (code, out, err) == (2, "", "error: requires r >= n, got n=3, r=2\n")
    with pytest.raises(ParameterError, match="^sample point must be .*, got 0.1$"):
        verify_all({"funceq-remainder": {"mode": "sample", "points": (0.1,)}})
    with pytest.raises(DomainError, match="^sample point 1/100 is a pole of factor 1-100x$"):
        verify_all({"funceq-remainder": {"mode": "sample", "n": 100}})


def test_failed_run_leaves_output_as_it_was(tmp_path, capsys):
    existing, fresh = tmp_path / "existing.txt", tmp_path / "fresh.txt"
    existing.write_text("keep\n", encoding="utf-8")
    for target in (existing, fresh):
        code, out, err = run_cli(
            capsys, "verify", "funceq-remainder", "--mode", "sample", "--order", "12",
            "--output", str(target),
        )
        assert code == 2 and out == ""
        assert err == "error: order is not used in sample mode\n"
    assert existing.read_text(encoding="utf-8") == "keep\n"
    assert not fresh.exists()


# ---------------------------------------------------------------------------
# expand


def test_expand_egf_b(capsys):
    code, out, _ = run_cli(capsys, "expand", "egf-B", "--k", "-1", "--order", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["generating_function"] == "egf-B"
    assert doc["variable_orders"] == {"t": 6}
    # coefficients are B_n^(-1)/n! = 2^n/n!
    assert doc["coefficients"][0] == ["0", "1"]
    assert doc["coefficients"][3] == ["3", "4/3"]


def test_expand_requires_k(capsys):
    code, _, err = run_cli(capsys, "expand", "egf-C")
    assert code == 2 and "--k" in err


def test_expand_poly_needs_rational_x(capsys):
    code, _, err = run_cli(capsys, "expand", "egf-poly", "--k", "1", "--x", "pi")
    assert code == 2 and "rational" in err
    code, out, _ = run_cli(capsys, "expand", "egf-poly", "--k", "1", "--x=-1/2", "--order", "4")
    assert code == 0
    assert json.loads(out)["parameters"]["x"] == "-1/2"


def test_expand_scriptb_bivariate(capsys):
    code, out, _ = run_cli(capsys, "expand", "egf-scriptB", "--n", "2", "--order", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["variable_orders"] == {"x": 5, "y": 5}
    table = dict(doc["coefficients"])
    assert table["0,0"] == "2"  # n! at the origin
    # total-degree truncation: only pairs with i + j <= order appear
    assert "5,1" not in table
    # EGF symmetry in x <-> y
    for i in range(6):
        for j in range(6 - i):
            assert table[f"{i},{j}"] == table[f"{j},{i}"]


def test_expand_f1_matches_bridge(capsys):
    code, out, _ = run_cli(capsys, "expand", "ogf-f1", "--order", "8")
    assert code == 0
    table = dict(json.loads(out)["coefficients"])
    assert [table[str(i)] for i in range(2, 9)] == ["1", "0", "-1", "0", "3", "0", "-17"]


def test_expand_is_json_only(capsys):
    code, _, err = run_cli(capsys, "expand", "g1", "--format", "csv")
    assert code == 2 and "invalid choice: 'csv'" in err


def test_expand_unknown_function(capsys):
    code, _, err = run_cli(capsys, "expand", "egf-unknown")
    assert code == 2 and "egf-scriptB" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        ("table scriptB --m -1 --l 0 --n 0", "--m must be non-negative"),
        ("expand g1 --order -1", "--order must be non-negative"),
        ("expand egf-poly --k 1", "expand egf-poly requires --k and --x"),
        ("expand egf-scriptB", "expand egf-scriptB requires --n"),
        ("expand egf-scriptB --n -1", "--n must be non-negative"),
        ("table polybernoulli-B", "table polybernoulli-B requires --k"),
        ("table scriptB --m 1", "table scriptB requires --m, --l and --n"),
        ("table bernoulli --max-n -1", "--max-n must be non-negative"),
        ("expand egf-B", "expand egf-B requires --k"),
        ("expand egf-B --k 1 --order -1", "--order must be non-negative"),
        ("expand egf-poly --k 1 --x abc", "invalid rational for --x: 'abc'"),
    ],
)
def test_out_of_range_option_exits_two_with_its_message(capsys, argv, message):
    assert run_cli(capsys, *argv.split()) == (2, "", f"error: {message}\n")


# ---------------------------------------------------------------------------
# options a table sequence or expand function does not read


OPTIONS = {
    "table": ("--max-n", "--k", "--m", "--l", "--n"),
    "expand": ("--order", "--k", "--x", "--n"),
}
OPTION_VALUES = {
    "--max-n": "3", "--k": "2", "--m": "1", "--l": "1", "--n": "1", "--x": "1/2", "--order": "3",
}
READS = {
    ("table", "stirling1"): ("--max-n",),
    ("table", "stirling2"): ("--max-n",),
    ("table", "bernoulli"): ("--max-n",),
    ("table", "genocchi"): ("--max-n",),
    ("table", "polybernoulli-B"): ("--max-n", "--k"),
    ("table", "polybernoulli-C"): ("--max-n", "--k"),
    ("table", "scriptB"): ("--m", "--l", "--n"),
    ("expand", "egf-B"): ("--order", "--k"),
    ("expand", "egf-C"): ("--order", "--k"),
    ("expand", "egf-poly"): ("--order", "--k", "--x"),
    ("expand", "egf-scriptB"): ("--order", "--n"),
    ("expand", "ogf-f1"): ("--order",),
    ("expand", "g1"): ("--order",),
    ("expand", "beta1"): ("--order",),
}


@pytest.mark.parametrize(
    "command,target,unread",
    [
        (command, target, option)
        for (command, target), reads in READS.items()
        for option in OPTIONS[command]
        if option not in reads
    ],
)
def test_option_the_target_does_not_read_exits_two(capsys, command, target, unread):
    argv = [command, target]
    for option in READS[command, target]:
        argv += [option, OPTION_VALUES[option]]
    assert run_cli(capsys, *argv)[0] == 0
    code, out, err = run_cli(capsys, *argv, unread, OPTION_VALUES[unread])
    assert (code, out, err) == (2, "", f"error: {command} {target} does not read {unread}\n")


# ---------------------------------------------------------------------------
# verify


def test_verify_single_text(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "duality", "--max-l", "4", "--max-m", "4", "--max-n", "2"
    )
    assert code == 0
    assert out.startswith("ok    duality")
    assert "checked=75" in out


def test_verify_single_json_schema(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "genocchi-sum", "--max-n", "8", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"identity", "params", "passed", "counterexample", "checked"}
    assert doc["identity"] == "genocchi-sum"
    assert doc["passed"] is True and doc["counterexample"] is None
    assert doc["params"] == {"max_n": 8}


def test_verify_all_json_is_full_inventory(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "all", "--order", "8", "--max-l", "5", "--max-m", "5",
        "--max-n", "5", "--format", "json",
    )
    assert code == 0
    docs = json.loads(out)
    assert [d["identity"] for d in docs] == list(cli.IDENTITY_IDS)
    assert all(d["passed"] for d in docs)
    # the overrides reached the ops that accept them
    by_id = {d["identity"]: d for d in docs}
    assert by_id["duality"]["params"] == {"max_l": 5, "max_m": 5, "max_n": 5}
    assert by_id["beta1-funceq"]["params"] == {"order": 8}


def test_verify_flag_not_accepted_by_identity(capsys):
    code, _, err = run_cli(capsys, "verify", "duality", "--r", "4")
    assert code == 2 and "does not accept" in err


# Every identity parameter with a default value, as (identity, name, default).
IDENTITY_PARAMETERS = [
    (identity_id, name, default)
    for identity_id, entry in REGISTRY.items()
    for name, default in entry.defaults
    if default is not None
]


@pytest.mark.parametrize("identity_id,name,default", IDENTITY_PARAMETERS)
def test_verify_flag_at_its_default_changes_nothing(capsys, identity_id, name, default):
    flag = "--" + name.replace("_", "-")
    given = run_cli(capsys, "verify", identity_id, flag, str(default))
    assert given == run_cli(capsys, "verify", identity_id)
    assert given[0] == 0


def test_verify_flags_are_the_identity_parameters(capsys):
    values = {name: default for _, name, default in IDENTITY_PARAMETERS}
    for identity_id, entry in REGISTRY.items():
        for name, value in values.items():
            if name in dict(entry.defaults):
                continue
            flag = "--" + name.replace("_", "-")
            code, out, err = run_cli(capsys, "verify", identity_id, flag, str(value))
            assert (code, out) == (2, "")
            assert err == f"error: identity {identity_id!r} does not accept parameter {name!r}\n"


def test_verify_mode_is_checked_by_its_identity(capsys):
    for target in ("funceq-remainder", "all"):
        code, out, err = run_cli(capsys, "verify", target, "--mode", "foo")
        assert (code, out, err) == (2, "", "error: mode must be 'series' or 'sample', got 'foo'\n")


def test_verify_duality_rejects_the_box_of_its_diagonal_alone(capsys):
    message = (
        "error: duality requires max_l >= 1 or max_m >= 1: "
        "at l = m = 0 it compares script_B_def(0, 0, n) with itself\n"
    )
    for target in ("duality", "all"):
        code, out, err = run_cli(capsys, "verify", target, "--max-l", "0", "--max-m", "0")
        assert (code, out, err) == (2, "", message)


def test_verify_unknown_identity(capsys):
    code, _, err = run_cli(capsys, "verify", "nosuchid")
    assert code == 2
    assert "duality" in err  # valid choices listed


def test_verify_sample_mode(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "funceq-remainder", "--n", "2", "--mode", "sample",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["params"]["mode"] == "sample"
    assert doc["params"]["points"] == ["1/100", "1/97", "-1/101"]


def test_verify_failure_exits_one(capsys, monkeypatch):
    failed = VerificationReport(
        identity_id="duality",
        parameters={"max_l": 2, "max_m": 2, "max_n": 1},
        passed=False,
        counterexample=Counterexample((("l", 1), ("m", 2), ("n", 0)), 7, 8),
        checked_count=11,
    )
    monkeypatch.setattr(cli, "verify_one", lambda identity_id, **kw: failed)
    code, out, _ = run_cli(capsys, "verify", "duality")
    assert code == 1
    assert out.startswith("FAIL  duality")
    assert "l=1 m=2 n=0" in out and "lhs=7 rhs=8" in out

    code, out, _ = run_cli(capsys, "verify", "duality", "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False
    assert doc["counterexample"] == {"at": {"l": 1, "m": 2, "n": 0}, "lhs": "7", "rhs": "8"}


def test_verify_all_exit_is_logical_and(capsys, monkeypatch):
    ok = VerificationReport("duality", {}, True, None, 5)
    bad = VerificationReport(
        "egf", {}, False, Counterexample((("l", 0), ("m", 3)), 1, 2), 4
    )
    monkeypatch.setattr(cli, "verify_all", lambda config=None: [ok, bad])
    code, out, _ = run_cli(capsys, "verify", "all")
    assert code == 1
    assert out.splitlines()[-1] == "1/2 identities verified"

    code, out, _ = run_cli(capsys, "verify", "all", "--format", "json")
    assert code == 1
    docs = json.loads(out)
    assert [d["passed"] for d in docs] == [True, False]


def test_verify_all_text_summary(capsys):
    code, out, _ = run_cli(capsys, "verify", "all", "--order", "8", "--max-n", "5",
                           "--max-l", "4", "--max-m", "4")
    assert code == 0
    assert out.splitlines()[-1] == "13/13 identities verified"


def test_verify_all_golden_at_default_bounds(capsys):
    code, out, err = run_cli(capsys, "verify", "all")
    assert (code, out, err) == (0, VERIFY_ALL_TEXT, "")
    code, out, err = run_cli(capsys, "verify", "all", "--format", "json")
    assert code == 0 and err == "" and len(out.encode()) == 2075
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_JSON_SHA256


def test_verify_all_golden_in_sample_mode(capsys):
    code, out, err = run_cli(capsys, "verify", "all", "--mode", "sample")
    assert (code, out, err) == (0, VERIFY_ALL_SAMPLE_TEXT, "")
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_SAMPLE_TEXT_SHA256
    code, out, err = run_cli(capsys, "verify", "all", "--mode", "sample", "--format", "json")
    assert code == 0 and err == "" and len(out.encode()) == 2132
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_SAMPLE_JSON_SHA256


def test_help_exits_zero(capsys):
    assert cli.run(["--help"]) == 0
    capsys.readouterr()
    assert cli.run(["verify", "--help"]) == 0
    capsys.readouterr()


def test_console_script_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "polybern.cli", "table", "bernoulli", "--max-n", "4"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[2] == "1,-1/2"
