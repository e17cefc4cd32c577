"""Command-line behavior: output documents, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from regfactor import cli
from regfactor.cli import _COMMANDS, _FLAGS, build_parser, main
from helpers import all_regular_ideals, ideal_doc


@pytest.fixture()
def problem(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"n": 7, "ideal_generators": [[5, 1], [7, 2]]}))
    return str(path)


@pytest.fixture()
def small_problem(tmp_path):
    path = tmp_path / "small.json"
    path.write_text(json.dumps({"n": 3, "ideal_generators": []}))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_diagram_text(problem, capsys):
    code, out, _ = run(capsys, "diagram", problem)
    assert code == 0
    assert "after step 5:" in out
    assert "BBXX--." in out
    assert "crosses=5 plus_minus=12 bullets=4" in out


def test_diagram_json(problem, capsys):
    code, out, _ = run(capsys, "diagram", problem, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["counts"] == {"crosses": 5, "plus_minus": 12, "bullets": 4}
    assert doc["crosses"][0] == [4, 1]


def test_permutation(problem, capsys):
    code, out, _ = run(capsys, "permutation", problem, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["w"] == [4, 6, 7, 5, 3, 2, 1]
    assert doc["inversions"] == 17 == doc["dim"]
    assert doc["reflection_product_matches"] is True


def test_invariants(problem, capsys):
    code, out, _ = run(capsys, "invariants", problem, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["invariants"]) == 5
    assert doc["invariants"][0]["P"] == "y[4,1]"
    entry = doc["invariants"][3]
    assert entry["case"] == 2 and entry["degree"] == 1 == entry["d_star"]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_invariants_renders_each_polynomial_once(fmt, problem, capsys, monkeypatch):
    from regfactor.poly import Polynomial

    rendered = []
    render = Polynomial.__str__
    monkeypatch.setattr(Polynomial, "__str__", lambda p: rendered.append(p) or render(p))
    assert run(capsys, "invariants", problem, "--format", fmt)[0] == 0
    assert len(rendered) == 5


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_oracle_renders_each_polynomial_once(fmt, problem, capsys, monkeypatch):
    # The degree-3 basis of the reference has 24 polynomials: the library's
    # sort renders each once, and the command once more for both formats.
    from regfactor.poly import Polynomial

    rendered = []
    render = Polynomial.__str__
    monkeypatch.setattr(Polynomial, "__str__", lambda p: rendered.append(p) or render(p))
    assert run(capsys, "oracle", problem, "--max-degree", "3", "--format", fmt)[0] == 0
    assert len(rendered) == 2 * 24


def test_verify_passes(small_problem, capsys):
    code, out, _ = run(capsys, "verify", small_problem, "--trials", "10")
    assert code == 0
    assert "PASS" in out
    assert "FAIL" not in out


def test_orbit_stats(problem, capsys):
    code, out, _ = run(capsys, "orbit-stats", problem, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "n": 7,
        "max_rank": 12,
        "corank": 5,
        "plus_minus": 12,
        "crosses": 5,
        "match": True,
    }


def test_oracle(small_problem, capsys):
    code, out, _ = run(
        capsys, "oracle", small_problem, "--max-degree", "2", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["basis"] == ["y[3,1]", "y[3,1]^2"]


def test_extremal_scan(small_problem, capsys):
    code, out, _ = run(capsys, "extremal-scan", small_problem, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert {"rows": [3], "cols": [1], "degree": 0, "extremal": True} in doc[
        "extremal_minors"
    ]


def test_extremal_scan_budget_exit(problem, capsys):
    code, _, err = run(capsys, "extremal-scan", problem, "--budget", "5")
    assert code == 3
    assert "budget" in err


def test_oracle_budget_exit(problem, capsys):
    code, _, err = run(capsys, "oracle", problem, "--max-degree", "4", "--budget", "7")
    assert code == 3
    assert "budget" in err


@pytest.mark.parametrize("value", ["-1", "0"])
def test_size_flags_below_one_rejected(problem, value, capsys):
    for argv in (["verify", "--max-degree", value], ["oracle", "--max-degree", value],
                 ["extremal-scan", "--max-size", value]):
        code, out, err = run(capsys, argv[0], problem, *argv[1:])
        assert (code, out) == (2, "")
        assert "must be at least 1" in err


@pytest.mark.parametrize("value", ["-1", "-5"])
def test_negative_budget_rejected(problem, value, capsys):
    for command in ("verify", "oracle", "extremal-scan"):
        code, out, err = run(capsys, command, problem, "--budget", value)
        assert (code, out) == (2, "")
        assert err == "error: budget must be at least 0\n"


def test_zero_budget_skips_or_exits_3(problem, capsys):
    code, out, _ = run(capsys, "verify", problem, "--budget", "0")
    assert code == 0
    assert "SKIPPED oracle_containment (5984 monomials exceed budget 0)" in out
    for command in ("oracle", "extremal-scan"):
        code, out, err = run(capsys, command, problem, "--budget", "0")
        assert (code, out) == (3, "")
        assert "budget" in err


def test_zero_budget_json_payload(problem, capsys):
    for command, message in (
        ("oracle", "oracle would scan 5984 monomials, budget is 0"),
        ("extremal-scan", "extremal scan exceeded budget of 0 specs"),
    ):
        code, out, err = run(capsys, command, problem, "--budget", "0", "--format", "json")
        assert code == 3
        assert json.loads(out) == {"valid": False, "error": message, "partial": []}
        assert message in err


def test_extremal_scan_budget_json_partial(problem, capsys):
    # 60 specs stop the scan among the size-2 candidates, after the three
    # extremal minors of size 1: the partial is a prefix of the full scan.
    code, out, _ = run(capsys, "extremal-scan", problem, "--budget", "60", "--format", "json")
    assert code == 3
    doc = json.loads(out)
    assert doc == {
        "valid": False,
        "error": "extremal scan exceeded budget of 60 specs",
        "partial": [{"rows": [4], "cols": [1]}, {"rows": [6], "cols": [2]},
                    {"rows": [7], "cols": [3]}],
    }
    code, out, _ = run(capsys, "extremal-scan", problem, "--format", "json")
    assert code == 0
    entries = json.loads(out)["extremal_minors"]
    assert len(entries) > 3
    assert doc["partial"] == [{"rows": e["rows"], "cols": e["cols"]} for e in entries[:3]]


def test_verify_failure_exit(monkeypatch, small_problem, capsys):
    from regfactor import verify

    failing = verify.VerificationReport([verify.CheckResult("probe", "fail", detail="forced")])
    # cli reads verify.full_report at call time.
    monkeypatch.setattr(verify, "full_report", lambda *a, **k: failing)
    code, out, _ = run(capsys, "verify", small_problem)
    assert code == 1
    assert "FAIL" in out


def test_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(capsys, "diagram", str(bad))[0] == 2

    bad.write_text(json.dumps({"n": 3}))
    assert run(capsys, "diagram", str(bad))[0] == 2

    bad.write_text(json.dumps({"n": 3, "ideal_generators": [], "extra": 1}))
    assert run(capsys, "diagram", str(bad))[0] == 2

    bad.write_text(json.dumps({"n": 0, "ideal_generators": []}))
    assert run(capsys, "diagram", str(bad))[0] == 2

    bad.write_text(json.dumps({"n": 3, "ideal_generators": [[1, 1]]}))
    assert run(capsys, "diagram", str(bad))[0] == 2

    assert run(capsys, "diagram", str(tmp_path / "missing.json"))[0] == 2


def test_fractional_root_entry_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 7, "ideal_generators": [[5.9, 1]]}))
    code, _, err = run(capsys, "diagram", str(bad))
    assert code == 2
    assert "integers" in err


def test_string_root_entries_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 7, "ideal_generators": [["5", "1"]]}))
    code, _, err = run(capsys, "diagram", str(bad))
    assert code == 2
    assert "integers" in err


def test_boolean_size_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": True, "ideal_generators": []}))
    code, _, err = run(capsys, "diagram", str(bad))
    assert code == 2
    assert '"n"' in err


def test_strict_mode_rejects_non_closed(problem, capsys):
    code, _, err = run(capsys, "verify", problem, "--strict")
    assert code == 2
    assert "not closed" in err


READ_FLAGS = [(c, f) for c, (_, _, reads) in _COMMANDS.items() for f in reads]
UNREAD_FLAGS = [(c, f) for c, (_, _, reads) in _COMMANDS.items() for f in _FLAGS
                if f not in reads]


@pytest.mark.parametrize("command,flag", READ_FLAGS)
def test_read_flag_parsed(command, flag):
    args = build_parser().parse_args([command, "problem.json", flag, "7"])
    assert getattr(args, flag[2:].replace("-", "_")) == 7


@pytest.mark.parametrize(
    "command,flag,value",
    [(c, f, "1") for c, f in UNREAD_FLAGS]
    + [("diagram", "--budget", "-5"), ("diagram", "--max-degree", "-1"),
       ("diagram", "--trials", "0"), ("orbit-stats", "--trials", "5")],
)
def test_unread_flag_rejected(problem, command, flag, value, capsys):
    code, out, err = run(capsys, command, problem, flag, value)
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: {flag} {value}" in err


def test_reused_parser_carries_nothing(small_problem, capsys):
    # main builds its parser once per process.  A flagged call, an unflagged
    # one, an unrecognized flag and a valid call, in that order, must each
    # print what a fresh process prints.
    src = str(Path(cli.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    for argv in (["verify", small_problem, "--seed", "5", "--trials", "3", "--format", "json"],
                 ["verify", small_problem, "--format", "json"],
                 ["verify", small_problem, "--max-size", "2"],
                 ["verify", small_problem]):
        fresh = subprocess.run([sys.executable, "-m", "regfactor.cli", *argv],
                               capture_output=True, text=True, env=env, check=False)
        assert run(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert cli._parser() is cli._parser()


def test_unknown_subcommand(problem, capsys):
    assert run(capsys, "frobnicate", problem)[0] == 2


def test_byte_identical_reruns(problem, capsys):
    first = run(capsys, "verify", problem, "--trials", "5", "--format", "json")
    second = run(capsys, "verify", problem, "--trials", "5", "--format", "json")
    assert first == second
    third = run(capsys, "invariants", problem)
    fourth = run(capsys, "invariants", problem)
    assert third == fourth


def test_json_documents_round_trip(problem, capsys):
    for command in ["diagram", "permutation", "invariants", "orbit-stats"]:
        code, out, _ = run(capsys, command, problem, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert json.loads(json.dumps(doc)) == doc


# sha256 of stdout of every subcommand for the n=7 reference
# (problems/n7_regular_ideal.json) and the n=7 free factor, at the default
# flags (oracle and verify at --max-degree 4).  test_byte_identical_reruns only compares two
# runs of the same code; these pins also catch a drift in how numbers print.
GOLDEN_STDOUT = {
    ("reference", "invariants", "text"):
        "90aa57e6c3fe46ec0e14270daabad61f7a4cd06f629a07d058e90fc8f2bd5beb",
    ("reference", "invariants", "json"):
        "a80e83ac0c6835c90ac11234cb3391e47ec34509ce215f670f1aa0108992bee0",
    ("reference", "verify", "text"):
        "3c71140842304b2a6a9f3d6ca2913d1ece92b00d90b39fd7f11b6d9e17e5f9c0",
    ("reference", "verify", "json"):
        "8ad299c3fe9e91bfaed73438a88f8518b92d03fde7931cf310410b2cdda0b0fb",
    ("free", "invariants", "text"):
        "bba030509fff8186fb2d74fee32b53b564e0caf502ca1f6a9bcd13ea2c25e03c",
    ("free", "invariants", "json"):
        "d043baf86fa2f6800eb0d58106382ea77d2c963ade143114259b2c1f666cf618",
    ("free", "verify", "text"):
        "a2775fadb9525d6843d9bdc11d7c3a88550df91944300136de6662474ce5b358",
    ("free", "verify", "json"):
        "0e24a4f905c220786b1a6683d46af4da666f1b01e522089689556adb6334ec9e",
    ("reference", "oracle", "text"):
        "bdedb36dc3aaea70fa059983c97b9d02ed34574a966bb057fd5668b127e4a52e",
    ("reference", "oracle", "json"):
        "f07b92b3d42bfee2e0a99d4e11bf1f11ab52dcff111050c4cf3677d1f2636656",
    ("free", "oracle", "text"):
        "aa03f648e7814389813deaa5b7a2f94170467c773fc4196d50ba4ad0dc3aeb30",
    ("free", "oracle", "json"):
        "111c2564d9ee684da93ae7c9357229cb464e7260475d297bcbd90ace3dfa88ad",
    ("reference", "diagram", "text"):
        "692955e4b5318ba3af9a96bccb705f97aa52d0ecd71ac04aa879111d298d90de",
    ("reference", "diagram", "json"):
        "44abc21e590d8e06acda201351e9437de67f8cad2e32b6241e64a07f705c15ee",
    ("reference", "permutation", "text"):
        "c4caad59ce6de71e749763a80d02f449e2876f0ef31e1b304970b69ce279f145",
    ("reference", "permutation", "json"):
        "ae3d8edca4cf3e10711a9b3936d09e71f95f2f05757cc33e090c9816bb70ec4d",
    ("reference", "extremal-scan", "text"):
        "5181374089100f4133a955d6cf497fd1611e30ac50d1d79cb97670b777c37522",
    ("reference", "extremal-scan", "json"):
        "5aa7dadf9d2d9abd9e3bfd52d14c590e2add67c0865f3deab3c1f58e0e504435",
    ("reference", "orbit-stats", "text"):
        "47e072037661974192ab71ce140d5b984e7b3b832fce2420ab97462015f4d798",
    ("reference", "orbit-stats", "json"):
        "375d3435e714272d6f0e9253b57ef6d6ea42f4b299ca774c74a13bf4bd195288",
    ("free", "diagram", "text"):
        "2db5776a3a411b701478c5628877f05495d1e23f5a0e71b526f5edccefb93c78",
    ("free", "diagram", "json"):
        "77cbb176646e56048668e66030839375f28b01c94f375ebbb382687ef3f41330",
    ("free", "permutation", "text"):
        "bd29dc7c8deacc9d70c410c335dde43891cae1aba5ca0e4d3a6d5c5a08a1107d",
    ("free", "permutation", "json"):
        "57d9885c96a24f2adec45b115dfccc1595b437a806a62de054bca89f0c3cc317",
    ("free", "extremal-scan", "text"):
        "48a53df9db89dbc2e70bfe2ab28fbc31b7906373927d41bce0dcd50ba4adb722",
    ("free", "extremal-scan", "json"):
        "50f8c522df32889327497cf1a2b6d4eddbc0626c48314ae969e490dc2e2cf75d",
    ("free", "orbit-stats", "text"):
        "0c086ecd061470037bdfbbce44425dddf2043847d554cea044c852b8dcb594da",
    ("free", "orbit-stats", "json"):
        "9c7837b74088c58ebade4ebf80a195fd0c232fe9c3a7e743e576237f7b6cbfd6",
}


@pytest.mark.parametrize("instance,command,fmt", sorted(GOLDEN_STDOUT))
def test_golden_stdout(instance, command, fmt, tmp_path, capsys):
    if instance == "reference":
        path = Path(__file__).parent.parent / "problems" / "n7_regular_ideal.json"
    else:
        path = tmp_path / "free.json"
        path.write_text(json.dumps({"n": 7, "ideal_generators": []}))
    extra = ["--seed", "0"] if command == "verify" else []
    code, out, err = run(capsys, command, str(path), *extra, "--format", fmt)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[instance, command, fmt]


@pytest.mark.slow
def test_extremal_scan_of_every_ideal_pinned(tmp_path, capsys):
    # sha256 over every regular ideal with n <= 6 in all_regular_ideals order
    # of its extremal-scan JSON run: the exit code on a line, then stdout
    path = tmp_path / "ideal.json"
    digest = hashlib.sha256()
    for n in range(1, 7):
        for ideal in all_regular_ideals(n):
            path.write_text(json.dumps(ideal_doc(ideal)))
            code, out, err = run(capsys, "extremal-scan", str(path), "--format", "json")
            assert err == ""
            digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == (
        "36116c2c960008875867bfdab0be4982ff7f909326caa355c2b272e95a560503"
    )
