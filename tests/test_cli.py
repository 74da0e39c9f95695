import json
import warnings
from pathlib import Path

import pytest

from dstab import certifier, cli
from dstab.cli import main

OLP_TEXT = """2 -2 1 0 0
1 0 0 0 -1
1 -1 1 0 0
0 -1 0 1 -1
0 1 0 0 2
"""


GOLDEN = Path(__file__).parent / "golden"

PUBLISHED_5X5_I_TEXT = """100.00  17.85  18.21 -10.86 -23.71
  2.07  27.19  -0.47  16.65  -0.23
 19.18 -78.22  94.07  20.13  34.86
 -4.37  13.73  -0.70 115.66  -7.10
 21.96   7.00  39.87  10.92  55.94
"""


@pytest.fixture
def olp_file(tmp_path):
    p = tmp_path / "olp.txt"
    p.write_text(OLP_TEXT)
    return str(p)


@pytest.fixture
def not_p0_file(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("-1 -4\n4 3\n")
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_check_certified_exit_zero(capsys, olp_file):
    code, out = run(capsys, "check", olp_file, "--test", "I",
                    "--depth", "3", "--refine")
    assert code == 0
    assert "Certified" in out


def test_check_failed_necessary_exit_one(capsys, not_p0_file):
    code, out = run(capsys, "check", not_p0_file)
    assert code == 1
    assert "FailedNecessary" in out


def test_check_not_stable_exit_one(capsys, tmp_path):
    p = tmp_path / "rot.txt"
    p.write_text("0 1\n-1 0\n")
    code, out = run(capsys, "check", str(p))
    assert code == 1
    assert "NotStable" in out


def test_check_inconclusive_exit_two(capsys, olp_file):
    # depth 0 without refinement cannot decide the worked example
    code, out = run(capsys, "check", olp_file, "--depth", "0")
    assert code == 2
    assert "Inconclusive" in out


def test_missing_file_exit_three(capsys):
    code = main(["check", "/no/such/file"])
    assert code == 3


def test_usage_error_exit_three(olp_file):
    with pytest.raises(SystemExit) as exc:
        main(["check", olp_file, "--badflag"])
    assert exc.value.code == 3
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 3


def test_successive_calls_share_one_parser_and_no_state(
        capsys, olp_file, monkeypatch):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda: built.append(1) or build())
    cli._parser.cache_clear()
    code, out = run(capsys, "experiment", "--n", "4", "--trials", "3",
                    "--depth", "1", "--refine", "--test", "II", "--json")
    assert code == 0
    stats = json.loads(out)["stats"]
    assert (stats["depth"], stats["refine"], stats["test"]) == (1, True, "II")
    # nothing of the first call's options carries over
    code, out = run(capsys, "experiment", "--n", "4", "--trials", "3",
                    "--json")
    stats = json.loads(out)["stats"]
    assert (stats["depth"], stats["refine"], stats["test"]) == (2, False, "I")
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "--n", "x", "--trials", "1"])
    assert exc.value.code == 3
    code, out = run(capsys, "check", olp_file)
    assert code == 2 and out.startswith("verdict: Inconclusive")
    with pytest.raises(SystemExit) as exc:
        main(["check", olp_file, "--badflag"])
    assert exc.value.code == 3
    code, out = run(capsys, "check", olp_file, "--refine", "--depth", "3")
    assert code == 0 and out.startswith("verdict: Certified")
    assert built == [1]
    cli._parser.cache_clear()


def test_check_json_payload(capsys, olp_file):
    code, out = run(capsys, "check", olp_file, "--test", "I",
                    "--depth", "3", "--refine", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "dstab-report/1"
    assert payload["report"]["verdict"] == "Certified"
    # round trip: parse -> serialize -> identical
    assert json.loads(json.dumps(payload)) == payload


def test_json_output_is_deterministic(capsys, olp_file):
    _, first = run(capsys, "check", olp_file, "--depth", "3", "--json")
    _, second = run(capsys, "check", olp_file, "--depth", "3", "--json")
    assert first == second


def test_minors_dump(capsys, tmp_path):
    p = tmp_path / "i2.txt"
    p.write_text("1 0\n0 1\n")
    code, out = run(capsys, "minors", str(p), "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["minors"]) == 4
    assert all(entry["value"] == "1" for entry in payload["minors"])


def test_minor_cap_env_override(capsys, tmp_path, monkeypatch):
    p = tmp_path / "i3.txt"
    p.write_text("1 0 0\n0 1 0\n0 0 1\n")
    monkeypatch.setenv("DSTAB_MINOR_CAP", "2")
    code = main(["minors", str(p)])
    capsys.readouterr()
    assert code == 3  # cap exceeded surfaces as an operational error
    monkeypatch.setenv("DSTAB_MINOR_CAP", "12")
    assert main(["minors", str(p)]) == 0
    capsys.readouterr()
    monkeypatch.setenv("DSTAB_MINOR_CAP", "many")
    assert main(["minors", str(p)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("dstab: error: ")
    assert "DSTAB_MINOR_CAP" in err and "'many'" in err


@pytest.mark.parametrize("text,argv,golden", [
    (OLP_TEXT, ["minors", "--json"], "worked_example_minors.json"),
    (OLP_TEXT, ["expand", "--depth", "3", "--json"],
     "worked_example_expand_depth3.json"),
    (PUBLISHED_5X5_I_TEXT, ["expand", "--depth", "1", "--json"],
     "published_5x5_I_expand_depth1.json"),
])
def test_table_and_seed_dumps_match_golden_text(capsys, tmp_path, text, argv,
                                                golden):
    """Byte for byte the output of the per-subset minor table and the
    term-by-term seed product that the bitmask table and the grid product
    replaced."""
    p = tmp_path / "a.txt"
    p.write_text(text)
    code, out = run(capsys, argv[0], str(p), *argv[1:])
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


def test_expand_seed_polynomials(capsys, olp_file):
    code, out = run(capsys, "expand", olp_file)
    assert code == 0
    assert out.startswith("F(0,1) = 3 ")
    assert "G(0,1)" in out


@pytest.mark.parametrize("depth", ["0", "1", "3"])
def test_expand_forms_one_seed_product(capsys, olp_file, monkeypatch, depth):
    formed = []
    seed_fg = certifier.seed_fg
    monkeypatch.setattr(certifier, "seed_fg",
                        lambda *args: formed.append(1) or seed_fg(*args))
    code, _ = run(capsys, "expand", olp_file, "--depth", depth)
    assert code == 0
    assert formed == [1]


def test_expand_tree_json(capsys, olp_file):
    code, out = run(capsys, "expand", olp_file, "--depth", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["tree"]["2"] == "0"
    assert payload["tree"]["21"] == "d1 + 4*d1*d2^2"


def test_experiment_command(capsys):
    code, out = run(capsys, "experiment", "--n", "3", "--trials", "15",
                    "--seed", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    stats = payload["stats"]
    assert stats["trials"] == 15
    assert sum(stats["counts"].values()) == 15


def test_experiment_text_output(capsys):
    code, out = run(capsys, "experiment", "--n", "2", "--trials", "5",
                    "--seed", "0")
    assert code == 0
    assert "hit rate" in out


def test_experiment_negative_trials_is_a_usage_error(capsys):
    code = main(["experiment", "--n", "3", "--trials", "-3"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "dstab: error: trials must be nonnegative" in captured.err


@pytest.mark.parametrize("n", ["0", "-3"])
def test_experiment_without_a_dimension_is_a_usage_error(capsys, n):
    code = main(["experiment", "--n", n, "--trials", "2"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == f"dstab: error: n must be at least 1, got {n}\n"


def test_experiment_respects_the_minor_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("DSTAB_MINOR_CAP", "3")
    code = main(["experiment", "--n", "4", "--trials", "1"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == ("dstab: error: minor enumeration needs 2^4 "
                            "determinants; cap is n <= 3\n")
    assert main(["experiment", "--n", "3", "--trials", "1"]) == 0


def test_experiment_one_by_one_certifies(capsys):
    code, out = run(capsys, "experiment", "--n", "1", "--trials", "4",
                    "--json")
    assert code == 0
    assert json.loads(out)["stats"]["counts"]["Certified"] == 4


def test_experiment_depth_out_of_range_is_a_usage_error(capsys):
    code = main(["experiment", "--n", "3", "--trials", "2", "--depth", "5"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == ("dstab: error: depth must be an integer in "
                            "0..1, got 5\n")


@pytest.mark.parametrize("flag", ["--falsify", "--permutations"])
def test_check_negative_count_is_a_usage_error(capsys, olp_file, flag):
    code = main(["check", olp_file, flag, "-3"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("dstab: error: ")
    assert "must be nonnegative, got -3" in captured.err


@pytest.mark.parametrize("text", ["2 1\n1 2\n", "0 1\n-1 0\n"])
def test_check_depth_out_of_range_is_a_usage_error(capsys, tmp_path, text):
    p = tmp_path / "m.txt"
    p.write_text(text)
    code = main(["check", str(p), "--depth", "9"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == ("dstab: error: depth must be 'auto' or an "
                            "integer in 0..0\n")


def test_expand_negative_depth_is_a_usage_error(capsys, olp_file):
    code = main(["expand", olp_file, "--depth", "-1"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "dstab: error: depth must lie in 0..n-2\n"


def test_experiment_exhausted_rejection_budget_is_a_usage_error(capsys):
    code = main(["experiment", "--n", "3", "--trials", "1", "--style",
                 "diag_lo=-100,diag_hi=-50"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("dstab: error: no positive-stable 3x3 ")
    assert "diag_lo=-100.0,diag_hi=-50.0" in captured.err


@pytest.mark.parametrize("spec", ["noise=nan", "diag_hi=inf"])
def test_experiment_nonfinite_style_is_a_usage_error(capsys, spec):
    code = main(["experiment", "--n", "3", "--trials", "2", "--style", spec])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    key, _, value = spec.partition("=")
    assert captured.err == (f"dstab: error: generator parameter {key} must "
                            f"be a finite number, got '{value}'\n")


@pytest.mark.parametrize("sign,code,message", [
    (-1, 1, "verdict: NotStable"), (1, 3, "cap is n <= 12")])
def test_check_above_the_minor_cap(capsys, tmp_path, sign, code, message):
    """Above the cap stability is still decided; only a stable matrix
    needs the table and gets the cap error."""
    n = 13
    p = tmp_path / "big.txt"
    p.write_text("\n".join(" ".join(str(sign if i == j else 0)
                                     for j in range(n)) for i in range(n)))
    assert main(["check", str(p)]) == code
    captured = capsys.readouterr()
    assert message in captured.out + captured.err


@pytest.mark.parametrize("entry", ["1e400", "1e307"])
def test_check_falsifier_on_entries_beyond_the_float_range(capsys, tmp_path,
                                                           entry):
    p = tmp_path / "big.txt"
    p.write_text(f"{entry} 0\n0 1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["check", str(p), "--falsify", "300"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == ("dstab: error: falsify needs every entry times "
                            "the largest diagonal 1000 to be finite in "
                            "float64 (at most 1.79769e+308)\n")
