import hashlib
import json
import re
import time
import weakref
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from click.testing import CliRunner

from envyprice import bounds, cli
from envyprice.bounds import _segmented_columns
from envyprice.cli import main
from envyprice.core import UtilityMatrix, write_instance
from envyprice.solver import KNOWN_RATIOS, read_witness, solve_p_nn, witness_to_dict

runner = CliRunner()


def invoke(*args):
    return runner.invoke(main, list(args))


# --- nn ------------------------------------------------------------------------

def test_nn_prints_exact_fraction():
    result = invoke("nn", "--n", "5")
    assert result.exit_code == 0
    assert result.output == "60/43\n"


def test_nn_modes_and_searches_agree():
    # n = 13 and 201 were past the old guards of the full search
    for n, want in (("7", "63/40\n"), ("13", "208/101\n"), ("201", "39396/5365\n")):
        for extra in ([], ["--search", "full"]):
            result = invoke("nn", "--n", n, *extra)
            assert result.exit_code == 0
            assert result.output == want


def test_nn_approx_is_marked():
    result = invoke("nn", "--n", "5", "--approx")
    assert result.output == "60/43 (approx 1.395349)\n"


def test_nn_rejects_bad_n():
    result = invoke("nn", "--n", "0")
    assert result.exit_code == 2
    assert "n must be positive" in result.output


def test_unknown_flag_is_a_usage_error():
    assert invoke("nn", "--n", "3", "--bogus").exit_code == 2


# --- table ----------------------------------------------------------------------

EXPECTED_TABLE = "n,p_num,p_den\n" + "".join(
    f"{n},{KNOWN_RATIOS[n].numerator},{KNOWN_RATIOS[n].denominator}\n"
    for n in range(1, 10)
)


def test_table_reproduces_the_reference_rows():
    result = invoke("table", "--to", "9")
    assert result.exit_code == 0
    assert result.output == EXPECTED_TABLE


def test_table_json_mirrors_witness_files():
    result = invoke("table", "--from", "4", "--to", "5", "--format", "json")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload == [witness_to_dict(solve_p_nn(n)) for n in (4, 5)]


def test_table_to_file(tmp_path):
    out = tmp_path / "table.csv"
    result = invoke("table", "--to", "3", "--out", str(out))
    assert result.exit_code == 0
    assert out.read_text() == "n,p_num,p_den\n1,1,1\n2,1,1\n3,8,7\n"


def test_table_approx_column():
    result = invoke("table", "--from", "3", "--to", "3", "--approx")
    assert result.output == "n,p_num,p_den,p_approx\n3,8,7,1.142857\n"


def test_table_csv_keeps_one_witness_alive_at_a_time(monkeypatch):
    # a CSV row needs only the ratio; keeping every length-n witness until
    # the first write made memory grow as the square of --to
    live = weakref.WeakSet()
    most = 0

    def solve(n):
        nonlocal most
        w = solve_p_nn(n)
        live.add(w)
        most = max(most, len(live))
        return w

    expected = invoke("table", "--to", "50").output
    monkeypatch.setattr(cli, "solve_p_nn", solve)
    result = invoke("table", "--to", "50")
    assert result.exit_code == 0
    assert result.output == expected
    assert most == 1


def test_table_json_keeps_one_witness_alive_at_a_time(monkeypatch):
    # the list is written one entry at a time, byte for byte what
    # json.dumps(list, indent=2) gives; building the list first made
    # memory grow as the square of --to
    live = weakref.WeakSet()
    most = 0

    def solve(n):
        nonlocal most
        w = solve_p_nn(n)
        live.add(w)
        most = max(most, len(live))
        return w

    whole = [witness_to_dict(solve_p_nn(n)) for n in range(1, 41)]
    monkeypatch.setattr(cli, "solve_p_nn", solve)
    result = invoke("table", "--to", "40", "--format", "json")
    assert result.exit_code == 0
    assert result.output == json.dumps(whole, indent=2) + "\n"
    assert most == 1
    result = invoke("table", "--from", "7", "--to", "7", "--format", "json")
    assert result.output == json.dumps(whole[6:7], indent=2) + "\n"


def test_table_range_validation():
    assert invoke("table", "--from", "5", "--to", "3").exit_code == 2


# --- verify ----------------------------------------------------------------------

def test_verify_with_reference():
    result = invoke("verify", "--n", "3")
    assert result.exit_code == 0
    assert result.output == "solver=8/7 oracle=8/7 reference=8/7\n"


def test_verify_beyond_reference_table():
    result = invoke("verify", "--n", "10")
    assert result.exit_code == 0
    assert result.output == "solver=180/97 oracle=180/97\n"


def test_verify_reports_a_disagreeing_oracle(monkeypatch):
    monkeypatch.setattr(cli, "oracle_p_nn", lambda n: (Fraction(1), None))
    result = invoke("verify", "--n", "5")
    assert result.exit_code == 1
    assert result.stdout == "solver=60/43 oracle=1 reference=60/43\n"
    assert result.stderr == "MISMATCH\n"


def test_verify_reports_a_disagreeing_reference(monkeypatch):
    monkeypatch.setattr(cli, "KNOWN_RATIOS", {**KNOWN_RATIOS, 5: Fraction(1)})
    result = invoke("verify", "--n", "5")
    assert result.exit_code == 1
    assert result.stdout == "solver=60/43 oracle=60/43 reference=1\n"
    assert result.stderr == "MISMATCH\n"


# --- witness ------------------------------------------------------------------------

def test_witness_file_round_trip(tmp_path):
    out = tmp_path / "w5.json"
    result = invoke("witness", "--n", "5", "--out", str(out))
    assert result.exit_code == 0
    assert result.output == "60/43\n"
    assert read_witness(str(out)) == solve_p_nn(5)


def test_witness_unwritable_path_is_an_input_error():
    result = invoke("witness", "--n", "5", "--out", "/nonexistent/dir/w.json")
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "No such file or directory" in result.stderr


# --- check --------------------------------------------------------------------------

def test_check_reports_exact_welfare(tmp_path, w3):
    path = tmp_path / "w3.json"
    write_instance(w3, str(path))
    result = invoke("check", str(path))
    assert result.exit_code == 0
    assert result.output == "optimal=4/3 envy_free=7/6 ratio=8/7\n"


def test_check_reports_missing_envy_free_allocation(tmp_path):
    x = UtilityMatrix.from_strings([["1", "0"], ["1", "0"]])
    path = tmp_path / "noef.json"
    write_instance(x, str(path))
    result = invoke("check", str(path))
    assert result.exit_code == 0
    assert result.output == "optimal=1 envy_free=none ratio=none\n"


def test_check_bad_column_sum(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"n": 2, "m": 2, "columns": [["1/2", "1/3"], ["1/2", "1/2"]]}'
    )
    result = invoke("check", str(path))
    assert result.exit_code == 2
    assert "ColumnNotNormalized(1, 5/6)" in result.output


def test_check_missing_file():
    result = invoke("check", "/no/such/file.json")
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "text",
    ["5", '{"n": true, "m": true, "columns": [[true]]}'],
    ids=["number", "booleans"],
)
def test_check_malformed_file_is_an_input_error(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    result = invoke("check", str(path))
    assert result.exit_code == 2
    assert "instance file" in result.output


@pytest.mark.parametrize(
    "entry, stderr",
    [
        ("0.5", 'instance file: entry (1, 2) is a float; use "p/q"\n'),
        ("true", "not a rational in p/q form: True\n"),
        ('"0.5"', "not a rational in p/q form: '0.5'\n"),
    ],
    ids=["float", "bool", "decimal-string"],
)
def test_check_rejects_an_inexact_entry(tmp_path, entry, stderr):
    path = tmp_path / "bad.json"
    path.write_text(f'{{"n": 2, "m": 2, "columns": [["1/2", "1/2"], [{entry}, "1/2"]]}}')
    result = invoke("check", str(path))
    assert result.exit_code == 2
    assert (result.stdout, result.stderr) == ("", stderr)


# --- bounds --------------------------------------------------------------------------

def test_bounds_single_n_json():
    result = invoke("bounds", "--n", "9")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["lower_construction_ratio"] == "9/5"
    assert payload["upper_g_max"] == "27/13"
    assert payload["p_exact"] == "9/5"
    assert all(payload["checks"].values())


def test_bounds_sweep_csv():
    result = invoke("bounds", "--to", "3")
    lines = result.output.splitlines()
    assert lines[0] == "n,lower,upper,p,holds"
    assert lines[1] == "1,1,1,1,true"
    assert lines[3] == "3,1,3/2,8/7,true"


def test_bounds_reports_the_exact_value_to_1000():
    payload = json.loads(invoke("bounds", "--n", "101").output)
    assert payload["p_exact"] == str(solve_p_nn(101).ratio)
    assert payload["checks"] and all(payload["checks"].values())
    result = invoke("bounds", "--n", "1001")
    assert result.exit_code == 0
    assert json.loads(result.output)["p_exact"] is None


def test_bounds_needs_exactly_one_selector():
    assert invoke("bounds").exit_code == 2
    assert invoke("bounds", "--n", "3", "--to", "5").exit_code == 2


@pytest.mark.parametrize("flag", ["--n", "--to"])
def test_bounds_rejects_a_size_below_one(flag):
    result = invoke("bounds", flag, "0")
    assert result.exit_code == 2
    assert f"need {flag} >= 1" in result.stderr
    assert result.stdout == ""


def test_bounds_exits_1_on_a_false_check_after_printing_everything(monkeypatch):
    single, sweep = invoke("bounds", "--n", "9"), invoke("bounds", "--to", "3")
    monkeypatch.setattr(bounds, "check_lower_bound", lambda n, p: False)
    result = invoke("bounds", "--n", "9")
    assert (result.exit_code, result.stderr) == (1, "")
    payload = json.loads(single.stdout)
    payload["checks"].update(construction_lower_bound=False, lower_bound=False)
    assert result.stdout == json.dumps(payload, indent=2) + "\n"
    result = invoke("bounds", "--to", "3")
    assert (result.exit_code, result.stderr) == (1, "")
    assert result.stdout == sweep.stdout.replace(",true\n", ",false\n")
    assert result.stdout.count(",false\n") == 3


@pytest.mark.parametrize(
    "p, failing", [("5/2", "exact_at_most_ceiling"), ("3/2", "construction_at_most_exact")]
)
def test_bounds_exits_1_on_a_value_outside_the_sandwich(monkeypatch, p, failing):
    # at n = 9 the construction is 9/5 and the ceiling 27/13
    monkeypatch.setattr(cli, "solve_p_nn", lambda n: SimpleNamespace(ratio=Fraction(p)))
    result = invoke("bounds", "--n", "9")
    assert (result.exit_code, result.stderr) == (1, "")
    payload = json.loads(result.stdout)
    assert payload["p_exact"] == p
    assert [name for name, ok in payload["checks"].items() if not ok] == [failing]
    result = invoke("bounds", "--to", "9")
    assert (result.exit_code, result.stderr) == (1, "")
    assert result.stdout.splitlines()[-1] == f"9,9/5,27/13,{p},false"


# --- explore -------------------------------------------------------------------------

def test_explore_labels_its_output():
    result = invoke("explore", "--n", "2", "--m", "2", "--budget", "20")
    assert result.exit_code == 0
    assert result.output == "heuristic lower bound: 1\n"


def test_explore_guard_is_an_input_error():
    result = invoke("explore", "--n", "2", "--m", "17", "--budget", "5")
    assert result.exit_code == 2
    assert "allocations exceed cap" in result.output
    result = invoke("explore", "--n", "2", "--m", "20000")
    assert result.exit_code == 2
    assert result.output == "SearchSpaceTooLarge: 2^20000 allocations exceed cap 65536\n"


def test_check_guard_is_an_input_error(tmp_path):
    path = tmp_path / "wide.json"
    write_instance(UtilityMatrix.from_weights([(1,) * 20000] * 2), str(path))
    result = invoke("check", str(path))
    assert result.exit_code == 2
    assert result.output == "SearchSpaceTooLarge: 2^20000 allocations exceed cap 10000000\n"


def test_check_guard_holds_when_the_optimum_is_envy_free(tmp_path):
    # the welfare optimum of the segmented 2 x 24 instance is envy-free, but
    # its 2^24 allocations exceed the cap, so check refuses it as before
    path = tmp_path / "segmented.json"
    write_instance(UtilityMatrix.from_weights(_segmented_columns(2, 24)), str(path))
    result = invoke("check", str(path))
    assert result.exit_code == 2
    assert result.output == "SearchSpaceTooLarge: 16777216 allocations exceed cap 10000000\n"


# --- the README's examples ------------------------------------------------------------

def test_readme_command_line_examples(tmp_path):
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    (instance,) = re.findall(r"```json\n(.*?)```", text, re.S)
    (tmp_path / "instance.json").write_text(instance, encoding="utf-8")
    examples = re.findall(r"```sh\n\$ envyprice ([^\n]*)\n(.*?)```", text, re.S)
    assert [args for args, _ in examples] == [
        "nn --n 5 --approx",
        "verify --n 3",
        "table --from 1 --to 6 --format csv",
        "check instance.json",
        "bounds --n 9",
        "explore --n 2 --m 3 --budget 200 --seed 1",
    ]
    for args, want in examples:
        argv = [str(tmp_path / a) if a == "instance.json" else a for a in args.split()]
        result = invoke(*argv)
        assert result.exit_code == 0, args
        # the bounds example elides its checks with "..."
        shown, elided, _ = want.partition("  ...\n")
        assert result.output.startswith(shown) if elided else result.output == want, args


# --- pinned output -------------------------------------------------------------------

# sha256 of stdout: a refactor must keep every byte. All eight take about 0.9 s
# through CliRunner on a 2-core x86 box (Python 3.11.7), most of it the
# full search at n = 1000 and the bounds rows to 1200.
PINNED_STDOUT = {
    "table --to 300 --format json": "37b500c51093bb5e8c01da7f13a3c6f7fa4fcf162b9258170371aa7e03571c95",
    "table --to 300 --approx": "2e1b8079e76e7ef78084d1f62fbf44d9051bd024d576e16a19b753b1f254a8f5",
    "bounds --to 1200": "e93e047addb38501bbcc11499f9fe8e19f5bd80e77abcb61c36cef581710d39d",
    "bounds --n 1000": "a334306d50b883a3fcd9d6575c2d03e0a85d2c0d6798fd752cac695fad6bb7b6",
    "verify --n 200": "ed0d22ba37fd9a00574b50afc745cea7321a91fe3d2fb7f3475df648b18599ca",
    "nn --n 1000 --search full": "95d6216d4e582303fad35dabde65377fd2cc74bb4ba2b101664411d0236cba20",
    "fuzz --n 7 --count 300": "0df1786bd9e8ca183c8d74626c33c9f4a957b24473888dce70e95114f1425409",
    "explore --n 3 --m 5 --budget 200 --seed 1": "87f368e2ec38edb452db42518e582dee7e1d1da909aa8a35889beae2eb60ff81",
}


@pytest.mark.parametrize("args", PINNED_STDOUT)
def test_stdout_is_pinned(args):
    result = invoke(*args.split())
    assert (result.exit_code, result.stderr) == (0, "")
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == PINNED_STDOUT[args]


# --- fuzz ----------------------------------------------------------------------------

def test_fuzz_csv_is_deterministic_and_sound():
    first = invoke("fuzz", "--n", "3", "--count", "5", "--seed", "1")
    second = invoke("fuzz", "--n", "3", "--count", "5", "--seed", "1")
    assert first.exit_code == 0
    assert first.output == second.output
    lines = first.output.splitlines()
    assert lines[0] == "instance_id,ratio_num,ratio_den,bound_holds"
    assert len(lines) == 6
    assert all(line.endswith(",true") for line in lines[1:])


@pytest.mark.parametrize("count", ["0", "-3"])
def test_fuzz_rejects_count_below_one(count):
    result = invoke("fuzz", "--n", "5", "--count", count)
    assert result.exit_code == 2
    assert "instance_id" not in result.output


def test_fuzz_rejection_cap_is_an_input_error():
    # at n = 9 the 300 draws of --count 3 run out at instance 2: the rows
    # already printed stay, and the message goes to stderr
    result = invoke("fuzz", "--n", "9", "--count", "3")
    assert result.exit_code == 2
    lines = result.stdout.splitlines()
    assert lines[0] == "instance_id,ratio_num,ratio_den,bound_holds"
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "1"]
    assert result.stderr == "aggregate attempt budget 300 exhausted at instance 2\n"


def test_fuzz_exits_1_on_a_ratio_above_the_bound(monkeypatch):
    monkeypatch.setattr(cli, "solve_p_nn", lambda n: SimpleNamespace(ratio=Fraction(1)))
    result = invoke("fuzz", "--n", "5", "--count", "20")
    assert result.exit_code == 1
    rows = [line.split(",") for line in result.stdout.splitlines()[1:]]
    assert len(rows) == 20
    assert all(flag == ("true" if num == den else "false") for _, num, den, flag in rows)
    assert any(flag == "false" for *_, flag in rows)


# --- scale -----------------------------------------------------------------------------

# One run per subcommand at a size in the thousands where it has one. Wall
# times through CliRunner on a 2-core x86 box (Python 3.11.7): nn 0.20 s,
# verify 0.95 s, bounds < 0.01 s, witness 0.01 s, fuzz 0.17 s, explore
# 0.10 s. Each budget leaves room for a host that runs several times slower.

def scale_invoke(budget_s, *args):
    t0 = time.perf_counter()
    result = invoke(*args)
    elapsed = time.perf_counter() - t0
    assert result.exit_code == 0, result.output
    assert elapsed < budget_s, f"{elapsed:.2f}s"
    return result.output


def test_nn_at_scale():
    assert re.fullmatch(r"\d+/\d+\n", scale_invoke(2.0, "nn", "--n", "5000"))


def test_verify_at_scale():
    out = scale_invoke(5.0, "verify", "--n", "2000")
    assert re.fullmatch(r"solver=(\d+/\d+) oracle=\1\n", out)


def test_bounds_at_scale():
    payload = json.loads(scale_invoke(1.0, "bounds", "--n", "2000"))
    assert payload["n"] == 2000
    assert payload["p_exact"] is None
    assert payload["checks"] and all(payload["checks"].values())


def test_witness_at_scale(tmp_path):
    out = tmp_path / "w1000.json"
    line = scale_invoke(1.0, "witness", "--n", "1000", "--out", str(out))
    assert line == f"{read_witness(str(out)).ratio}\n"


def test_fuzz_at_scale():
    out = scale_invoke(2.0, "fuzz", "--n", "300", "--count", "1")
    assert re.fullmatch(
        r"instance_id,ratio_num,ratio_den,bound_holds\n0,\d+,\d+,true\n", out
    )


def test_explore_square_at_scale():
    # 7^7 allocations exceed the explorer's cap, but a square instance
    # certifies by matching, so the cap applies only when m > n
    out = scale_invoke(2.0, "explore", "--n", "7", "--m", "7", "--budget", "1000")
    match = re.fullmatch(r"heuristic lower bound: (\d+/\d+)\n", out)
    assert match and 1 <= Fraction(match[1]) <= KNOWN_RATIOS[7]
