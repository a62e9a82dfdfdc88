"""Tests for the command-line interface.

Runs main() in-process with capsys so exit codes and exact output can be
asserted without subprocess overhead; main() reuses one parser across
calls, so consecutive calls are also checked for leaking options.  One
subprocess test checks that importing the cli builds no parser, and two at
the end check the entry points: ``python -m hilbtorus``, and the console
script, for which the entry point that pyproject.toml declares for
``hilbtorus`` is always run the way an installer's wrapper calls it, and
the installed ``hilbtorus`` script too when one is on PATH.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hilbtorus
from hilbtorus import arith, cli, coeffs, verify
from hilbtorus.arith import r2
from hilbtorus.bfile import SEQUENCES
from hilbtorus.cli import PN_MAX_N, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_cn_pretty(capsys):
    code, out, err = run(capsys, "compute", "cn", "2")
    assert code == 0
    assert out == "q^4 - q^3 - q + 1\n"
    assert err == ""


def test_compute_pn_pretty(capsys):
    code, out, _ = run(capsys, "compute", "pn", "1")
    assert code == 0
    assert out == "1\n"


def test_compute_json_single(capsys):
    code, out, _ = run(capsys, "compute", "cn", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "n": 1,
        "coeffs": [{"e": 0, "v": "1"}, {"e": 1, "v": "-2"}, {"e": 2, "v": "1"}],
    }


def test_compute_json_range(capsys):
    code, out, _ = run(capsys, "compute", "pn", "1..3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert isinstance(payload, list)
    assert [item["n"] for item in payload] == [1, 2, 3]
    assert payload[1]["coeffs"] == [
        {"e": 0, "v": "1"}, {"e": 1, "v": "1"}, {"e": 2, "v": "1"}]


def test_compute_range_pretty(capsys):
    code, out, _ = run(capsys, "compute", "pn", "2..3")
    assert code == 0
    assert out == "2: q^2 + q + 1\n3: q^4 + q^3 + q + 1\n"


def test_compute_zeta_pretty(capsys):
    code, out, _ = run(capsys, "compute", "zeta", "5")
    assert code == 0
    assert out == ("(1 - q t)(1 - q^3 t)(1 - q^7 t)(1 - q^9 t)"
                   " / ((1 - t)(1 - q^4 t)(1 - q^6 t)(1 - q^10 t))\n")


def test_compute_zeta_json(capsys):
    code, out, _ = run(capsys, "compute", "zeta", "1", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "n": 1,
        "factors": [{"e": 0, "m": 1}, {"e": 1, "m": -2}, {"e": 2, "m": 1}],
    }


def test_compute_hasse_weil(capsys):
    code, out, _ = run(capsys, "compute", "hasse-weil", "1")
    assert code == 0
    assert out == "zeta(s) zeta(s - 2) / zeta(s - 1)^2\n"


def test_compute_ad_all_orders(capsys):
    code, out, _ = run(capsys, "compute", "ad", "5")
    assert code == 0
    assert out == "a_2(5) = -8, a_3(5) = 0, a_4(5) = 0, a_6(5) = 4\n"


def test_compute_ad_single_order(capsys):
    code, out, _ = run(capsys, "compute", "ad", "5", "--d", "2")
    assert code == 0
    assert out == "a_2(5) = -8\n"


def test_compute_ad_json(capsys):
    code, out, _ = run(capsys, "compute", "ad", "5", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "n": 5, "values": {"2": "-8", "3": "0", "4": "0", "6": "4"}}


def test_compute_sections(capsys):
    code, out, _ = run(capsys, "compute", "sections", "12")
    assert code == 0
    assert out == ("s_1(12) = 28, s_2(12) = 14, s_3(12) = 10, "
                   "s_4(12) = 7, s_6(12) = 5\n")


def test_compute_arithmetic_error_exits_1(capsys, monkeypatch):
    # a lattice count that 4 does not divide trips a_6's exact division
    monkeypatch.setattr(arith, "r2", lambda n: 5)
    code, out, err = run(capsys, "compute", "ad", "7", "--d", "6")
    assert code == 1
    assert out == ""
    assert err == "compute ad: a_6(7): 5 is not divisible by 4\n"


@pytest.mark.parametrize("n", [str(PN_MAX_N + 1), f"1..{PN_MAX_N + 1}"])
def test_compute_pn_above_limit_exits_2(capsys, monkeypatch, n):
    def never(n):
        raise AssertionError("compute pn built P_n above its limit")

    monkeypatch.setattr(coeffs, "reduced_poly", never)
    code, out, err = run(capsys, "compute", "pn", n)
    assert code == 2
    assert out == ""
    assert err == (f"compute pn: n = {PN_MAX_N + 1} is above the limit "
                   f"{PN_MAX_N}: P_n has 2n - 1 coefficients\n")


def test_compute_cn_at_a_billion(capsys):
    n = 10 ** 9
    code, out, _ = run(capsys, "compute", "cn", str(n), "--format", "json")
    assert code == 0
    terms = {t["e"]: int(t["v"]) for t in json.loads(out)["coeffs"]}
    assert min(terms) == 0 and max(terms) == 2 * n
    assert terms[0] == terms[2 * n] == 1
    assert all(terms.get(2 * n - e) == c for e, c in terms.items())
    assert sum(terms.values()) == 0  # C_n(1)
    assert sum(c if e % 2 == 0 else -c for e, c in terms.items()) == r2(n)


def test_d_flag_requires_ad(capsys):
    code, out, err = run(capsys, "compute", "cn", "3", "--d", "2")
    assert code == 2
    assert out == ""
    assert "--d only applies" in err


def test_bad_range_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compute", "cn", "8..3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["compute", "cn", "zero"])
    assert exc.value.code == 2


def test_table_output(capsys):
    code, out, _ = run(capsys, "table", "4", "--max-n", "3")
    assert code == 0
    assert out == ("n\ts_2(n)\ts_3(n)\ts_4(n)\ts_6(n)\n"
                   "1\t1\t1\t1\t1\n2\t2\t1\t1\t1\n3\t2\t2\t2\t1\n")


def test_verify_selected_suites(capsys):
    code, out, err = run(capsys, "verify", "--suite", "zeta,tables", "--max-n", "30")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2
    assert lines[0].startswith("ok   zeta")
    assert lines[1].startswith("ok   tables")


def test_verify_reports_unexpected_exception_as_suite_failure(capsys, monkeypatch):
    def overflow(**kwargs):
        raise ArithmeticError("remainder in an exact division")

    monkeypatch.setitem(verify.SUITES, "zeta", overflow)
    code, out, err = run(capsys, "verify", "--suite", "zeta,tables", "--max-n", "30")
    assert code == 1
    lines = out.strip().split("\n")
    assert len(lines) == 2
    assert lines[0].startswith("FAIL zeta")
    assert ("ArithmeticError: remainder in an exact division "
            "(raised in overflow, test_cli.py:") in lines[0]
    assert lines[1].startswith("ok   tables")


def test_verify_help_names_what_each_flag_sets(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    options = " ".join(capsys.readouterr().out.split()).split("options:", 1)[1]
    max_n_help, order_help = options.split("--max-n MAX_N", 1)[1].split("--order ORDER")
    for name, keyword in verify._SIZE_KEYWORD.items():
        want = f"{name} ignores it" if keyword is None else name
        assert keyword in (None, "max_n") and want in max_n_help, (name, keyword)
    for name, keyword in verify._ORDER_KEYWORD.items():
        want = "the other suites ignore it" if keyword is None else f"{keyword} of {name}"
        assert want in order_help, (name, keyword)


def test_verify_unknown_suite(capsys):
    code, out, err = run(capsys, "verify", "--suite", "nonsense")
    assert code == 2
    assert "unknown suite" in err


@pytest.mark.parametrize("suite", [",", ""])
def test_verify_empty_suite_selection_is_usage_error(capsys, suite):
    code, out, err = run(capsys, "verify", "--suite", suite)
    assert code == 2
    assert out == ""
    assert err == f"verify: --suite names no suite; known: {', '.join(verify.SUITES)}\n"


@pytest.mark.parametrize("kind", ["sections", "ad"])
@pytest.mark.parametrize("n", ["1", "12", "999983", "1000000"])
def test_compute_counts_r2_once_per_n(capsys, monkeypatch, kind, n):
    calls = []

    def counting_r2(m):
        calls.append(m)
        return r2(m)

    monkeypatch.setattr(arith, "r2", counting_r2)
    code, _, _ = run(capsys, "compute", kind, n)
    assert code == 0
    assert calls == [int(n)]


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_import_builds_no_parser():
    src = Path(hilbtorus.__file__).resolve().parents[1]
    probe = ("from hilbtorus import cli; "
             "print(cli.build_parser.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


def test_consecutive_calls_do_not_share_options(capsys):
    assert run(capsys, "compute", "ad", "9", "--d", "2")[1] == "a_2(9) = -4\n"
    assert run(capsys, "compute", "ad", "9")[1] == (
        "a_2(9) = -4, a_3(9) = 6, a_4(9) = -6, a_6(9) = -4\n")
    assert json.loads(run(capsys, "compute", "cn", "3", "--format", "json")[1])["n"] == 3
    assert run(capsys, "compute", "cn", "3")[1] == (
        "q^6 - q^5 - q^4 + 2q^3 - q^2 - q + 1\n")
    first = run(capsys, "verify", "--suite", "zeta", "--max-n", "5")[1]
    assert [line.split()[1] for line in first.splitlines()] == ["zeta"]
    code, second, _ = run(capsys, "verify", "--suite", "tables", "--max-n", "5")
    assert code == 0
    assert [line.split()[1] for line in second.splitlines()] == ["tables"]


def test_oeis_compare_ok(capsys, tmp_path):
    seq = SEQUENCES["a004018"]
    path = tmp_path / "b004018.txt"
    path.write_text("".join(f"{i} {seq.value(i)}\n" for i in range(25)))
    code, out, _ = run(capsys, "oeis-compare", "a004018", str(path))
    assert code == 0
    assert "all agree" in out


def test_oeis_compare_mismatch(capsys, tmp_path):
    path = tmp_path / "b067742.txt"
    path.write_text("1 1\n2 999\n")
    code, out, _ = run(capsys, "oeis-compare", "a067742", str(path))
    assert code == 1
    assert "index 2: file has 999, computed 1" in out


def test_oeis_compare_malformed(capsys, tmp_path):
    path = tmp_path / "b067742.txt"
    path.write_text("1 x\n")
    code, out, err = run(capsys, "oeis-compare", "a067742", str(path))
    assert code == 2
    assert "non-integer" in err


def test_oeis_compare_missing_file(capsys, tmp_path):
    code, out, err = run(capsys, "oeis-compare", "a067742",
                         str(tmp_path / "absent.txt"))
    assert code == 2
    assert err


def test_console_script_installed():
    argv = ["compute", "cn", "1"]

    exe = shutil.which("hilbtorus")
    if exe:
        proc = subprocess.run([exe, *argv], capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == "q^2 - 2q + 1\n"

    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["hilbtorus"]
    module, _, attr = target.partition(":")
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    src = Path(hilbtorus.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", wrapper, *argv],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "q^2 - 2q + 1\n"


def test_python_dash_m_runs_cli():
    src = Path(hilbtorus.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-m", "hilbtorus", "compute", "cn", "1"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "q^2 - 2q + 1\n"
