"""Self-test of the benchmark at tiny sizes (under a minute).

    python3 perfbench/selftest.py

Checks that BENCHMARK.json names exactly the workloads and metrics run.py
prints, that every workload prints every metric with its unit in both modes
and passes its output checks, that a seed fixes the output digest, that the
verify suite spans add up to the traced certify wall time, that the output
checks reject wrong answers, that the divisor-sum oracles of checks.py
agree with brute-force lattice counts, and that the benchmark refuses to
run without the package sources.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from math import isqrt

import checks
import run
import workloads

TINY_SECONDS = 0.5
FAILED = []


def expect(cond, what):
    if not cond:
        FAILED.append(what)
        print(f"FAIL {what}")


def test_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect({w["name"] for w in spec["workloads"]} <= set(workloads.NAMES),
           "BENCHMARK.json workloads are workloads of workloads.py")
    expect([(m["name"], m["unit"]) for m in spec["end_to_end"]]
           == list(run.END_TO_END), "BENCHMARK.json end_to_end matches run.py")
    expect([(m["name"], m["unit"]) for m in spec["per_layer"]]
           == list(run.PER_LAYER), "BENCHMARK.json per_layer matches run.py")


def _metrics_ok(result, wanted, label):
    metrics = result["metrics"]
    expect(result["correct"] and result["failed"] == 0
           and result["attempted"] >= 1, f"{label}: correct")
    expect(sorted(metrics) == sorted(name for name, _ in wanted),
           f"{label}: prints exactly its metrics")
    expect(all(metrics[name]["unit"] == unit for name, unit in wanted
               if name in metrics), f"{label}: units")


def test_workloads():
    digests = {}
    for name in workloads.NAMES:
        result, record = run.run_workload(name, 7, TINY_SECONDS, 0, tiny=True)
        digests[name] = record["output_sha256"][0]
        _metrics_ok(result, run.END_TO_END, f"{name} --trace 0")
        expect(all(result["metrics"][m]["value"] > 0
                   for m, _ in run.END_TO_END), f"{name}: metrics nonzero")
        traced, trecord = run.run_workload(name, 7, TINY_SECONDS, 1, tiny=True)
        _metrics_ok(traced, run.PER_LAYER, f"{name} --trace 1")
        expect(set(record["output_sha256"] + trecord["output_sha256"])
               == {digests[name]}, f"{name}: same seed, same output digest")
        if name == "certify":
            metrics = traced["metrics"]
            suites = sum(metrics[f"verify.{s}.wall_s"]["value"]
                         for s in checks.VERIFY_SUITES)
            expect(abs(suites / trecord["traced_round_wall_s"][0] - 1) < 0.05,
                   "certify: verify suite spans sum to the traced wall time")
            # the qseries suite alone may fault no page at tiny sizes
            expect(metrics["qseries.minflt"]["value"] > 0,
                   "certify: qseries page faults recorded")
    other = run.run_workload("sparse-sweep", 8, TINY_SECONDS, 0, tiny=True)[1]
    expect(other["output_sha256"][0] != digests["sparse-sweep"],
           "sparse-sweep: another seed, another output")


def test_checks_reject_wrong_output():
    c3 = "q^6 - q^5 - q^4 + 2q^3 - q^2 - q + 1"
    expect(checks.check_compute("cn", "pretty", 3, c3) is None,
           "checks accept C_3")
    expect(checks.check_compute("cn", "pretty", 3, c3.replace("2q^3", "q^3")),
           "checks reject a wrong C_3")
    zeta3 = ("(1 - q t)(1 - q^2 t)(1 - q^4 t)(1 - q^5 t) / "
             "((1 - t)(1 - q^3 t)^2(1 - q^6 t))")
    expect(checks.check_compute("zeta", "pretty", 3, zeta3) is None,
           "checks accept Z_3")
    expect(checks.check_compute("zeta", "pretty", 3,
                                zeta3.replace("q^3 t)^2", "q^3 t)")),
           "checks reject a wrong Z_3")
    ad9 = "a_2(9) = -4, a_3(9) = 6, a_4(9) = -6, a_6(9) = -4"
    expect(checks.check_compute("ad", "pretty", 9, ad9) is None,
           "checks accept a_d(9)")
    expect(checks.check_compute("ad", "pretty", 9, ad9.replace("6,", "3,")),
           "checks reject a wrong a_3(9)")
    s12 = "s_1(12) = 28, s_2(12) = 14, s_3(12) = 10, s_4(12) = 7, s_6(12) = 5"
    expect(checks.check_compute("sections", "pretty", 12, s12) is None,
           "checks accept s_k(12)")
    expect(checks.check_compute("sections", "pretty", 12,
                                s12.replace("= 7", "= 8")),
           "checks reject a wrong s_4(12)")
    expect(checks.check_pn(2, "q^2 + q + 1") is None, "checks accept P_2")
    expect(checks.check_pn(2, "q^2 + 2q + 1"), "checks reject a wrong P_2")
    output = "ok   coeffs 0.1s a\nFAIL roots 0.1s b"
    _, reasons = checks.check_verify(1, output)
    expect(len(reasons) == len(checks.VERIFY_SUITES) - 1,
           "checks count failed and missing verify suites")


def _brute(n, a, b):
    """#{(x, y): a x^2 + b y^2 = n}."""
    return sum(1 for x in range(-isqrt(n), isqrt(n) + 1)
               for y in range(-isqrt(n), isqrt(n) + 1)
               if a * x * x + b * y * y == n)


def _brute_sections(n):
    """s_k(n) from the definition of a_{n,i} in real square roots' terms,
    decided by exact integer comparisons on the squared inequalities."""
    coeff = {}
    for i in range(n):
        s = 2 * n + i * i
        a = sum(1 for d in range(1, n + 1) if n % d == 0
                and 2 * d - i > 0 and (2 * d - i) ** 2 > s
                and (d - i <= 0 or (d - i) ** 2 <= s))
        for e in {n - 1 + i, n - 1 - i}:
            coeff[e] = a
    return {k: sum(c for e, c in coeff.items() if e % k == 0)
            for k in checks.SECTION_KS}


def test_oracles():
    for n in range(1, 60):
        expect(checks.r2(n) == _brute(n, 1, 1), f"r({n})")
        expect(checks.r_prime(n) == _brute(n, 1, 2), f"r'({n})")
        hexagonal = sum(1 for x in range(-n, n + 1) for y in range(-n, n + 1)
                        if x * x + x * y + y * y == n)
        expect(6 * checks._excess(n) == hexagonal, f"E({n})")
        expect(checks.sections(n) == _brute_sections(n), f"sections({n})")


def test_refuses_without_sources():
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.HERE, f"{tmp}/{run.HERE.name}",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload",
             "sparse-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "refuses to run without src/hilbtorus")


def main():
    for test in (test_benchmark_json, test_checks_reject_wrong_output,
                 test_oracles, test_refuses_without_sources, test_workloads):
        before = len(FAILED)
        test()
        print(f"{'ok  ' if len(FAILED) == before else 'FAIL'} {test.__name__}")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
