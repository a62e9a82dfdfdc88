"""Run one workload of the hilbtorus benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py and README.md): certify, sparse-sweep, dense-pn.
Every measurement starts a fresh interpreter (child.py) that imports the
package from src/ of this checkout and enters it only through
hilbtorus.cli.main(argv), so its caches start empty as a CLI user's do.

A run is a few rounds (ROUNDS), each a fresh child running the same
request list. --trace 0 prints the end-to-end metrics: set-up time (median
of fresh imports spread over the run), wall time and per-request latency
from each request's best time over the rounds, and the child's peak RSS.
--trace 1 alternates untraced rounds with rounds that have the spans of
spans.py installed, and prints the per-layer metrics. Outputs are checked
after the timed requests, by checks.py; every round must print the same
output. The last stdout line is the JSON result, the line before it a JSON
record of the run (platform, pinned environment, output digests, failures).
"""

import argparse
import hashlib
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
SETUP_SAMPLES = 18
# A run is several rounds, each a fresh child running the whole request
# list, which is sized to seconds / (rounds with --trace 0). Each request
# counts with its best time over the rounds: on a shared machine the speed
# of one core swings by up to 2x over seconds, and the best of many samples
# spread over the run is far steadier than any single sample or sum.
# (rounds with --trace 0, untraced + traced round pairs with --trace 1)
ROUNDS = {"certify": (2, 1), "sparse-sweep": (18, 2), "dense-pn": (18, 2)}
CHILD_TIMEOUT_S = 170

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("req_p50_ms", "ms"),
              ("req_p99_ms", "ms"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    tuple((f"verify.{suite}.wall_s", "s") for suite in checks.VERIFY_SUITES)
    + (("verify.qseries.minflt", "count"),
       ("qseries.eta_quotient_series.self_s", "s"),
       ("qseries.eta_quotient_series.calls", "count"),
       ("qseries.gauss_series.self_s", "s"),
       ("qseries.expand_master_product.self_s", "s"),
       ("qseries.expand_root_product.self_s", "s"),
       ("qseries.expand_root_product.calls", "count"),
       ("qseries.expand_root_product.cache_misses", "count"),
       ("qseries.minflt", "count"),
       ("coeffs.count_poly.self_s", "s"),
       ("coeffs.count_poly.calls", "count"),
       ("coeffs.CoeffTables.build.self_s", "s"),
       ("coeffs.CoeffTables.build.calls", "count"),
       ("zeta.build_local_zeta.self_s", "s"),
       ("zeta.build_local_zeta.calls", "count"),
       ("coeffs.reduced_poly.self_s", "s"),
       ("coeffs.reduced_poly.calls", "count"),
       ("coeffs.divisor_coeff_vector.self_s", "s"),
       ("coeffs.divisor_coeff_vector.calls", "count"),
       ("arith.divisors.self_s", "s"),
       ("arith.divisors.calls", "count"),
       ("arith.r2.self_s", "s"),
       ("arith.r_hex.self_s", "s"),
       ("arith.lambda_fn.self_s", "s"),
       ("arith.factorize.cache_hits", "count"),
       ("arith.factorize.cache_misses", "count"),
       ("arith.factorize.cache_currsize", "count"),
       ("rootvalues.count_at_root.self_s", "s"),
       ("rootvalues.root_sequence.self_s", "s"),
       ("rootvalues.section_direct.self_s", "s"),
       ("rootvalues.section_formula.self_s", "s"),
       ("cyclotomic.CycInt.mul.calls", "count"),
       ("cyclotomic.CycInt.pow.calls", "count"),
       ("laurent.LaurentPoly.evaluate.calls", "count"),
       ("laurent.LaurentPoly.pretty.self_s", "s"),
       ("laurent.LaurentPoly.mul.self_s", "s"),
       ("series.TruncatedSeries.mul.self_s", "s"),
       ("series.TruncatedSeries.mul.calls", "count"),
       ("tables.table_data.self_s", "s"),
       ("cli.main.self_s", "s"),
       ("cli.output_bytes", "bytes"),
       ("trace.overhead_frac", "ratio"),
       ("failed_frac", "ratio"))
)
# the seconds column of `verify` output, left out of the output digest
_SUITE_SECONDS = re.compile(r"^(ok  |FAIL) (\S+)\s+\d+\.\d+s", re.MULTILINE)


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env():
    """The environment minus everything that tunes Python or glibc malloc
    (MALLOC_* alone moves certify's qseries suite by seconds), with the
    package taken from this checkout's src/."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "MALLOC_"))}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _check_module(path):
    if not Path(path).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"imported hilbtorus from {path}, not from src/")


def measure_setup(env, count):
    """Seconds from launching a fresh interpreter to hilbtorus.cli imported,
    once per sample."""
    samples = []
    for _ in range(count):
        start = time.perf_counter()  # CLOCK_MONOTONIC, shared with the child
        proc = subprocess.run([sys.executable, str(CHILD), "setup"], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode:
            raise BenchError(f"set-up child failed:\n{proc.stderr}")
        info = json.loads(proc.stdout)
        _check_module(info["module"])
        samples.append(info["ready"] - start)
    return samples


def run_child(mode, requests, env):
    """Raw stdout of one child running the requests ("run" or "trace")."""
    proc = subprocess.Popen([sys.executable, str(CHILD), mode], env=env,
                            cwd=ROOT, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(json.dumps(requests).encode(),
                                  timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(
            f"{mode} child ran past {CHILD_TIMEOUT_S} s") from None
    if proc.returncode:
        raise BenchError(f"{mode} child exited with {proc.returncode}")
    return out


def digest_text(argv, text):
    if argv[0] == "verify":
        text = _SUITE_SECONDS.sub(r"\1 \2", text)
    return text


def collect(requests, raw, check):
    """Latencies, output digest and, if check, the output checks of a
    child's stdout."""
    digest = hashlib.sha256()
    latencies, failures = [], []
    attempted = output_bytes = 0
    lines = io.BytesIO(raw)

    def next_record():
        line = lines.readline()
        if not line:
            raise BenchError("child output ended early")
        return json.loads(line)

    for argv in requests:
        record = next_record()
        text = record["out"]
        latencies.append(record["ms"])
        output_bytes += len(text.encode())
        digest.update(json.dumps([argv, record["rc"],
                                  digest_text(argv, text)]).encode())
        if check:
            units, reasons = workloads.check(argv, record["rc"], text)
            attempted += units
            failures.extend(f"{' '.join(argv)}: {r}" for r in reasons)
    end = next_record()
    _check_module(end["module"])
    return {"latencies_ms": latencies, "attempted": attempted,
            "failures": failures, "digest": digest.hexdigest(),
            "output_bytes": output_bytes, "end": end}


def percentile(values, pct):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def best_times(runs):
    """Each request's best time (ms) over the rounds."""
    return [min(times) for times in zip(*(r["latencies_ms"] for r in runs))]


def end_to_end(runs, setup):
    best = best_times(runs)
    return {"setup_s": statistics.median(setup),
            "wall_s": sum(best) / 1000.0,
            "req_p50_ms": statistics.median(best),
            "req_p99_ms": percentile(best, 99),
            "peak_rss_mb": max(r["end"]["peak_rss_kb"] for r in runs) / 1024.0}


def per_layer(plain, traced):
    """Per-layer metrics, read by suffix from the report of the fastest
    traced round."""
    report = min(traced, key=lambda r: sum(r["latencies_ms"]))["end"]["trace"]
    spans, caches = report["spans"], report["caches"]
    special = {
        "cli.output_bytes": report["output_bytes"],
        "trace.overhead_frac": (sum(best_times(traced))
                                / sum(best_times(plain)) - 1.0),
        "failed_frac": len(plain[0]["failures"]) / plain[0]["attempted"],
    }
    values = {}
    for name, _unit in PER_LAYER:
        base, _, field = name.rpartition(".")
        if name in special:
            values[name] = special[name]
        elif field == "wall_s":
            values[name] = spans[base]["total_s"]
        elif field in ("self_s", "calls"):
            values[name] = spans[base][field]
        elif field == "minflt":
            values[name] = report["minflt"][base]
        else:  # cache_hits, cache_misses, cache_currsize
            values[name] = caches[base][field.removeprefix("cache_")]
    return values


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, record = run_workload(args.workload, args.seed, args.seconds,
                                      args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


def run_workload(name, seed, seconds, trace, tiny=False):
    """(result, record) of one run, as main prints them."""
    if not (ROOT / "src" / "hilbtorus" / "cli.py").is_file():
        raise BenchError(f"no hilbtorus sources under {ROOT / 'src'}")
    rounds = ROUNDS[name]
    requests = workloads.build(name, seed, seconds / rounds[0], tiny)
    env = child_env()
    plain, traced, setup = [], [], []
    for _ in range(rounds[trace]):  # set-up samples spread over the run
        if not trace:
            setup += measure_setup(env, SETUP_SAMPLES // rounds[0])
        plain.append(collect(requests, run_child("run", requests, env),
                             check=not plain))
        if trace:
            traced.append(collect(requests, run_child("trace", requests, env),
                                  check=False))
    if trace:
        values, units = per_layer(plain, traced), dict(PER_LAYER)
    else:
        values, units = end_to_end(plain, setup), dict(END_TO_END)
    checked = plain[0]
    digests = [r["digest"] for r in plain + traced]
    failed = len(checked["failures"])
    result = {
        "correct": failed == 0 and len(set(digests)) == 1,
        "attempted": checked["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()},
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "requests": len(requests),
        "output_sha256": digests,
        "output_bytes": checked["output_bytes"],
        "round_wall_s": [sum(r["latencies_ms"]) / 1000.0 for r in plain],
        "traced_round_wall_s": [sum(r["latencies_ms"]) / 1000.0
                                for r in traced],
        "failures": checked["failures"][:10],
        "setup_samples_s": setup,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "child_env": {k: v for k, v in env.items()
                      if k in ("PYTHONPATH", "PYTHONHASHSEED")},
        "child_env_removed": sorted(set(os.environ) - set(env)),
    }
    return result, record


if __name__ == "__main__":
    sys.exit(main())
