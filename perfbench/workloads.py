"""The benchmark's workloads: seeded request lists, and how to check them.

A request is an argv list for hilbtorus.cli.main. A workload's list is a
function of (seed, seconds) alone, so the same seed gives the same inputs
and the same output digest. Draws are stratified (one draw per equal slice
of the range, then shuffled), so the total work of a run hardly depends on
the seed while every value in the range stays reachable.
"""

import random

import checks

# sparse-sweep: n log-uniform in [1, 10^5], four compute kinds per n
SPARSE_MAX_N = 10 ** 5
SPARSE_KINDS = ("cn", "zeta", "ad", "sections")
SPARSE_N_PER_SECOND = 45
# dense-pn: pretty `compute pn A..B`, A uniform in [1, 4000], B - A < 4
DENSE_MAX_A = 4000
DENSE_WIDTHS = (1, 2, 3, 4)
DENSE_RANGES_PER_SECOND = 130

CERTIFY_ARGV = ["verify"]
TINY_CERTIFY_ARGV = ["verify", "--max-n", "200", "--order", "400"]

# dense-pn is left out of BENCHMARK.json: in busy periods of the tuning
# machine its ten-seed spread (IQR/median) reached 0.24 on wall_s and 0.29
# on req_p50_ms, above the largest bound the benchmark may set. It still
# runs by hand, for A/B runs of laurent and cli changes.
NAMES = ("certify", "sparse-sweep", "dense-pn")


def _stratified(rng, count):
    """count floats in [0, 1), one in each slice [j/count, (j+1)/count),
    shuffled."""
    draws = [(j + rng.random()) / count for j in range(count)]
    rng.shuffle(draws)
    return draws


def build(name, seed, seconds, tiny=False):
    """The request list of one round. tiny shrinks certify for the
    self-test; the other workloads shrink with seconds."""
    rng = random.Random(f"{name}:{seed}")
    if name == "certify":
        return [TINY_CERTIFY_ARGV if tiny else CERTIFY_ARGV]
    if name == "sparse-sweep":
        requests = []
        count = max(1, round(SPARSE_N_PER_SECOND * seconds))
        for u in _stratified(rng, count):
            n = max(1, int(SPARSE_MAX_N ** u))
            for kind in SPARSE_KINDS:
                fmt = rng.choice(("pretty", "json"))
                requests.append(["compute", kind, str(n), "--format", fmt])
        return requests
    if name == "dense-pn":
        requests = []
        count = max(1, round(DENSE_RANGES_PER_SECOND * seconds))
        # every width equally often, so the work hardly depends on the seed
        widths = [DENSE_WIDTHS[j % len(DENSE_WIDTHS)] for j in range(count)]
        rng.shuffle(widths)
        for u, width in zip(_stratified(rng, count), widths):
            lo = 1 + int(DENSE_MAX_A * u)
            requests.append(["compute", "pn", f"{lo}..{lo + width - 1}"])
        return requests
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(NAMES)}")


def check(argv, rc, text):
    """(units attempted, reasons for failed units) of one request's output.

    A certify request counts each verify suite as one unit; any other
    request is one unit, failed if its exit status or any printed answer
    is wrong."""
    if argv[0] == "verify":
        return checks.check_verify(rc, text)
    if rc != 0:
        return 1, [f"exit status {rc}"]
    kind = argv[1]
    if kind == "pn":
        lo, hi = map(int, argv[2].split(".."))
        lines = text.rstrip("\n").split("\n")
        if len(lines) != hi - lo + 1:
            return 1, [f"{len(lines)} lines for {argv[2]}"]
        for n, line in zip(range(lo, hi + 1), lines):
            # a range prints "n: P_n" lines, a single index P_n alone
            label, _, poly = (line.partition(": ") if lo < hi
                              else (str(n), "", line))
            reason = (f"label {label!r}" if label != str(n)
                      else checks.check_pn(n, poly))
            if reason:
                return 1, [f"P_{n}: {reason}"]
        return 1, []
    n = int(argv[2])
    reason = checks.check_compute(kind, argv[4], n, text)
    return 1, [f"{kind} {n}: {reason}"] if reason else []
