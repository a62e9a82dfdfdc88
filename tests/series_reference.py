"""Series inversion for building test references.

The package never divides one series by another (its products run the
log-derivative recurrence), so the naive references in the tests carry
their own inverse.
"""

from hilbtorus.series import TruncatedSeries


def invert(series: TruncatedSeries) -> TruncatedSeries:
    """1 / series to the same order; the constant term must be exactly 1.

    b_0 = 1 and b_k = -sum_{j>=1} a_j b_{k-j}, walking only the nonzero a_j.
    """
    a = series.coeffs
    assert a[0] == 1, "series inversion requires constant term 1"
    nonzero = [(j, aj) for j, aj in enumerate(a) if j > 0 and aj]
    out: list = [1] + [0] * series.order
    for k in range(1, series.order + 1):
        acc = 0
        for j, aj in nonzero:
            if j > k:
                break
            acc = acc + aj * out[k - j]
        out[k] = -acc
    return TruncatedSeries(series.order, out)
