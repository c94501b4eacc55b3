"""Seeded CSV inputs for the benchmark workloads.

Uses numpy only, so the inputs do not depend on the package under test.
The same (workload seed, design) always gives the same bytes.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

# One RNG stream per design, so each workload's input is independent of
# which other workloads ran with the same seed.
_STREAM_BINARY = 1
_STREAM_GAUSSIAN = 2


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, stream])))


def binary_csv(seed: int, n: int, k: int) -> str:
    """Binary (y, d, z) sample whose instrument z moves selection only.

    (Y0, Y1) are drawn independently of z, so the exclusion restriction
    holds. P(D=1 | y0, y1, z) stays within [0.15, 0.85]: every cell at
    every z is well populated, and the generalized bounds are far from
    crossing for any seed.
    """
    rng = _rng(seed, _STREAM_BINARY)
    zi = rng.integers(0, k, size=n)
    y0 = (rng.random(n) < 0.4).astype(np.int64)
    y1 = (rng.random(n) < 0.55).astype(np.int64)
    p_d1 = np.linspace(0.3, 0.7, k)[zi] + 0.15 * (y1 - y0)
    d = (rng.random(n) < p_d1).astype(np.int64)
    y = np.where(d == 1, y1, y0)
    labels = [f"z{i:02d}" for i in range(k)]
    rows = [f"{a},{b},{labels[c]}" for a, b, c in zip(y.tolist(), d.tolist(), zi.tolist())]
    return "y,d,z\n" + "\n".join(rows) + "\n"


def gaussian_csv(seed: int, n: int, mu1: float = 1.2, rho: float = 0.5) -> str:
    """Continuous (y, d) sample from Roy selection on a Gaussian pair.

    Y0 ~ N(0, 1), Y1 ~ N(mu1, 1) with correlation rho, D = 1{Y1 > Y0}.
    With mu1=1.2 and rho=0.5, P(D=0) = Phi(-1.2) ~ 0.115, far below the
    q1=0.25 at which the IQR interval would skip its objective grid.
    Pairs are drawn in order and kept until each sector holds its expected
    count, round(n * P(D=d)): the IQR grid, whose size follows the
    sector-0 mass, then does nearly the same work for every seed.
    """
    rng = _rng(seed, _STREAM_GAUSSIAN)
    n0 = round(n * 0.5 * math.erfc(mu1 / math.sqrt(2.0 - 2.0 * rho) / math.sqrt(2.0)))
    y0 = rng.standard_normal(3 * n)
    y1 = mu1 + rho * y0 + np.sqrt(1.0 - rho**2) * rng.standard_normal(3 * n)
    d = (y1 > y0).astype(np.int64)
    keep = np.sort(np.concatenate([np.flatnonzero(d == 0)[:n0], np.flatnonzero(d == 1)[: n - n0]]))
    if len(keep) != n:
        raise ValueError(f"seed {seed}: too few draws to fill both sectors")
    y = np.where(d == 1, y1, y0)[keep]
    rows = [f"{v!r},{s}" for v, s in zip(y.tolist(), d[keep].tolist())]
    return "y,d\n" + "\n".join(rows) + "\n"


def distinct_y(text: str) -> int:
    """Number of distinct outcome values in a generated CSV."""
    return len({line.split(",", 1)[0] for line in text.splitlines()[1:]})


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
