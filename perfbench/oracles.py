"""Reference values computed without arbozeta: closed forms and mpmath."""
from __future__ import annotations

import math

import mpmath

mpmath.mp.dps = 30


def lambda_shuffle_sum(m: int, n: int, lam: int) -> int:
    """Coefficient sum of the lambda-shuffle of words of lengths m and n.

    Sum over k contractions of lam^k (m+n-k)! / (k! (m-k)! (n-k)!): the
    binomial C(m+n, m) at lam = 0 and the Delannoy number D(m, n) at lam = 1.
    """
    return sum(lam**k * math.factorial(m + n - k)
               // (math.factorial(k) * math.factorial(m - k) * math.factorial(n - k))
               for k in range(min(m, n) + 1))


def zeta_product(parts: tuple[int, ...]) -> float:
    """zeta(a) zeta(b) ...: a forest of single vertices, in either flavor."""
    return float(mpmath.fprod(mpmath.zeta(p) for p in parts))


def zeta_2_ones(k: int) -> float:
    """zeta(2, 1^k) = zeta(k + 2)."""
    return float(mpmath.zeta(k + 2))


def zeta_twos(k: int) -> float:
    """zeta({2}^k) = pi^(2k) / (2k+1)!."""
    return float(mpmath.pi ** (2 * k) / mpmath.factorial(2 * k + 1))


def polylog(s: tuple[int, ...], z: float) -> float:
    """Li_s(z) = sum over n1 > ... > nk >= 1 of z^n1 / (n1^s1 ... nk^sk).

    Depth 1 uses mpmath.polylog; deeper indices sum the nested series in
    30-digit arithmetic up to a horizon where z^N is below 1e-35.
    """
    z_mp = mpmath.mpf(z)
    if len(s) == 1:
        return float(mpmath.polylog(s[0], z_mp))
    horizon = int(math.ceil(80.0 / -math.log(z))) + 1
    inner = [mpmath.mpf(0)] + [mpmath.mpf(n) ** -s[-1] for n in range(1, horizon + 1)]
    for part in reversed(s[:-1]):
        level = [mpmath.mpf(0)] * (horizon + 1)
        prefix = mpmath.mpf(0)
        for n in range(1, horizon + 1):
            level[n] = prefix * mpmath.mpf(n) ** -part
            prefix += inner[n]
        inner = level
    return float(mpmath.fsum(inner[n] * z_mp**n for n in range(1, horizon + 1)))


def within(value: float, abs_error: float, ref: float) -> bool:
    """A certified value agrees with a reference within its own bound."""
    return abs(value - ref) <= abs_error + 1e-15 * abs(ref)
