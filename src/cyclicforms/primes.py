"""Deterministic primality and smallest-prime-factor helpers.

Moduli in this package are desk-scale, but the scan harness wants
reproducible answers for anything below 2**64, so we use the fixed
Miller-Rabin witness set that is known to be deterministic in that range.
"""

from __future__ import annotations

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < 2**64."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n >= 1 << 64:
        raise ValueError("primality test is deterministic only below 2**64")
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def smallest_prime_factor(n: int) -> int:
    """p_1(n): the smallest prime factor of n, with p_1(1) = 1."""
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return 1
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return p
    if is_prime(n):
        return n
    # n is composite with no prime factor below 49, so an odd f <= sqrt(n) divides it
    f = 49
    while n % f:
        f += 2
    return f


def multiplicative_order(a: int, n: int) -> int:
    """Order of a in (Z/n)^x, 1 in the trivial group at n = 1.  Requires gcd(a, n) = 1."""
    from math import gcd

    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return 1
    a %= n
    if gcd(a, n) != 1:
        raise ValueError(f"{a} is not a unit mod {n}")
    k = 1
    x = a
    while x != 1:
        x = x * a % n
        k += 1
    return k


def primitive_root(p: int) -> int:
    """The least generator of (Z/p)^x for a prime p."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    factors = []
    rest = p - 1
    while rest > 1:
        q = smallest_prime_factor(rest)
        factors.append(q)
        while rest % q == 0:
            rest //= q
    return next(g for g in range(1, p) if all(pow(g, (p - 1) // q, p) != 1 for q in factors))
