"""Independent answers the benchmark checks cycbar's outputs against.

Nothing here imports cycbar: the closed forms and the arithmetic are
recomputed from their definitions, so a wrong result in the program
cannot also be a wrong expectation.
"""

from functools import lru_cache


def valuation(p, n):
    """Largest e with p**e dividing the positive integer n."""
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def is_power_of(p, k):
    while k % p == 0:
        k //= p
    return k == 1


def factor_exponent(p, k, i):
    """Exponent of the odd-degree factor Z/p^e of weight i."""
    return valuation(p, k) if i % k == 0 else valuation(p, i)


def verdict(p, k):
    """The nil-invariance verdict node for (p, k), as the CLI renders it."""
    power = is_power_of(p, k)
    witness = k if k % p == 0 else p
    return {
        "p": p,
        "k": k,
        "integral_iso": False,
        "p_inverted_iso": power,
        "witness_weight": witness,
        "witness_exponent": factor_exponent(p, k, witness),
        "exponent_sup": valuation(p, k) if power else "infinity",
    }


def group_name(rank, torsion):
    parts = ["Z" if rank == 1 else f"Z^{rank}"] if rank else []
    parts += [f"Z/{d}" for d in torsion]
    return " + ".join(parts) if parts else "0"


def closed_form(k, i):
    """Reduced homology of the weight-i component, {degree: (rank, torsion)}.

    With d = (i - 1) // k: a Z in degrees 2d and 2d + 1 when k does not
    divide i, a single Z/k in degree 2d + 1 when it does.  Every other
    degree is zero.
    """
    d = (i - 1) // k
    if i % k:
        return {2 * d: (1, ()), 2 * d + 1: (1, ())}
    return {2 * d + 1: (0, (k,))}


@lru_cache(maxsize=None)
def _compositions(total, parts, hi):
    """Number of tuples of `parts` entries in [1, hi] summing to `total`."""
    if parts == 0:
        return 1 if total == 0 else 0
    return sum(_compositions(total - a, parts - 1, hi) for a in range(1, min(hi, total) + 1))


def cell_counts(k, i):
    """Nondegenerate simplices of weight i per degree 0..i (untrimmed).

    An l-simplex is (a_0, ..., a_l) with a_0 in [0, k-1], the other
    entries in [1, k-1] and sum i.
    """
    top = i if i >= 1 else 0
    return [
        sum(_compositions(i - first, l, k - 1) for first in range(min(k - 1, i) + 1))
        for l in range(top + 1)
    ]


def trimmed(counts):
    counts = list(counts)
    while counts and not counts[-1]:
        counts.pop()
    return counts
