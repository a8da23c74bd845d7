"""A/B digest of semdiff's answers: ``python tests/ab_digest.py SEED PAIRS``.

Run it with ``semdiff`` importable (``PYTHONPATH=src``) on two checkouts, or
under two ``PYTHONHASHSEED`` values, and compare the printed lines: a change
that keeps every answer byte for byte prints the same digests. It prints one
line per engine, ``<engine> <sha256> <answers>``:

- ``cd``: ``PAIRS`` seeded ``random_cd_pair`` draws at bounds 0-3; ``cddiff``
  both ways at caps 1, 2, 7, 20 and 10**6, ``compare_cd`` both ways, and
  ``is_instance`` of every witness against both diagrams;
- ``ad``: ``PAIRS`` seeded ``random_ad_pair`` draws, the ordered pairs of the
  fixture diagrams and of three ``unsafe_when_p`` diagrams; ``addiff`` both
  ways at caps 1 and 3, uncapped up to 6 actions and at cap 3 up to 2,
  ``compare_ad`` both ways, ``accepts`` of every witness on both sides, and
  the text of every ``UnsafeMarkingError``.

Every call runs once on fresh parses and again on diagrams shared by all the
calls of their pair or group, so tables kept across calls are covered too.
Only the standard library, public ``semdiff`` names and ``generators`` are
used; pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import hashlib
import random
from itertools import combinations_with_replacement
from pathlib import Path

import generators
from semdiff import (
    UnsafeMarkingError,
    accepts,
    addiff,
    cddiff,
    compare_ad,
    compare_cd,
    is_instance,
    parse_ad,
    parse_cd,
    print_ad,
    print_cd,
    print_om,
    print_trace,
)

FIXTURES = Path(__file__).resolve().parent / "fixtures"
CD_CAPS = (1, 2, 7, 20, 10**6)
AD_LIMITS = ((1, None), (3, None), (10**6, 6), (3, 2))  # (max_witnesses, max_len)


def cd_answers(x, y, k) -> list[str]:
    """Every class-diagram answer for the diagram pair ``x``, ``y`` at bound ``k``."""
    out = []
    for a, b in ((x, y), (y, x)):
        for cap in CD_CAPS:
            result = cddiff(a, b, k, cap)
            out.append(f"cddiff k={k} cap={cap} exhausted={result.exhausted}")
            for om in result.witnesses:
                out.append(print_om(om))
                for cd in (a, b):
                    ok, found = is_instance(om, cd)
                    out.append(f"{ok} {[str(v) for v in found]}")
        out.append(repr(compare_cd(a, b, k)))
    return out


def ad_answers(x, y) -> list[str]:
    """Every activity-diagram answer for the diagram pair ``x``, ``y``."""
    out = []
    for a, b in ((x, y), (y, x)):
        for cap, max_len in AD_LIMITS:
            out.append(f"addiff cap={cap} max_len={max_len}")
            try:
                result = addiff(a, b, cap, max_len)
            except UnsafeMarkingError as e:
                out.append(f"unsafe: {e}")
                continue
            out.append(f"exhausted={result.exhausted}")
            for trace in result.witnesses:
                out.append(f"{print_trace(trace)}{accepts(a, trace)} {accepts(b, trace)}")
        try:
            out.append(repr(compare_ad(a, b)))
        except UnsafeMarkingError as e:
            out.append(f"unsafe: {e}")
    return out


def digest(groups, parse, answers) -> tuple[str, int]:
    """The sha256 and count of ``answers`` over groups of (diagram texts,
    index pairs, further arguments): each pair on fresh parses, then on the
    group's texts parsed once."""
    h, n = hashlib.sha256(), 0
    for texts, pairs, args in groups:
        shared = [parse(t) for t in texts]
        for models in ([(parse(texts[i]), parse(texts[j])) for i, j in pairs],
                       [(shared[i], shared[j]) for i, j in pairs]):
            for x, y in models:
                for line in answers(x, y, *args):
                    h.update(line.encode() + b"\0")
                    n += 1
    return h.hexdigest(), n


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("seed", type=int)
    parser.add_argument("pairs", type=int)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    cd_groups = []
    for i in range(args.pairs):
        k = i % 4
        pair = generators.random_cd_pair(rng, k, twins=i % 2 == 1)
        cd_groups.append(([print_cd(cd) for cd in pair], [(0, 1)], (k,)))
    print("cd", *digest(cd_groups, parse_cd, cd_answers))

    rng = random.Random(args.seed)
    ad_groups = [([print_ad(ad) for ad in generators.random_ad_pair(rng, max_len=8)], [(0, 1)], ())
                 for _ in range(args.pairs)]
    # Each unordered pair, a diagram with itself included, answers both ways.
    fixtures = [(FIXTURES / f"adv{i}.ad").read_text() for i in (1, 2, 3, 4)]
    unsafe = [print_ad(generators.unsafe_when_p(name, idle)) for name, idle in
              (("X", ["x1", "z"]), ("Y", ["z"]), ("Z", ["x1"]))]
    for texts in (fixtures, unsafe):
        ad_groups.append((texts, list(combinations_with_replacement(range(len(texts)), 2)), ()))
    print("ad", *digest(ad_groups, parse_ad, ad_answers))


if __name__ == "__main__":
    main()
