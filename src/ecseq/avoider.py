"""Constructive avoidance of per-length forbidden sets.

Start from uniform random bits and, while some forbidden string occurs,
redraw the leftmost (shortest first) violating occurrence, in the style of
Moser-Tardos constraint resampling.
"""

import re
from bisect import bisect_left
from operator import itemgetter
from typing import NamedTuple, Optional

from .core import RandomSource
from .forbidden import LevelFamily, Scanner


class AvoidanceInstance:
    __slots__ = ("family", "length", "max_resamples", "source")

    def __init__(self, family: LevelFamily, length: int, max_resamples: int,
                 source: RandomSource):
        if length <= 0 or max_resamples <= 0:
            raise ValueError("length and resample budget must be positive")
        if family.top is not None:
            raise ValueError("avoidance needs explicit level sets")
        for n in family.levels:
            if n > length:
                raise ValueError(f"forbidden length {n} exceeds target length {length}")
        self.family, self.length, self.max_resamples, self.source = (
            family, length, max_resamples, source)


class AvoidanceResult(NamedTuple):
    succeeded: bool
    string: Optional[str]
    resamples: int
    residual_violations: int


def scan_violations(x: str, family: LevelFamily) -> list:
    """All (position, length) pairs whose window is forbidden, sorted."""
    if family.top is not None:
        raise ValueError("scanning needs explicit level sets")
    return sorted(Scanner(family.levels).occurrences(x.encode()))


# Alternations nested this deep are written as one flat alternation of their
# subtree's suffixes: re.compile recurses once per nested group.
MAX_NESTING = 64


def first_violation_pattern(family: LevelFamily) -> re.Pattern:
    """A pattern whose leftmost match in the bytes of a bit string's text is
    the leftmost forbidden occurrence, shortest on ties.

    It is the trie of the levels' strings with each branch cut at the
    first node where a string ends, so at any start at most one string can
    match: the shortest one there.  It is read off the sorted texts, where a
    string sorts right before its extensions.  re tries the starts from left
    to right.  A family with no strings gets (?!), which matches nothing."""
    kept = []
    for text in sorted(format(v, f"0{n}b") for n, strings in family.levels.items()
                       for v in strings):
        if not kept or not text.startswith(kept[-1]):
            kept.append(text)
    if not kept:
        return re.compile(rb"(?!)")
    out, stack = [], [(0, len(kept), 0, 0)]  # (lo, hi, depth, nesting) or a literal piece
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        lo, hi, depth, nesting = item  # kept[lo:hi] share their first depth bits
        if hi - lo == 1:
            out.append(kept[lo][depth:])
        elif kept[lo][depth] == kept[hi - 1][depth]:
            out.append(kept[lo][depth])
            stack.append((lo, hi, depth + 1, nesting))
        elif nesting == MAX_NESTING:
            # no suffix is a prefix of another, so at most one matches at any start
            suffixes = sorted((text[depth:] for text in kept[lo:hi]), key=lambda s: (len(s), s))
            out.append("(?:" + "|".join(suffixes) + ")")
        else:
            mid = bisect_left(kept, "1", lo, hi, key=itemgetter(depth))
            out.append("(?:0")
            stack += [")", (mid, hi, depth + 1, nesting + 1), "|1",
                      (lo, mid, depth + 1, nesting + 1)]
    return re.compile("".join(out).encode())


def build_avoiding_string(inst: AvoidanceInstance) -> AvoidanceResult:
    """Resample until no forbidden string occurs or the budget runs out.

    Deterministic for a fixed instance: the initial draw, the resample order
    (leftmost violation, shortest on ties), and every redraw come from the
    instance's source in a fixed sequence.
    """
    pattern = first_violation_pattern(inst.family)
    # fresh violations can only overlap the redrawn block: they start at most
    # back positions before it
    back = max((n for n, strings in inst.family.levels.items() if strings), default=1) - 1
    budget = inst.max_resamples
    text = bytearray(inst.source.bits(inst.length), "ascii")
    draw = inst.source.draws()
    resamples = 0
    scan_from = 0
    while True:
        hit = pattern.search(text, scan_from)
        if hit is None:
            return AvoidanceResult(True, text.decode(), resamples, 0)
        if resamples >= budget:
            residual = sum(1 for _ in Scanner(inst.family.levels).occurrences(text))
            return AvoidanceResult(False, None, resamples, residual)
        k, end = hit.span()
        text[k:end] = draw(end - k).encode()
        resamples += 1
        scan_from = k - back if k > back else 0
