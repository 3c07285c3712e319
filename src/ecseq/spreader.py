"""Bit-spreading generator.

Output positions are partitioned into arithmetic progressions whose common
differences are powers of two.  Level m owns count(m) progressions with
difference 2**m, each carrying one source bit repeated along the progression.
Because every progression's first term is smaller than its difference, any
output window of length 2**m contains each level-m source bit exactly once
and every earlier source bit at least once, so a window plus its offset
modulo 2**m determines a full prefix of the source bits.

Levels are built greedily: starting from the 2**m0 progressions of
difference 2**m0, each level takes the count(m) available progressions with
the smallest first terms, then splits every remaining progression into its
even- and odd-index halves for the next level.  The per-level counts are
ceil(a_m * 2**m + m**2) for a chosen weight series a_m; the start level m0
is certified so the total density never exceeds 1 and the pool can never run
dry.
"""

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate
from operator import sub
from typing import Callable, NamedTuple

from .core import CertificateError, RandomSource, frac_to_str, json_exact, read_back


class CoverageError(RuntimeError):
    """A queried position is not covered by any level within the cap."""


class InconsistentWindowError(ValueError):
    """Duplicate reads of one source bit disagree inside a window."""


class WeightSeries(NamedTuple):
    """A computable series of non-negative rational weights with a certified
    upper bound on every tail sum."""

    name: str
    term: Callable[[int], Fraction]
    tail_bound: Callable[[int], Fraction]


def inverse_triangular() -> WeightSeries:
    """a_m = 1/(m(m+1)) for m >= 1; exact tail sum from M is 1/M."""
    return WeightSeries(
        "inverse-triangular",
        lambda m: Fraction(1, m * (m + 1)) if m >= 1 else Fraction(0),
        lambda start: Fraction(1, max(start, 1)),
    )


def geometric(ratio) -> WeightSeries:
    ratio = Fraction(ratio)
    if not 0 < ratio < 1:
        raise ValueError("geometric ratio must be in (0, 1)")
    return WeightSeries(
        f"geometric:{frac_to_str(ratio)}",
        lambda m: ratio ** m,
        lambda start: ratio ** start / (1 - ratio),
    )


def zero_series() -> WeightSeries:
    return WeightSeries("zero", lambda m: Fraction(0), lambda start: Fraction(0))


def weight_preset(text: str) -> WeightSeries:
    if text == "inverse-triangular":
        return inverse_triangular()
    if text == "zero":
        return zero_series()
    if isinstance(text, str) and text.startswith("geometric:"):
        return geometric(Fraction(text.split(":", 1)[1]))
    raise ValueError(f"unknown weight preset: {text!r}")


def boosted_count(weights: WeightSeries, level: int) -> int:
    """Progressions reserved at a level: ceil(a * 2**level + level**2)."""
    return math.ceil(weights.term(level) * (1 << level) + level * level)


def boost_tail(start: int) -> Fraction:
    """Exact sum over m >= start of (m**2 + 1) / 2**m.

    Closed forms: sum m**2/2**m = (2M**2 + 4M + 6)/2**M and
    sum 1/2**m = 2**(1 - M), both from M upward.
    """
    m = start
    return Fraction(2 * m * m + 4 * m + 6, 1 << m) + Fraction(2, 1 << m)


def start_level_certificate(weights: WeightSeries, start: int) -> Fraction:
    """Certified density bound if allocation starts at the given level.

    Covers the weight tail, the quadratic boost, and one unit of ceiling
    slack per level.  A start level is admissible when this is <= 1.
    """
    return weights.tail_bound(start) + boost_tail(start)


def choose_start_level(weights: WeightSeries) -> int:
    level = 0
    while start_level_certificate(weights, level) > 1:
        level += 1
    return level


class _Intervals:
    """Sorted disjoint half-open integer intervals with rank queries, kept as
    lists of lows, highs and running width totals (cum) that are built and
    split with list slices and maps, not one interval at a time."""

    __slots__ = ("los", "his", "cum")

    def __init__(self, pairs=(), los=None, his=None):
        if los is None:  # (lo, hi) pairs, empty ones dropped; lists hold none
            kept = [(lo, hi) for lo, hi in pairs if hi > lo]
            los, his = [lo for lo, _ in kept], [hi for _, hi in kept]
        self.los, self.his = los, his
        self.cum = [0, *accumulate(map(sub, his, los))]

    @property
    def total(self) -> int:
        return self.cum[-1]

    def first(self):
        return self.los[0] if self.los else None

    def pairs(self):
        return list(zip(self.los, self.his))

    def take_prefix(self, k: int):
        """Split off the k smallest elements (all of them if k >= total)."""
        if k >= self.total:
            return self, _Intervals()
        los, his = self.los, self.his
        j = bisect_right(self.cum, k) - 1
        cut = los[j] + (k - self.cum[j])  # los[j] <= cut < his[j]
        split = cut > los[j]  # interval j has elements on both sides of the cut
        return (_Intervals(los=los[:j + split], his=his[:j] + [cut] * split),
                _Intervals(los=[cut] + los[j + 1:], his=his[j:]))


class _Level:
    __slots__ = ("level", "count", "assigned", "source_base")

    def __init__(self, level: int, count: int, assigned: _Intervals, source_base: int):
        self.level, self.count, self.assigned, self.source_base = (
            level, count, assigned, source_base)


def _fill(blank, length: int, runs, source):
    """A buffer of type(blank) and the given length in which each run (first,
    step, index, width) of Allocation._runs(length) carries
    source[index:index + width], spread by period doubling: a lower level's
    step divides every later one, so the buffer is doubled up to each step and
    only a run's first repetition is written.  AssertionError if a position
    still holds blank[0] afterwards."""
    out = blank * min(length, 1)
    for first, step, index, width in [*runs, (0, length, 0, 0)]:  # last: double to length
        while len(out) < min(step, length):
            out += out[:min(step, length) - len(out)]
        out[first:first + width] = source[index:index + width]
    if blank[0] in out:
        raise AssertionError("progression partition left a hole")
    return out


class Allocation:
    """Greedy progression allocation, built level by level on demand.

    Only first terms below a movable cap are stored explicitly; pool sizes
    and source-bit numbering are tracked exactly as integers, so queries
    below the cap are exact even when a level's assignment extends past it.
    """

    def __init__(self, start_level: int, max_level: int, count_for: Callable[[int], int]):
        if start_level < 0 or max_level < start_level:
            raise ValueError("need 0 <= start_level <= max_level")
        self.start_level = start_level
        self.max_level = max_level
        self._count_for = count_for
        self._cap = 1 << max(start_level, 13)
        self._reset()

    def _reset(self):
        self._levels = []
        size = 1 << self.start_level
        self._pool = _Intervals([(0, min(size, self._cap))])
        self._pool_total = size
        self._source_total = 0
        self._least_uncovered = 0  # None once every natural number is covered

    def _build_next(self) -> bool:
        m = self.start_level + len(self._levels)
        if m > self.max_level:
            return False
        count = self._count_for(m)
        if count < 0:
            raise ValueError(f"negative progression count at level {m}")
        if count > self._pool_total:
            raise CertificateError(
                f"level {m} needs {count} progressions but only {self._pool_total} remain"
            )
        taken, rest = self._pool.take_prefix(count)
        record = _Level(m, count, taken, self._source_total)
        self._levels.append(record)
        self._source_total += count
        remaining = self._pool_total - count
        if remaining == 0:
            self._least_uncovered = None
            self._pool = _Intervals(())
            self._pool_total = 0
        else:
            first = rest.first()
            self._least_uncovered = first if first is not None else self._cap
            # rest and its odd halves, rest shifted by the step: all below the
            # cap, a power of two, while the step is below it, and none after
            step = 1 << m
            self._pool = rest if step >= self._cap else _Intervals(
                los=rest.los + list(map(step.__add__, rest.los)),
                his=rest.his + list(map(step.__add__, rest.his)))
            self._pool_total = 2 * remaining
        return True

    def _set_cap(self, cap: int):
        """Move the cap, a power of two of at least 2**start_level, and rebuild
        the levels built so far below it."""
        built = len(self._levels)
        self._cap = cap
        self._reset()
        for _ in range(built):
            self._build_next()

    def ensure_cap(self, need: int):
        """Grow the cap to the least power of two, and at least 2**start_level,
        that holds need positions."""
        if need > self._cap:
            self._set_cap(1 << max((need - 1).bit_length(), self.start_level))

    def ensure_level(self, level: int):
        if level > self.max_level:
            raise ValueError(f"level {level} beyond max_level {self.max_level}")
        while self.start_level + len(self._levels) <= level:
            if not self._build_next():
                break

    def ensure_horizon(self, horizon: int):
        """Build levels until every position below the horizon is covered,
        or the level budget runs out."""
        self.ensure_cap(horizon)
        while self._least_uncovered is not None and self._least_uncovered < horizon:
            if not self._build_next():
                break

    def least_uncovered(self):
        return self._least_uncovered

    def levels_built(self) -> int:
        return len(self._levels)

    def source_count_through(self, level: int) -> int:
        """Number of source bits placed at levels up to and including `level`."""
        self.ensure_level(level)
        idx = level - self.start_level
        if not 0 <= idx < len(self._levels):
            raise ValueError(f"level {level} outside [{self.start_level}, {self.max_level}]")
        record = self._levels[idx]
        return record.source_base + record.count

    def budget_used(self) -> Fraction:
        total = Fraction(0)
        for lv in self._levels:
            total += Fraction(lv.count, 1 << lv.level)
        return total

    def _runs(self, end: int):
        """Yield (first, step, index, width) for every run of built first terms
        below end: positions first + i + k*step carry source index index + i,
        for i < width and k >= 0.  A level's runs are its assigned intervals
        whose first term lies below min(end, step), the last one clipped there,
        so every first + width is at most min(end, step): a run's first
        repetition lies whole inside [0, end) and no two repetitions overlap.
        Levels come in order and, within a level, first terms ascend, so
        source indices ascend."""
        for lv in self._levels:
            step = 1 << lv.level
            top = min(end, step)
            los, his, cum = lv.assigned.los, lv.assigned.his, lv.assigned.cum
            last = bisect_left(los, top) - 1
            for i in range(last + 1):
                hi = his[i] if i < last else min(his[i], top)
                yield los[i], step, lv.source_base + cum[i], hi - los[i]

    def _covered_runs(self, end: int) -> list:
        """The runs of [0, end), once the levels that cover it are built;
        CoverageError when the level budget cannot cover it."""
        if end < 0:
            raise ValueError("bad range")
        self.ensure_horizon(end)
        if self._least_uncovered is not None and self._least_uncovered < end:
            raise CoverageError(
                f"position {self._least_uncovered} is not covered by levels up to "
                f"{self.max_level}; raise max_level"
            )
        return list(self._runs(end))

    def source_map(self, start: int, length: int) -> list:
        """Source indices for every position in [start, start + length), read
        off the spread of the indices themselves over [0, start + length)."""
        if start < 0 or length < 0:
            raise ValueError("bad range")
        end = start + length
        return _fill([-1], end, self._covered_runs(end), range(self._source_total))[start:]

    def export(self) -> dict:
        return {
            "start_level": self.start_level,
            "max_level": self.max_level,
            "cap": self._cap,
            "least_uncovered": self._least_uncovered,
            "source_total": self._source_total,
            "levels": [
                {
                    "level": lv.level,
                    "count": lv.count,
                    "source_base": lv.source_base,
                    "assigned": [list(pair) for pair in lv.assigned.pairs()],
                }
                for lv in self._levels
            ],
        }

    @classmethod
    def from_export(cls, doc: dict, horizon: int) -> "Allocation":
        """Rebuild by replaying the exported counts at the exported cap, the
        i-th at level start_level + i: ValueError unless export() then writes
        doc again (core.read_back).

        A cap that is not a power of two of at least 2**max(13, start_level),
        which no spread writes, is refused before any level is built.  So is
        one above four times the least power of two that holds the horizon the
        caller reads (the widest cap any spread of it has written), because
        the replay's cost grows with the cap."""
        def parse(doc):
            start, top, cap = (json_exact(doc[key], int)
                               for key in ("start_level", "max_level", "cap"))
            least = max(13, start)
            if cap & (cap - 1) or cap.bit_length() <= least:  # cap < 2**least, unbuilt
                raise ValueError(f"allocation cap {cap} is not a power of two of at least "
                                 f"2**{least}")
            widest = max(least, (horizon - 1).bit_length() + 2)
            if (cap - 1).bit_length() > widest:  # cap > 2**widest, with no power built
                raise ValueError(f"allocation cap {cap} is above 2**{widest}, the widest cap "
                                 f"a spread of {horizon} bits writes")
            counts = {start + i: json_exact(entry["count"], int)
                      for i, entry in enumerate(doc["levels"])}
            alloc = cls(start, top, lambda m: counts.get(m, 0))
            alloc._set_cap(cap)
            alloc.ensure_level(start + len(counts) - 1)
            return alloc
        return read_back(doc, parse, cls.export, "allocation export")


def plan_allocation(weights: WeightSeries, start_level: int = None,
                    max_level: int = 64) -> Allocation:
    """Build an allocation from a weight series, starting at the certified
    start level unless another admissible one is given."""
    m0 = choose_start_level(weights) if start_level is None else start_level
    cert = start_level_certificate(weights, m0)
    if cert > 1:
        raise CertificateError(
            f"start level {m0} rejected: certified density {frac_to_str(cert)} exceeds 1"
        )
    return Allocation(m0, max_level, lambda m: boosted_count(weights, m))


def spread_random(alloc: Allocation, rs: RandomSource, length: int):
    """Draw exactly the source bits [0, length) needs, then spread them by
    period doubling (_fill): position i carries source bit
    source_map(i, 1)[0]."""
    runs = alloc._covered_runs(length)
    source_bits = rs.bits(max((index + width for _, _, index, width in runs), default=0))
    # a source byte is b"0" or b"1", so a position no run fills stays 0
    return _fill(bytearray(1), length, runs, source_bits.encode()).decode(), source_bits


def _differing_bits(text: str, runs):
    """Yield (source index, first position, step, copies, first differing
    position) for every source bit of the runs whose copies in text do not
    all read alike, copies being text[first::step]; run by run, so source
    indices ascend.  Each run's repetitions are compared with its first one,
    and only a run with a differing repetition has its bits read, each as one
    stride slice.  Repetitions end with the text, so a run's last one may be
    clipped."""
    for offset, step, index, width in runs:
        first = text[offset:offset + width]
        for a in range(offset + step, len(text), step):
            if not first.startswith(text[a:a + width]):
                break
        else:
            continue
        for q in range(offset, offset + width):
            copies = text[q::step]
            rest = copies.lstrip(copies[0])
            if rest:
                yield index + q - offset, q, step, copies, q + step * (len(copies) - len(rest))


def disagreements(alloc: Allocation, bits: str, length: int) -> list:
    """The minority copies in [0, length) of each source bit whose copies
    differ, as (position, source_bit, disagrees_with_position), sorted by
    position.  These are the copies that differ from the bit's first copy,
    each against that first copy; but when more than half of the copies
    differ, they are the copies that agree with the first, the first one
    included, each against the first copy that differs."""
    if length > len(bits):
        raise ValueError(f"length {length} exceeds the {len(bits)} bits given")
    found = []
    for j, q, step, copies, differs in _differing_bits(bits[:length],
                                                        alloc._covered_runs(length)):
        c = copies[0]
        if 2 * copies.count(c) < len(copies):
            found += [(q + step * k, j, differs) for k, b in enumerate(copies) if b == c]
        else:
            found += [(q + step * k, j, q) for k, b in enumerate(copies) if b != c]
    found.sort()
    return found


def coverage_faults(alloc: Allocation, length: int, top_level: int) -> list:
    """Check, without visiting the windows one by one, that every window
    [k, k + 2**m) inside [0, length), for each level m up to top_level,
    carries every source index placed at the levels up to m, and each one of
    level m exactly once.  That holds when:

    - each level's source indices start where the previous level's end;
    - a level m <= top_level has exactly count(m) first terms, all in
      [0, 2**m);
    - the progressions of all built levels cover every position of
      [0, length) exactly once.

    Then such a window holds each progression of a level m' <= m exactly
    2**(m - m') times, wherever it starts.  Returns a fault for each level
    and fact that fails, so [] proves coverage."""
    alloc.ensure_level(top_level)
    faults, base = [], 0
    for lv in alloc._levels:
        if lv.source_base != base:
            faults.append({"m": lv.level, "source_base": lv.source_base, "expected": base})
        base = lv.source_base + lv.count
        if lv.level > top_level:
            continue
        step = 1 << lv.level
        outside = [[lo, hi] for lo, hi in lv.assigned.pairs() if lo < 0 or hi > step]
        if outside:
            faults.append({"m": lv.level, "first_terms_outside_step": outside[:8]})
        if lv.assigned.total != lv.count:
            faults.append({"m": lv.level, "count": lv.count,
                           "first_terms": lv.assigned.total})
    # one mark per covered position, with room for a clipped last repetition to
    # spill past the end: every position is covered exactly once when all are
    # marked and the covered widths sum to the length
    runs = alloc._covered_runs(length)
    marks = bytearray(length + max((width for *_, width in runs), default=0))
    widths = 0
    for offset, step, _, width in runs:
        row = b"\1" * width
        starts = range(offset, length, step)
        for a in starts:
            marks[a:a + width] = row
        widths += len(starts) * width - max(starts[-1] + width - length, 0)
    uncovered = marks.count(0, 0, length)
    if uncovered or widths != length:
        faults.append({"positions": length, "uncovered": uncovered,
                       "first_uncovered": marks.find(0, 0, length) if uncovered else None,
                       "covered_again": widths - (length - uncovered)})
    return faults


def recover_prefix(alloc: Allocation, win: str, offset_mod: int, level: int) -> str:
    """Reconstruct the source prefix carried by a window of length 2**level.

    offset_mod is the window's start position modulo 2**level.  Every source
    bit placed at levels up to `level` occurs in the window; bits from levels
    below occur several times and all copies must agree, otherwise the window
    was not produced by this allocation and InconsistentWindowError is raised,
    naming the smallest source index that disagrees and its first copy that
    differs from its first read.
    """
    if level < alloc.start_level:
        raise ValueError(f"level {level} below start level {alloc.start_level}")
    size = 1 << level
    if len(win) != size:
        raise ValueError(f"window length {len(win)} is not 2**{level}")
    if not 0 <= offset_mod < size:
        raise ValueError("offset_mod out of range")
    alloc.ensure_cap(size)
    alloc.ensure_level(level)
    # turned[j] reads a position that is j modulo every step up to the window
    # length, which each one divides: so the window's runs are those of [0, size)
    turned = win[size - offset_mod:] + win[:size - offset_mod]
    runs = [run for run in alloc._runs(size) if run[1] <= size]
    for index, q, step, _, _ in _differing_bits(turned, runs):
        first = (q - offset_mod) % step  # q's first copy, in window order
        copies = win[first::step]
        position = first + step * (len(copies) - len(copies.lstrip(copies[0])))
        raise InconsistentWindowError(f"source bit {index} reads differently at window "
                                      f"offsets {first} and {position}")
    return "".join(turned[first:first + width] for first, _, _, width in runs)
