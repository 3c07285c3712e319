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
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .core import CertificateError, RandomSource, frac_to_str, json_exact


class CoverageError(RuntimeError):
    """A queried position is not covered by any level within the cap."""


class InconsistentWindowError(ValueError):
    """Duplicate reads of one source bit disagree inside a window."""


@dataclass(frozen=True)
class WeightSeries:
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
    """Sorted disjoint half-open integer intervals with rank queries."""

    __slots__ = ("los", "his", "cum")

    def __init__(self, pairs=()):
        los, his = [], []
        for lo, hi in pairs:
            if hi > lo:
                los.append(lo)
                his.append(hi)
        cum = [0]
        for lo, hi in zip(los, his):
            cum.append(cum[-1] + (hi - lo))
        self.los, self.his, self.cum = los, his, cum

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
            return self, _Intervals(())
        j = bisect_right(self.cum, k) - 1
        cut = self.los[j] + (k - self.cum[j])
        taken = list(zip(self.los[:j], self.his[:j]))
        rest = []
        if cut > self.los[j]:
            taken.append((self.los[j], cut))
        if cut < self.his[j]:
            rest.append((cut, self.his[j]))
        rest.extend(zip(self.los[j + 1:], self.his[j + 1:]))
        return _Intervals(taken), _Intervals(rest)


@dataclass
class _Level:
    level: int
    count: int
    assigned: _Intervals
    source_base: int


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
            step = 1 << m
            pairs = rest.pairs()
            shifted = [(lo + step, min(hi + step, self._cap))
                       for lo, hi in pairs if lo + step < self._cap]
            self._pool = _Intervals(pairs + shifted)
            self._pool_total = 2 * remaining
        return True

    def _set_cap(self, cap: int):
        """Move the cap and rebuild the levels built so far below it."""
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

    def level_records(self):
        """Read-only view: (level, count, source_base, assigned first-term pairs)."""
        return [(lv.level, lv.count, lv.source_base, lv.assigned.pairs())
                for lv in self._levels]

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

    def _runs(self, start: int, length: int, top_level: int = None):
        """Yield (offset, step, index, width) for every run of built first terms
        at levels up to top_level that meets [start, start + length): positions
        start + offset + i + k*step carry source index index + i, for i < width
        and k >= 0.  A run is a stretch of consecutive first terms inside one
        assigned interval and one residue span.  Levels come in order and,
        within a level, first terms ascend, so source indices ascend.

        A level's first terms meeting the range are the residues of the range
        modulo the step: at most two spans, the second one wrapping round to 0.
        Every offset + width is at most min(length, step), so a run's first
        repetition lies whole inside the range and no two repetitions overlap."""
        for lv in self._levels:
            if top_level is not None and lv.level > top_level:
                break
            step = 1 << lv.level
            lo = start % step
            hi = lo + min(length, step)
            spans = [(0, hi - step, step - lo)] if hi > step else []
            spans.append((lo, min(hi, step), -lo))
            los, his, cum = lv.assigned.los, lv.assigned.his, lv.assigned.cum
            for a, b, shift in spans:
                for i in range(max(bisect_right(los, a) - 1, 0), len(los)):
                    if los[i] >= b:
                        break
                    first, stop = max(los[i], a), min(his[i], b)
                    if first < stop:
                        yield (first + shift, step,
                               lv.source_base + cum[i] + first - los[i], stop - first)

    def _covered_runs(self, start: int, length: int):
        """The runs of [start, start + length), once the levels that cover the
        range are built; CoverageError when the level budget cannot cover it."""
        if start < 0 or length < 0:
            raise ValueError("bad range")
        end = start + length
        self.ensure_horizon(end)
        if self._least_uncovered is not None and self._least_uncovered < end:
            raise CoverageError(
                f"position {self._least_uncovered} is not covered by levels up to "
                f"{self.max_level}; raise max_level"
            )
        return self._runs(start, length)

    def source_map(self, start: int, length: int) -> list:
        """Source indices for every position in [start, start + length)."""
        runs = self._covered_runs(start, length)
        out = [-1] * length
        for offset, step, index, width in runs:
            for a in range(offset, length, step):
                b = min(a + width, length)
                out[a:b] = range(index, index + b - a)
        if -1 in out:
            raise AssertionError("progression partition left a hole")
        return out

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
    def from_export(cls, doc: dict) -> "Allocation":
        """Rebuild by replaying the recorded counts, then verify the recorded
        levels match the replay exactly; ValueError on any other shape, and
        on any integer that JSON does not give as an integer."""
        def ints(*values) -> tuple:
            return tuple(json_exact(v, int) for v in values)

        try:
            records = [(*ints(entry["level"], entry["count"], entry["source_base"]),
                        [ints(*json_exact(pair, list))
                         for pair in json_exact(entry["assigned"], list)])
                       for entry in doc["levels"]]
            counts = {level: count for level, count, _, _ in records}
            alloc = cls(*ints(doc["start_level"], doc["max_level"]), lambda m: counts.get(m, 0))
            alloc._set_cap(*ints(doc["cap"]))
            if counts:  # an export of an empty spread lists no levels
                alloc.ensure_level(max(counts))
            if records != alloc.level_records():
                raise CertificateError("allocation export inconsistent: its levels are not "
                                       "the replay's")
            least = doc.get("least_uncovered")  # null once every position is covered
            if alloc._least_uncovered != (least if least is None else json_exact(least, int)):
                raise CertificateError("allocation export inconsistent: coverage frontier")
            return alloc
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(
                f"malformed allocation export ({type(exc).__name__}: {exc})") from exc


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
    """Draw exactly the source bits [0, length) needs, then spread them:
    position i carries source bit source_map(i, 1)[0]."""
    runs = list(alloc._covered_runs(0, length))
    source_bits = rs.bits(max((index + width for _, _, index, width in runs), default=0))
    source = source_bits.encode()
    out = bytearray(length)  # a position no run fills stays 0
    for offset, step, index, width in runs:
        for a in range(offset, length, step):
            b = min(a + width, length)
            out[a:b] = source[index:index + b - a]
    if 0 in out:
        raise AssertionError("progression partition left a hole")
    return out.decode(), source_bits


def _differing_copies(text: str, runs):
    """Yield (source index, position, first position) for every position of
    text whose bit differs from the run's first copy of the same source index;
    run by run, then repetition by repetition.  Repetitions end with the text,
    so a run's last one may be clipped."""
    for offset, step, index, width in runs:
        first = text[offset:offset + width]
        for a in range(offset + step, len(text), step):
            chunk = text[a:a + width]
            if not first.startswith(chunk):
                yield from ((index + i, a + i, offset + i)
                            for i, b in enumerate(chunk) if b != first[i])


def disagreements(alloc: Allocation, bits: str, length: int) -> list:
    """The minority copies in [0, length) of each source bit whose copies
    differ, as {"position", "source_bit", "disagrees_with_position"}, sorted
    by position.  These are the copies that differ from the bit's first copy,
    each against that first copy; but when more than half of the copies
    differ, they are the copies that agree with the first, the first one
    included, each against the first copy that differs."""
    if length > len(bits):
        raise ValueError(f"length {length} exceeds the {len(bits)} bits given")
    runs = list(alloc._covered_runs(0, length))
    differing = {}
    for j, p, q in _differing_copies(bits[:length], runs):
        differing.setdefault(j, (q, []))[1].append(p)
    found = []
    for offset, step, index, width in runs if differing else ():
        for j in range(index, index + width):
            if j not in differing:
                continue
            q, positions = differing[j]
            copies = range(q, length, step)
            if 2 * len(positions) > len(copies):
                found += [(p, j, positions[0]) for p in sorted(set(copies) - set(positions))]
            else:
                found += [(p, j, q) for p in positions]
    return [{"position": p, "source_bit": j, "disagrees_with_position": q}
            for p, j, q in sorted(found)]


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
    runs = list(alloc._covered_runs(0, length))
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
    out = []
    # every step divides the window length, so window offsets are offsets from
    # offset_mod and every repetition lies whole inside the window
    for run in alloc._runs(offset_mod, size, level):
        differing = min(_differing_copies(win, [run]), default=None)
        if differing is not None:
            index, position, first = differing
            raise InconsistentWindowError(
                f"source bit {index} reads differently at window "
                f"offsets {first} and {position}"
            )
        offset, _, _, width = run
        out.append(win[offset:offset + width])
    return "".join(out)
