"""Best Offset Prefetcher (BOP) and its bandwidth-aware variant eBOP.

BOP [62] (Section 2.2) learns a small set of *global* deltas that best
explain recent accesses.  Structures per Table 3: a 256-entry Recent
Requests (RR) table and a score table over the candidate-offset list, with
MaxRound=100, MaxScore=31, BadScore=1.

Learning proceeds in rounds: each trained access tests one candidate offset
``O`` — if ``line - O`` is found in the RR table, ``O`` scores a point.
A round ends when every offset has been tested; the learning phase ends
when an offset reaches MaxScore or MaxRound rounds elapse, at which point
the top-``degree`` scoring offsets become the active prefetch offsets (no
prefetching if the best score is not above BadScore).

Timeliness is built into the scoring, exactly as in Michaud's design:
addresses enter the RR table only at (modelled) *fill-completion* time,
one memory round-trip after the access.  An offset therefore scores only
if prefetching ``X`` at the time ``X - O`` was accessed would have
completed before ``X``'s own access — small offsets with no lead time
never win, which is what keeps BOP's prefetches timely.

eBOP (Section 2.5) makes the degree bandwidth-aware: 1 by default, 2 when
more than 25% of the bandwidth is headroom, 4 when more than 50% is — the
paper's strawman that scales best among prior prefetchers (Figure 6) but
still leaves coverage on the table.
"""

from collections import deque
from dataclasses import dataclass, field

from repro.constants import LINE_SHIFT, LINES_PER_PAGE
from repro.prefetchers.base import PrefetchCandidate, Prefetcher


def default_offset_list():
    """Candidate global deltas: the original BOP's factorized offset list.

    Michaud's design scores offsets whose prime factors are all <= 5 (they
    compose well under recursion); within a 4KB page that gives 26 positive
    values, mirrored negative (Section 2.2 notes 126 deltas are *possible*;
    the original tracks this curated subset to keep rounds short).
    """
    positives = [
        o
        for o in range(1, LINES_PER_PAGE)
        if _largest_prime_factor(o) <= 5
    ]
    return tuple(positives + [-o for o in positives])


def _largest_prime_factor(value):
    factor = 2
    largest = 1
    while factor * factor <= value:
        while value % factor == 0:
            largest = factor
            value //= factor
        factor += 1
    return max(largest, value) if value > 1 else largest


@dataclass(frozen=True)
class BopConfig:
    """BOP parameters (Table 3)."""

    rr_entries: int = 256
    max_round: int = 100
    max_score: int = 31
    bad_score: int = 1
    degree: int = 2
    offsets: tuple = field(default_factory=default_offset_list)
    #: Modelled memory round-trip in core cycles: accesses enter the RR
    #: table this long after they occur (fill-completion time), which is
    #: what makes the offset scoring timeliness-aware.
    fill_delay_cycles: int = 300


class BOP(Prefetcher):
    """Best Offset Prefetcher (Michaud, HPCA'16), degree-generalized."""

    name = "bop"

    def __init__(self, config: BopConfig = BopConfig()):
        rr = config.rr_entries
        if rr < 1 or rr & (rr - 1):
            raise ValueError("RR entry count must be a positive power of two")
        self.config = config
        self._rr = [-1] * config.rr_entries
        #: Accesses awaiting their modelled fill completion before they
        #: become visible in the RR table: (ready_cycle, line) FIFO.
        self._pending_fills = deque()
        self._scores = dict.fromkeys(config.offsets, 0)
        self._test_pos = 0
        self._round = 0
        #: Offsets currently used for prefetch generation (ranked); the
        #: original design starts with offset 1 until learning converges.
        self.active_offsets = [1]

    # -- RR table ---------------------------------------------------------------

    def _rr_index(self, line):
        return (line ^ (line >> 8)) & (self.config.rr_entries - 1)

    def _rr_insert(self, line):
        self._rr[self._rr_index(line)] = line

    def _rr_contains(self, line):
        return self._rr[self._rr_index(line)] == line

    # -- degree (overridden by eBOP) ---------------------------------------------

    def _degree(self, cycle):
        return self.config.degree

    # -- learning -----------------------------------------------------------------

    def _finish_phase(self):
        cfg = self.config
        ranked = sorted(self._scores.items(), key=lambda kv: -kv[1])
        self.active_offsets = [off for off, score in ranked[: max(cfg.degree, 4)] if score > cfg.bad_score]
        self._scores = dict.fromkeys(cfg.offsets, 0)
        self._test_pos = 0
        self._round = 0

    def _drain_pending(self, cycle):
        """Move accesses whose modelled fill has completed into the RR."""
        pending = self._pending_fills
        while pending and pending[0][0] <= cycle:
            self._rr_insert(pending.popleft()[1])

    def train(self, cycle, pc, addr, hit):
        cfg = self.config
        line = addr >> LINE_SHIFT
        offset_in_page = line & (LINES_PER_PAGE - 1)
        self._drain_pending(cycle)

        test_offset = cfg.offsets[self._test_pos]
        base_offset = offset_in_page - test_offset
        if 0 <= base_offset < LINES_PER_PAGE:
            # Inlined _rr_contains.
            probe = line - test_offset
            if self._rr[(probe ^ (probe >> 8)) & (cfg.rr_entries - 1)] == probe:
                score = self._scores[test_offset] + 1
                self._scores[test_offset] = score
                if score >= cfg.max_score:
                    self._finish_phase()
        self._test_pos += 1
        if self._test_pos >= len(cfg.offsets):
            self._test_pos = 0
            self._round += 1
            if self._round >= cfg.max_round:
                self._finish_phase()

        self._pending_fills.append((cycle + cfg.fill_delay_cycles, line))
        return self._generate(cycle, line, offset_in_page)

    def _generate(self, cycle, line, offset_in_page):
        active = self.active_offsets
        if not active:
            return ()
        degree = self._degree(cycle)
        out = []
        if degree > len(active):
            degree = len(active)
        for i in range(degree):
            off = active[i]
            target_offset = offset_in_page + off
            if 0 <= target_offset < LINES_PER_PAGE:
                out.append(PrefetchCandidate(line + off))
        return out

    # -- storage --------------------------------------------------------------------

    def storage_breakdown(self):
        cfg = self.config
        rr_bits = cfg.rr_entries * 36  # line-address tags (Table 3: ~1.3KB total)
        score_bits = len(cfg.offsets) * 5  # 5-bit scores (MaxScore=31)
        best_bits = 4 * 7  # up to four ranked 7-bit signed offsets
        return {"rr-table": rr_bits, "score-table": score_bits, "best-offsets": best_bits}

    def reset(self):
        self._rr = [-1] * self.config.rr_entries
        self._pending_fills.clear()
        self._scores = dict.fromkeys(self.config.offsets, 0)
        self._test_pos = 0
        self._round = 0
        self.active_offsets = []


class EBOP(BOP):
    """eBOP — BOP with bandwidth-aware dynamic degree (Section 2.5)."""

    name = "ebop"

    def __init__(self, bandwidth, config: BopConfig = None):
        super().__init__(config or BopConfig(degree=1))
        self.bandwidth = bandwidth

    def _degree(self, cycle):
        bucket = self.bandwidth.bucket(cycle)
        if bucket <= 1:  # utilization < 50% -> headroom > 50%
            return 4
        if bucket == 2:  # utilization 50-75% -> headroom 25-50%
            return 2
        return 1
