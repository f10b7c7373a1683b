"""Markov (temporal correlation) prefetcher.

Markov prefetching [49] (Joseph & Grunwald, ISCA'97) is the root of the
temporal-prefetcher family the paper surveys in Section 6 (STeMS, ISB,
Domino): a correlation table maps each miss address to the addresses that
historically followed it, and a hit prefetches the top successors.

The paper's point about this family — "it has multi-megabyte storage
requirements, which necessitates storing meta-data in memory" — falls out
of :meth:`storage_breakdown`: every tracked line costs a full tag plus
``successors`` more line addresses, so useful coverage on a working set
of N lines costs ~N x 90 bits.  The default configuration (64K entries,
~1.3MB) is the smallest that shows temporal prefetching working at all
on our trace scale; DSPatch does its job in 3.6KB.
"""

from dataclasses import dataclass

from repro.constants import LINE_SHIFT
from repro.prefetchers.base import PrefetchCandidate, Prefetcher


@dataclass(frozen=True)
class MarkovConfig:
    """Markov correlation-table geometry."""

    table_entries: int = 65536
    successors: int = 2
    degree: int = 2


class _Node:
    __slots__ = ("successors", "counts")

    def __init__(self):
        self.successors = []
        self.counts = []

    def observe(self, line, max_successors):
        try:
            idx = self.successors.index(line)
            self.counts[idx] += 1
            # Keep successors sorted by count (simple bubble step).
            while idx > 0 and self.counts[idx] > self.counts[idx - 1]:
                self.counts[idx], self.counts[idx - 1] = (
                    self.counts[idx - 1],
                    self.counts[idx],
                )
                self.successors[idx], self.successors[idx - 1] = (
                    self.successors[idx - 1],
                    self.successors[idx],
                )
                idx -= 1
            return
        except ValueError:
            pass
        if len(self.successors) >= max_successors:
            # Replace the weakest successor.
            self.successors[-1] = line
            self.counts[-1] = 1
        else:
            self.successors.append(line)
            self.counts.append(1)


class MarkovPrefetcher(Prefetcher):
    """First-order Markov miss-correlation prefetcher."""

    name = "markov"

    def __init__(self, config: MarkovConfig = MarkovConfig()):
        self.config = config
        self._table = {}  # line -> _Node, dict order = LRU order
        self._last_line = None

    def train(self, cycle, pc, addr, hit):
        line = addr >> LINE_SHIFT
        previous = self._last_line
        self._last_line = line
        if previous is not None and previous != line:
            node = self._table.pop(previous, None)
            if node is None:
                if len(self._table) >= self.config.table_entries:
                    del self._table[next(iter(self._table))]
                node = _Node()
            node.observe(line, self.config.successors)
            self._table[previous] = node

        node = self._table.get(line)
        if node is None:
            return ()
        self._table[line] = self._table.pop(line)  # refresh LRU position
        out = []
        frontier = line
        for _ in range(self.config.degree):
            nxt = self._table.get(frontier)
            if nxt is None or not nxt.successors:
                break
            best = nxt.successors[0]
            if best != line:
                out.append(PrefetchCandidate(best))
            frontier = best
        return out

    def storage_breakdown(self):
        cfg = self.config
        # Tag (36b line address) + per-successor (36b address + 4b count).
        per_entry = 36 + cfg.successors * (36 + 4)
        return {"correlation-table": cfg.table_entries * per_entry}

    def reset(self):
        self._table = {}
        self._last_line = None
