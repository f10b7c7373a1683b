"""Adjunct prefetcher composition.

Section 5.1 evaluates DSPatch "as a lightweight adjunct spatial prefetcher"
to SPP: both prefetchers train on the same L1-miss stream and both emit
candidates.  :class:`CompositePrefetcher` implements that composition for
any set of components (DSPatch+SPP, BOP+SPP, SMS+SPP, and the
SPP+BOP+DSPatch triple of Section 5.1's last paragraph), suppressing
duplicate candidates so a line requested by several components is issued
once — earlier components take precedence, matching a fixed arbitration
priority in hardware.
"""

from repro.prefetchers.base import Prefetcher, flush_training_with_cycle


class CompositePrefetcher(Prefetcher):
    """Run several prefetchers on the same training stream."""

    def __init__(self, components, name=None):
        components = list(components)
        if not components:
            raise ValueError("composite needs at least one component")
        self.components = components
        self.name = name or "+".join(c.name for c in components)
        # Pooled merge scratch: ``train`` runs once per training access
        # and its output is consumed (issued) before the next call, so
        # the merged list and seen-set are reused instead of allocated
        # fresh per access.
        self._merged = []
        self._seen = set()

    def train(self, cycle, pc, addr, hit):
        # Fast path: most training calls yield candidates from at most one
        # component, and components rarely emit internal duplicates — the
        # full merge (pooled set + list rebuild) is deferred until a second
        # component contributes or a duplicate is detected.  Earlier
        # components take precedence on duplicates, and the no-duplicates
        # output invariant holds even within one component's list.
        # The returned list may be the pooled scratch: per the base-class
        # contract it is invalidated by the next train call.
        first = None
        merged = None
        seen = None
        for component in self.components:
            cands = component.train(cycle, pc, addr, hit)
            if not cands:
                continue
            if first is None:
                first = cands
                continue
            if merged is None:
                merged, seen = self._dedup_pooled(first)
            for cand in cands:
                line = cand.line_addr
                if line not in seen:
                    seen.add(line)
                    merged.append(cand)
        if merged is not None:
            return merged
        if first is None:
            return ()
        seen = self._seen
        seen.clear()
        for cand in first:
            seen.add(cand.line_addr)
        if len(seen) == len(first):
            return first
        return self._dedup_pooled(first)[0]

    def _dedup_pooled(self, candidates):
        """Order-preserving dedup into the pooled (list, seen-line set)."""
        merged = self._merged
        merged.clear()
        seen = self._seen
        seen.clear()
        for cand in candidates:
            line = cand.line_addr
            if line not in seen:
                seen.add(line)
                merged.append(cand)
        return merged, seen

    def flush_training(self, cycle=0):
        """Forward end-of-run learning to components that support it.

        ``cycle`` (the run's final cycle) is forwarded so bandwidth-aware
        components (DSPatch) learn under the correct bucket.
        """
        for component in self.components:
            flush_training_with_cycle(component, cycle)

    def note_useful_prefetch(self, cycle, line_addr):
        for component in self.components:
            component.note_useful_prefetch(cycle, line_addr)

    def note_useless_prefetch(self, cycle, line_addr):
        for component in self.components:
            component.note_useless_prefetch(cycle, line_addr)

    def attach_trace(self, emit):
        """Propagate the scheme-event hook to every component."""
        self.trace_emit = emit
        for component in self.components:
            component.attach_trace(emit)

    def storage_breakdown(self):
        merged = {}
        for component in self.components:
            for key, bits in component.storage_breakdown().items():
                merged[f"{component.name}/{key}"] = bits
        return merged

    def reset(self):
        for component in self.components:
            component.reset()
