"""Feedback-Directed Prefetching (FDP) throttle wrapper.

Section 6's last paragraph: "prior prefetch-throttling proposals can be
orthogonally applied to DSPatch as well to further adjust its prefetch
aggressiveness."  This module makes that sentence executable:
:class:`FeedbackThrottle` wraps *any* prefetcher with the accuracy-driven
aggressiveness controller of Srinath et al. [74] (HPCA'07):

- the wrapper samples its own prefetch accuracy over fixed-size windows of
  issued prefetches (the hierarchy's usefulness callbacks feed it);
- measured accuracy moves an aggressiveness level up or down;
- the level caps how many of the wrapped prefetcher's candidates are
  forwarded per training event (degree clamping), with the lowest level
  dropping prefetches entirely.

The wrapper is transparent for storage accounting (two counters plus the
level register) and for the usefulness callbacks, which are forwarded to
the wrapped prefetcher unchanged.
"""

from dataclasses import dataclass

from repro.prefetchers.base import Prefetcher


@dataclass(frozen=True)
class ThrottleConfig:
    """FDP controller parameters.

    Levels map to per-train candidate caps; accuracy thresholds follow the
    original proposal's high/low watermark scheme.
    """

    #: Candidate cap per aggressiveness level (level 0 = prefetching off).
    level_caps: tuple = (0, 1, 2, 4, 8, 64)
    initial_level: int = 3
    #: Issued-prefetch window between controller decisions.
    window: int = 128
    #: Accuracy watermarks.  The original FDP quotes 0.40/0.75 against its
    #: own accuracy definition; these defaults are calibrated to the
    #: accuracy range this simulator's feedback produces, so the
    #: controller operates rather than idling in the dead zone.
    accuracy_high: float = 0.80
    accuracy_low: float = 0.60

    def __post_init__(self):
        if not self.level_caps:
            raise ValueError("need at least one aggressiveness level")
        if not 0 <= self.initial_level < len(self.level_caps):
            raise ValueError("initial level out of range")
        if not 0.0 <= self.accuracy_low <= self.accuracy_high <= 1.0:
            raise ValueError("need 0 <= low <= high <= 1")


class FeedbackThrottle(Prefetcher):
    """Wrap a prefetcher with FDP-style accuracy-driven throttling."""

    def __init__(self, inner, config: ThrottleConfig = ThrottleConfig()):
        self.inner = inner
        self.config = config
        self.name = f"fdp({inner.name})"
        self.level = config.initial_level
        self._window_useful = 0
        self._window_useless = 0
        self.level_ups = 0
        self.level_downs = 0

    # ------------------------------------------------------------- control

    def _decide(self, cycle=0):
        """One controller step at the end of a feedback window."""
        total = self._window_useful + self._window_useless
        if total < self.config.window:
            return
        accuracy = self._window_useful / total
        before = self.level
        if accuracy >= self.config.accuracy_high:
            if self.level < len(self.config.level_caps) - 1:
                self.level += 1
                self.level_ups += 1
        elif accuracy < self.config.accuracy_low:
            if self.level > 0:
                self.level -= 1
                self.level_downs += 1
        if self.level != before:
            self.trace_event(cycle, f"level={self.level} acc={accuracy:.2f}")
        self._window_useful = 0
        self._window_useless = 0

    # ------------------------------------------------------------ training

    def train(self, cycle, pc, addr, hit):
        candidates = self.inner.train(cycle, pc, addr, hit)
        cap = self.config.level_caps[self.level]
        if cap == 0:
            return ()
        if len(candidates) <= cap:
            return candidates
        return list(candidates)[:cap]

    # ------------------------------------------------------------ feedback

    def note_useful_prefetch(self, cycle, line_addr):
        self._window_useful += 1
        self._decide(cycle)
        self.inner.note_useful_prefetch(cycle, line_addr)

    def note_useless_prefetch(self, cycle, line_addr):
        self._window_useless += 1
        self._decide(cycle)
        self.inner.note_useless_prefetch(cycle, line_addr)

    # -------------------------------------------------------------- plumbing

    def storage_breakdown(self):
        out = {f"{self.inner.name}/{k}": v for k, v in self.inner.storage_breakdown().items()}
        out["fdp-controller"] = 2 * 16 + 3  # two window counters + level
        return out

    def attach_trace(self, emit):
        """Propagate the scheme-event hook to the wrapped prefetcher."""
        self.trace_emit = emit
        self.inner.attach_trace(emit)

    def reset(self):
        self.inner.reset()
        self.level = self.config.initial_level
        self._window_useful = 0
        self._window_useless = 0
