"""First-class, immutable experiment specs.

A *spec* canonicalizes everything that determines one simulation
input or result — and nothing else.  Specs are frozen dataclasses, so
they are hashable, comparable, picklable (they cross process-pool
boundaries), and safe to share between sessions.  Each result spec owns
its content-addressed fingerprint (see :mod:`repro.engine.fingerprint`);
two specs describing the same experiment produce the same digest, in
this process or on another host.

- :class:`TraceSpec` — one generated workload trace, served by
  ``Session.trace``: memoized in the process and rebuilt, never
  stored, so it has no fingerprint;
- :class:`RunSpec` — one single-core run (workload × scheme × length ×
  DRAM × LLC × pollution recording);
- :class:`MixSpec` — one multi-programmed run (one workload per core on
  the shared-LLC machine).

Defaults mirror the paper's machine configurations: ``RunSpec`` defaults
to the ST machine's 1-channel DDR4-2133 DRAM and 2MB LLC, ``MixSpec``
to the MP machine's 2-channel DDR4-2133.  ``None`` DRAM is canonicalized
at construction, so equal experiments always compare (and fingerprint)
equal regardless of how the caller spelled the default.
"""

from dataclasses import dataclass

from repro.constants import MP_LLC_BYTES, ST_LLC_BYTES
from repro.engine.fingerprint import mix_fingerprint, run_fingerprint
from repro.memory.dram import MP_DRAM, ST_DRAM, DramConfig

#: The paper's ST-machine LLC capacity (Table 2); the MP machine's
#: ``MP_LLC_BYTES`` and both DRAM configs (``ST_DRAM``/``MP_DRAM``) are
#: re-exported from their single sources (``repro.constants``,
#: ``repro.memory.dram``) — the same objects ``SystemConfig``'s
#: factories default to, so specs and simulator can never disagree.
DEFAULT_LLC_BYTES = ST_LLC_BYTES


class _Fingerprinted:
    """Memoizes a spec's :meth:`fingerprint` on the instance.

    A cold run asks for one spec's digest several times (memo slot,
    store lookup, save, read-back), and each computation hashes the
    canonical config.  The digest is kept in the instance ``__dict__``
    outside the dataclass fields, so equality and hashing never see it,
    and :meth:`__getstate__` leaves it out, so pickles are unchanged.
    """

    _DIGEST = "_fingerprint"

    def fingerprint(self):
        """Content digest keying this spec in any store backend."""
        digest = self.__dict__.get(self._DIGEST)
        if digest is None:
            digest = self.__dict__[self._DIGEST] = self._fingerprint_fields()
        return digest

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop(self._DIGEST, None)
        return state


@dataclass(frozen=True)
class TraceSpec:
    """One generated workload trace: catalog name × memory-op count ×
    copy (the n-th core running the workload in a mix reads copy n)."""

    workload: str
    length: int
    copy: int = 0


@dataclass(frozen=True)
class RunSpec(_Fingerprinted):
    """One single-core simulation on the paper's ST machine."""

    workload: str
    scheme: str
    length: int
    dram: DramConfig = None
    llc_bytes: int = DEFAULT_LLC_BYTES
    record_pollution: bool = False

    def __post_init__(self):
        if self.dram is None:
            object.__setattr__(self, "dram", ST_DRAM)

    @property
    def trace_spec(self):
        """The trace this run consumes."""
        return TraceSpec(self.workload, self.length)

    def _fingerprint_fields(self):
        return run_fingerprint(
            self.workload,
            self.scheme,
            self.length,
            self.dram,
            self.llc_bytes,
            self.record_pollution,
        )

    def with_scheme(self, scheme):
        """The same machine and workload under a different scheme."""
        return RunSpec(
            self.workload,
            scheme,
            self.length,
            self.dram,
            self.llc_bytes,
            self.record_pollution,
        )


@dataclass(frozen=True)
class MixSpec(_Fingerprinted):
    """One multi-programmed simulation on the paper's MP machine.

    ``workloads`` holds one catalog name per core (the paper runs four);
    copies of the same workload are de-lockstepped by their copy number
    (see :class:`TraceSpec`).
    """

    mix_name: str
    workloads: tuple
    scheme: str
    length_per_core: int
    dram: DramConfig = None
    llc_bytes: int = MP_LLC_BYTES

    def __post_init__(self):
        object.__setattr__(self, "workloads", tuple(self.workloads))
        if self.dram is None:
            object.__setattr__(self, "dram", MP_DRAM)

    @property
    def cores(self):
        """Core count — one per mixed workload."""
        return len(self.workloads)

    def _fingerprint_fields(self):
        return mix_fingerprint(
            self.mix_name,
            self.workloads,
            self.scheme,
            self.length_per_core,
            self.dram,
            self.llc_bytes,
        )

    def with_scheme(self, scheme):
        """The same mix under a different scheme."""
        return MixSpec(
            self.mix_name,
            self.workloads,
            scheme,
            self.length_per_core,
            self.dram,
            self.llc_bytes,
        )


#: Every spec kind `Session.run` accepts.
SPEC_TYPES = (RunSpec, MixSpec)
