"""Columnar flow tables: numpy per-flow state for huge populations.

The per-flow-object path (:mod:`repro.net.traffic`) costs one heap
event plus one Python callback per packet — fine for the paper's
12-flow mixes, hopeless for the 10⁵–10⁶ flow populations of ROADMAP
item 4.  :class:`FlowPopulation` keeps every per-flow attribute in a
numpy column (rates, phases, activity windows, on/off duty cycles,
labels, key-variation rules) so a whole window of departures is
generated in a handful of array operations.

**Cost model.** The population keeps a departure cursor: each flow's
first candidate at or after the end of the last window served, and
that candidate's time (``inf`` once the flow is past its stop).  A
window that starts where the last one ended costs one whole-column
compare (which flows are due) plus work per departure: only the due
flows are expanded and only their cursor entries advance.  Any other
window — the first one, a repeat, a jump backwards or forwards —
re-seeks every flow from the window start first, a few whole-column
passes.

**The departure model is deterministic and closed-form**, which is what
makes the vectorized driver provably equivalent to a per-flow scalar
reference (see ``tests/net/test_workload.py``):

* candidate ``k`` of flow ``i`` departs at ``t = phase_i + k /
  rate_i``;
* the candidate survives only while the flow is active (``start_i <= t
  < stop_i``) and inside its ON burst (``(t - start_i) % (on_i +
  off_i) < on_i``);
* diurnal load modulation thins candidates by comparing a per-(flow,
  candidate) hash ``u(i, k)`` against a piecewise-linear (triangle)
  load curve ``m(t)`` — every operation involved (add, multiply,
  divide, fmod, abs, compare) is IEEE-exact and elementwise-identical
  between numpy arrays and Python scalars, so the scalar and the
  vectorized path accept *bitwise-identical* candidate sets.  (A
  sinusoidal curve would not give that guarantee: SIMD ``np.sin`` may
  differ from the scalar routine in the last ulp.)

Ground-truth labels ride in the ``labels`` column: the workload layer
knows which flows are truly elephants or scanners, so detector output
can be scored as precision/recall instead of eyeballed.
"""

from __future__ import annotations

from itertools import compress

import numpy as np

from .packet import FlowKey, Protocol, stable_flow_hash

#: Ground-truth labels (the ``labels`` column).
LABEL_MOUSE = 0
LABEL_ELEPHANT = 1
LABEL_SCAN = 2
LABEL_CHURN = 3

LABEL_NAMES = {
    LABEL_MOUSE: "mouse",
    LABEL_ELEPHANT: "elephant",
    LABEL_SCAN: "scan",
    LABEL_CHURN: "churn",
}

#: Per-packet key variation (the ``variation`` column).  A static flow
#: reuses one :class:`FlowKey` for every packet; a port-scan flow
#: varies its dst port with the candidate ordinal ``k``.
VARY_NONE = 0
VARY_DST_PORT = 1   #: port scan — dst port cycles ``base + k % span``

_MAX_PORT = 65_535
_MASK64 = (1 << 64) - 1
#: Exact power-of-two scale mapping a 53-bit hash to [0, 1).
_U53_SCALE = 1.0 / float(1 << 53)
#: The numpy columns a :class:`FlowPopulation` is built from.
_NUMPY_COLUMNS = (
    "src_ports", "dst_ports", "rates", "phases", "starts", "stops",
    "on_durations", "off_durations", "labels", "variation", "vary_base",
    "vary_span", "packet_sizes",
)


def _mix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer over a uint64 array (wraps mod 2**64)."""
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _mix64_scalar(x: int) -> int:
    """SplitMix64 finalizer on a Python int — bitwise-identical to
    :func:`_mix64` (both are arithmetic mod 2**64)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class FlowPopulation:
    """A flow table held as parallel numpy columns.

    Build one through :meth:`repro.net.workload.WorkloadSpec.build`
    rather than by hand; the constructor only validates and freezes the
    columns (every numpy column is read-only, so the departure cursor
    can never go stale under a write).  All float columns are
    ``np.float64``; ``stops`` uses ``inf`` for "never", and always-on
    flows carry ``on=inf, off=0`` (``x % inf == x``, so the duty-cycle
    gate passes them untouched and is evaluated only on the
    ``duty_cycled`` rows).
    """

    def __init__(
        self,
        *,
        src_ips: list[str],
        dst_ips: list[str],
        src_ports: np.ndarray,
        dst_ports: np.ndarray,
        protocols: list[Protocol],
        rates: np.ndarray,
        phases: np.ndarray,
        starts: np.ndarray,
        stops: np.ndarray,
        on_durations: np.ndarray,
        off_durations: np.ndarray,
        labels: np.ndarray,
        variation: np.ndarray,
        vary_base: np.ndarray,
        vary_span: np.ndarray,
        packet_sizes: np.ndarray,
        diurnal_amplitude: float = 0.0,
        diurnal_period: float = 8.0,
    ) -> None:
        n = len(src_ips)
        self.n = n
        self.src_ips = list(src_ips)
        self.dst_ips = list(dst_ips)
        self.src_ports = np.asarray(src_ports, dtype=np.int64)
        self.dst_ports = np.asarray(dst_ports, dtype=np.int64)
        self.protocols = list(protocols)
        self.rates = np.asarray(rates, dtype=np.float64)
        self.phases = np.asarray(phases, dtype=np.float64)
        self.starts = np.asarray(starts, dtype=np.float64)
        self.stops = np.asarray(stops, dtype=np.float64)
        self.on_durations = np.asarray(on_durations, dtype=np.float64)
        self.off_durations = np.asarray(off_durations, dtype=np.float64)
        self.labels = np.asarray(labels, dtype=np.int8)
        self.variation = np.asarray(variation, dtype=np.int8)
        self.vary_base = np.asarray(vary_base, dtype=np.int64)
        self.vary_span = np.asarray(vary_span, dtype=np.int64)
        self.packet_sizes = np.asarray(packet_sizes, dtype=np.int64)
        if not 0.0 <= diurnal_amplitude < 1.0:
            raise ValueError("diurnal_amplitude must be in [0, 1)")
        if diurnal_period <= 0:
            raise ValueError("diurnal_period must be positive")
        self.diurnal_amplitude = float(diurnal_amplitude)
        self.diurnal_period = float(diurnal_period)

        for name in ("dst_ips", "protocols"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"column {name} has wrong length")
        for name in _NUMPY_COLUMNS:
            if len(getattr(self, name)) != n:
                raise ValueError(f"column {name} has wrong length")
        if n and not np.all(self.rates > 0):
            raise ValueError("all rates must be positive")
        if n and not np.all(self.phases >= 0):
            raise ValueError("all phases must be non-negative")
        if n and np.any((self.variation != VARY_NONE) & (self.vary_span < 1)):
            raise ValueError("varying flows need vary_span >= 1")
        for name in ("src_ports", "dst_ports"):
            ports = getattr(self, name)
            if not np.all((ports >= 0) & (ports <= _MAX_PORT)):
                raise ValueError(f"{name} out of range [0, {_MAX_PORT}]")
        sweep_last = self.vary_base + self.vary_span - 1
        if np.any((self.variation == VARY_DST_PORT)
                  & ((self.vary_base < 0) | (sweep_last > _MAX_PORT))):
            raise ValueError(f"dst_port sweep out of range [0, {_MAX_PORT}]")

        #: True where the flow's key is constant across packets.
        self.static = self.variation == VARY_NONE
        #: :func:`stable_flow_hash` per static flow (0 for varying
        #: flows, whose key — and hence hash — changes with ``k``).
        #: One blake2b per flow, paid once at build, streamed straight
        #: into the column without a :class:`FlowKey` per row.
        self.stable_hashes = np.zeros(n, dtype=np.uint64)
        columns = (self.src_ips, self.dst_ips, self.src_ports, self.dst_ports,
                   self.protocols)
        self.stable_hashes[self.static] = np.fromiter(
            map(stable_flow_hash,
                *(compress(column, self.static) for column in columns)),
            dtype=np.uint64, count=int(np.count_nonzero(self.static)),
        )
        #: True where the flow has a finite ON burst; every other flow
        #: passes the duty-cycle gate (``x % inf == x < inf``).
        self.duty_cycled = np.isfinite(self.on_durations)

        for name in _NUMPY_COLUMNS + ("static", "stable_hashes",
                                      "duty_cycled"):
            # A read-only view: frozen here without freezing the
            # caller's array.
            column = getattr(self, name).view()
            column.setflags(write=False)
            setattr(self, name, column)

        # The departure cursor (see departures_between): per flow, the
        # first candidate departing at or after ``_cursor_end`` and its
        # time, inf once past the stop.  None until the first call.
        self._cursor_end: float | None = None
        self._k_next = np.empty(0, dtype=np.float64)
        self._t_next = np.empty(0, dtype=np.float64)
        #: Candidates expanded by :meth:`departures_between` so far (a
        #: cost statistic: every one is a departure or a gated drop).
        self.candidates_expanded = 0

    def __len__(self) -> int:
        return self.n

    # ------------------------------------------------------------------
    # Key materialization
    # ------------------------------------------------------------------

    def flow_key(self, i: int, k: int = 0) -> FlowKey:
        """The 5-tuple of candidate ``k`` of flow ``i``."""
        dst_port = int(self.dst_ports[i])
        if self.variation[i] == VARY_DST_PORT:
            dst_port = int(self.vary_base[i]) + k % int(self.vary_span[i])
        return FlowKey(self.src_ips[i], self.dst_ips[i],
                       int(self.src_ports[i]), dst_port, self.protocols[i])

    def dst_ports_for(self, flow_idx: np.ndarray, ks: np.ndarray) -> np.ndarray:
        """Vectorized destination ports for a batch of departures."""
        ports = self.dst_ports[flow_idx].copy()
        varying = self.variation[flow_idx] == VARY_DST_PORT
        if np.any(varying):
            rows = flow_idx[varying]
            ports[varying] = self.vary_base[rows] + ks[varying] % self.vary_span[rows]
        return ports

    def retarget(self, dst_ip: str) -> "FlowPopulation":
        """A copy of this population with every flow aimed at ``dst_ip``.

        The experiment CLIs run workloads at *acoustic* fidelity: real
        packets through a real testbed, where only installed routes
        forward (and hence ring tones).  Retargeting points the
        synthetic server addresses at an actual receiving host; static
        hashes — and so bucket ground truth — are recomputed by the
        constructor.
        """
        return FlowPopulation(
            src_ips=self.src_ips,
            dst_ips=[dst_ip] * self.n,
            src_ports=self.src_ports,
            dst_ports=self.dst_ports,
            protocols=self.protocols,
            rates=self.rates,
            phases=self.phases,
            starts=self.starts,
            stops=self.stops,
            on_durations=self.on_durations,
            off_durations=self.off_durations,
            labels=self.labels,
            variation=self.variation,
            vary_base=self.vary_base,
            vary_span=self.vary_span,
            packet_sizes=self.packet_sizes,
            diurnal_amplitude=self.diurnal_amplitude,
            diurnal_period=self.diurnal_period,
        )

    # ------------------------------------------------------------------
    # Departure model
    # ------------------------------------------------------------------

    def _modulation(self, t: np.ndarray) -> np.ndarray:
        """Triangle-wave diurnal load curve m(t) in [1 - amp, 1]."""
        frac = (t / self.diurnal_period) % 1.0
        return 1.0 - self.diurnal_amplitude * np.abs(2.0 * frac - 1.0)

    def _thinning_u(self, flow_idx: np.ndarray, ks: np.ndarray) -> np.ndarray:
        """Per-(flow, candidate) hash in [0, 1) — the thinning coin."""
        keys = (flow_idx.astype(np.uint64) << np.uint64(32)) + ks.astype(np.uint64)
        return (_mix64(keys) >> np.uint64(11)).astype(np.float64) * _U53_SCALE

    def accept(self, i: int, k: int, t: float) -> bool:
        """Scalar acceptance — the reference the vectorized mask must
        match bit-for-bit (same formulas, same IEEE ops)."""
        if not (self.starts[i] <= t < self.stops[i]):
            return False
        rel = t - self.starts[i]
        if not (rel % (self.on_durations[i] + self.off_durations[i])
                < self.on_durations[i]):
            return False
        if self.diurnal_amplitude > 0.0:
            u = float(_mix64_scalar((i << 32) + k) >> 11) * _U53_SCALE
            frac = (t / self.diurnal_period) % 1.0
            m = 1.0 - self.diurnal_amplitude * abs(2.0 * frac - 1.0)
            if not u < m:
                return False
        return True

    def next_departure(
        self, i: int, k_from: int, until: float
    ) -> tuple[int, float] | None:
        """First accepted candidate ``>= k_from`` of flow ``i`` with a
        departure time below ``until`` — the per-flow reference path."""
        rate = self.rates[i]
        phase = self.phases[i]
        limit = min(until, float(self.stops[i]))
        k = k_from
        while True:
            t = phase + k / rate
            if not t < limit:
                return None
            if self.accept(i, k, t):
                return k, float(t)
            k += 1

    def departures_between(
        self, t0: float, t1: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All departures with ``t0 <= t < t1``, vectorized.

        Returns ``(times, flow_indices, candidate_ordinals)`` sorted by
        time (ties broken by flow index, then ordinal).  Each due flow's
        candidates run from its cursor up to its first candidate at or
        after the window's far edge, found exactly on ``t``, so float
        rounding at window edges can never drop or duplicate a
        departure across adjacent windows.

        The cost is one whole-column compare plus work per departure
        when ``t0`` is where the previous call's window ended: the
        cursor names the flows due before ``t1``, only those are
        expanded into per-candidate arrays, and only their cursor
        entries move.  Any other ``t0`` first re-seeks the cursor of
        every flow to ``t0`` (a few whole-column passes: ``t`` never
        decreases as ``k`` grows, so each flow's closed-form first
        candidate is at most a step or two early).  An empty or
        reversed window returns nothing and leaves the cursor alone.
        """
        empty = (np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int64),
                 np.empty(0, dtype=np.int64))
        if not t1 > t0:
            return empty
        if t0 != self._cursor_end:
            self._k_next, self._t_next = self._first_departures(
                slice(None), np.maximum(t0, self.starts), 0.0)
        due = np.flatnonzero(self._t_next < t1)
        k_lo = self._k_next[due]
        # A due flow's first candidate at or after the far edge (t1, or
        # its stop if sooner) is both the end of its run and its next
        # cursor entry; the entry's time is inf once past the stop.
        # Every candidate from the cursor on departs at or after
        # max(t0, start), and t never decreases as k grows, so each one
        # before the edge departs in the window.
        k_hi, self._t_next[due] = self._first_departures(
            due, np.minimum(t1, self.stops[due]), k_lo)
        self._k_next[due] = k_hi
        self._cursor_end = t1
        counts = (k_hi - k_lo).astype(np.int64)

        total = int(counts.sum())
        self.candidates_expanded += total
        flow_idx = np.repeat(due, counts)
        offsets = np.cumsum(counts) - counts
        ks = (np.arange(total, dtype=np.int64)
              + np.repeat(k_lo.astype(np.int64) - offsets, counts))
        t = (np.repeat(self.phases[due], counts)
             + ks.astype(np.float64) / np.repeat(self.rates[due], counts))

        mask = np.ones(total, dtype=bool)
        gated = np.flatnonzero(self.duty_cycled[flow_idx])
        if len(gated):
            rows = flow_idx[gated]
            on = self.on_durations[rows]
            period = on + self.off_durations[rows]
            mask[gated] = np.mod(t[gated] - self.starts[rows], period) < on
        if self.diurnal_amplitude > 0.0:
            mask &= self._thinning_u(flow_idx, ks) < self._modulation(t)
        if not mask.all():
            flow_idx, ks, t = flow_idx[mask], ks[mask], t[mask]
        if not len(t):
            return empty
        # Candidates were generated in (flow, k) order, so equal times
        # need a stable sort.  No window of the bench populations holds
        # equal times (telemetry-flows and lb-packets, seeds 5 and 11),
        # and there the quicksort plus the check costs a quarter of the
        # stable sort.
        order = np.argsort(t)
        times = t[order]
        if (times[1:] == times[:-1]).any():
            order = np.argsort(t, kind="stable")
            times = t[order]
        return times, flow_idx[order], ks[order]

    def _first_departures(
        self,
        rows: np.ndarray | slice,
        lo: float | np.ndarray,
        k_min: float | np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per flow in ``rows``: the first candidate ``k >= k_min``
        departing at or after ``lo``, as a float ordinal, and its time
        (``inf`` at or past the flow's stop)."""
        phases, rates = self.phases[rows], self.rates[rows]
        k = np.maximum(np.ceil((lo - phases) * rates) - 1.0, k_min)
        t = phases + k / rates
        early = t < lo
        while early.any():
            k += early
            t = phases + k / rates
            early = t < lo
        t[t >= self.stops[rows]] = np.inf
        return k, t

    # ------------------------------------------------------------------
    # Ground truth
    # ------------------------------------------------------------------

    def indices_with_label(self, label: int) -> np.ndarray:
        return np.nonzero(self.labels == label)[0]

    def label_counts(self) -> dict[str, int]:
        """Flows per ground-truth label, by name."""
        return {
            name: int(np.count_nonzero(self.labels == label))
            for label, name in sorted(LABEL_NAMES.items())
            if np.any(self.labels == label)
        }
