"""Traffic generators for every evaluation workload.

Each paper experiment defines a workload:

* Figure 3a — a sender transmitting to a (closed) port for ~34 s:
  :class:`ConstantRateSource`.
* Figure 4a–b — a flow mix where one flow exceeds a fraction of link
  capacity: :class:`FlowMixWorkload` (Zipf-ish rates, one heavy flow).
* Figure 4c–d — a port scan through one switch: :class:`PortScanSource`.
* Figure 5a — "traffic with a progressively increasing rate":
  :class:`RampSource`.
* Figure 5c — a burst that fills then drains a queue:
  :class:`OnOffSource`.

All randomness is seeded; identical runs regenerate identical figures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .host import Host
from .packet import FlowKey, Packet, Protocol
from .sim import Simulator


class TrafficSource:
    """Base class: schedules packet departures on a host's simulator."""

    def __init__(
        self,
        host: Host,
        dst_ip: str,
        dst_port: int,
        src_port: int = 10_000,
        packet_size: int = 1_000,
        protocol: Protocol = Protocol.TCP,
        start: float = 0.0,
        stop: float | None = None,
        ecn_capable: bool = False,
    ) -> None:
        self.host = host
        self.sim: Simulator = host.sim
        self.flow = FlowKey(host.ip, dst_ip, src_port, dst_port, protocol)
        self.packet_size = packet_size
        self.start = start
        self.stop = stop
        self.ecn_capable = ecn_capable
        self.packets_emitted = 0
        self._running = False
        #: Launch-generation token: halt() leaves the scheduled _emit
        #: callback in the heap (lazy cancellation), so a relaunch
        #: before it fires must not let the stale callback resume its
        #: chain alongside the new one — two chains emit at double
        #: rate.  Each launch mints a new generation; a callback whose
        #: generation is stale returns without rescheduling.
        self._generation = 0

    def launch(self) -> None:
        """Arm the source; the first packet departs at ``start``."""
        if self._running:
            raise RuntimeError("source already launched")
        self._running = True
        self._generation += 1
        self.sim.schedule_at(max(self.start, self.sim.now), self._emit,
                             self._generation)

    def halt(self) -> None:
        """Stop emitting after the current packet."""
        self._running = False

    # ------------------------------------------------------------------

    def _emit(self, generation: int) -> None:
        if not self._running or generation != self._generation:
            return
        if self.stop is not None and self.sim.now >= self.stop:
            self._running = False
            return
        self._send_one()
        gap = self.next_gap()
        if gap is None:
            self._running = False
            return
        self.sim.schedule_at(self.sim.now + gap, self._emit, generation)

    def _send_one(self) -> None:
        packet = Packet(
            self.flow,
            size_bytes=self.packet_size,
            created_at=self.sim.now,
            ecn_capable=self.ecn_capable,
        )
        self.host.send_packet(packet)
        self.packets_emitted += 1

    def next_gap(self) -> float | None:
        """Seconds until the next departure, or None to finish."""
        raise NotImplementedError


class ConstantRateSource(TrafficSource):
    """Fixed packets-per-second traffic (Figure 3a's sender)."""

    def __init__(self, host: Host, dst_ip: str, dst_port: int,
                 rate_pps: float, **kwargs) -> None:
        if rate_pps <= 0:
            raise ValueError(f"rate_pps must be positive, got {rate_pps}")
        super().__init__(host, dst_ip, dst_port, **kwargs)
        self.rate_pps = rate_pps

    def next_gap(self) -> float | None:
        return 1.0 / self.rate_pps


class RampSource(TrafficSource):
    """Linearly increasing rate (Figure 5a's "progressively increasing
    rate" sender).

    The instantaneous rate at time t is
    ``initial_rate_pps + slope_pps_per_s * (t - start)``, capped at
    ``max_rate_pps`` if given.
    """

    def __init__(
        self,
        host: Host,
        dst_ip: str,
        dst_port: int,
        initial_rate_pps: float,
        slope_pps_per_s: float,
        max_rate_pps: float | None = None,
        **kwargs,
    ) -> None:
        if initial_rate_pps <= 0:
            raise ValueError("initial_rate_pps must be positive")
        if slope_pps_per_s < 0:
            raise ValueError("slope_pps_per_s must be non-negative")
        super().__init__(host, dst_ip, dst_port, **kwargs)
        self.initial_rate_pps = initial_rate_pps
        self.slope_pps_per_s = slope_pps_per_s
        self.max_rate_pps = max_rate_pps

    def current_rate(self) -> float:
        elapsed = max(0.0, self.sim.now - self.start)
        rate = self.initial_rate_pps + self.slope_pps_per_s * elapsed
        if self.max_rate_pps is not None:
            rate = min(rate, self.max_rate_pps)
        return rate

    def next_gap(self) -> float | None:
        return 1.0 / self.current_rate()


class OnOffSource(TrafficSource):
    """Bursts at ``rate_pps`` for ``on_duration``, silent for
    ``off_duration``, repeating (Figure 5c's fill-then-drain burst)."""

    def __init__(
        self,
        host: Host,
        dst_ip: str,
        dst_port: int,
        rate_pps: float,
        on_duration: float,
        off_duration: float,
        **kwargs,
    ) -> None:
        if rate_pps <= 0:
            raise ValueError("rate_pps must be positive")
        if on_duration <= 0 or off_duration < 0:
            raise ValueError("invalid on/off durations")
        super().__init__(host, dst_ip, dst_port, **kwargs)
        self.rate_pps = rate_pps
        self.on_duration = on_duration
        self.off_duration = off_duration

    def next_gap(self) -> float | None:
        phase = (self.sim.now - self.start) % (self.on_duration + self.off_duration)
        gap = 1.0 / self.rate_pps
        if phase + gap <= self.on_duration:
            return gap
        # Jump to the start of the next ON period.
        return self.on_duration + self.off_duration - phase


class PortScanSource(TrafficSource):
    """A (naive) sequential port scan (Figure 4c–d's attacker).

    Sends ``probes_per_port`` packets to each destination port in
    ``port_range``, advancing every ``interval`` seconds.  The sweep of
    rising destination ports is what paints the "clear logarithmic
    line" on the mel spectrogram.
    """

    def __init__(
        self,
        host: Host,
        dst_ip: str,
        port_range: range,
        interval: float = 0.05,
        probes_per_port: int = 1,
        **kwargs,
    ) -> None:
        if len(port_range) == 0:
            raise ValueError("port_range must not be empty")
        if interval <= 0:
            raise ValueError("interval must be positive")
        super().__init__(host, dst_ip, port_range[0], **kwargs)
        self.port_range = port_range
        self.interval = interval
        self.probes_per_port = probes_per_port
        self._scan_index = 0

    def _send_one(self) -> None:
        port_index = self._scan_index // self.probes_per_port
        port = self.port_range[port_index]
        flow = FlowKey(
            self.flow.src_ip, self.flow.dst_ip, self.flow.src_port, port,
            self.flow.protocol,
        )
        packet = Packet(flow, size_bytes=self.packet_size, created_at=self.sim.now)
        self.host.send_packet(packet)
        self.packets_emitted += 1
        self._scan_index += 1

    def next_gap(self) -> float | None:
        if self._scan_index >= len(self.port_range) * self.probes_per_port:
            return None
        return self.interval


class FanOutSource(TrafficSource):
    """One source contacting many destinations: the k-superspreader
    workload of §5's open problem.

    Emits one packet to each address in ``dst_ips`` in turn, advancing
    every ``interval`` seconds, looping ``rounds`` times.
    """

    def __init__(
        self,
        host: Host,
        dst_ips: list[str],
        dst_port: int = 80,
        interval: float = 0.05,
        rounds: int = 1,
        **kwargs,
    ) -> None:
        if not dst_ips:
            raise ValueError("dst_ips must not be empty")
        if interval <= 0:
            raise ValueError("interval must be positive")
        super().__init__(host, dst_ips[0], dst_port, **kwargs)
        self.dst_ips = list(dst_ips)
        self.interval = interval
        self.rounds = rounds
        self._index = 0

    def _send_one(self) -> None:
        dst_ip = self.dst_ips[self._index % len(self.dst_ips)]
        flow = FlowKey(self.flow.src_ip, dst_ip, self.flow.src_port,
                       self.flow.dst_port, self.flow.protocol)
        self.host.send_packet(
            Packet(flow, size_bytes=self.packet_size, created_at=self.sim.now)
        )
        self.packets_emitted += 1
        self._index += 1

    def next_gap(self) -> float | None:
        if self._index >= len(self.dst_ips) * self.rounds:
            return None
        return self.interval


class FanInSource(TrafficSource):
    """Many (spoofed) sources contacting one destination: the DDoS
    victim workload of §5's open problem.

    The emitting host forges a different source address per packet —
    physically one box, logically a botnet.
    """

    def __init__(
        self,
        host: Host,
        src_ips: list[str],
        dst_ip: str,
        dst_port: int = 80,
        interval: float = 0.05,
        rounds: int = 1,
        **kwargs,
    ) -> None:
        if not src_ips:
            raise ValueError("src_ips must not be empty")
        if interval <= 0:
            raise ValueError("interval must be positive")
        super().__init__(host, dst_ip, dst_port, **kwargs)
        self.src_ips = list(src_ips)
        self.interval = interval
        self.rounds = rounds
        self._index = 0

    def _send_one(self) -> None:
        src_ip = self.src_ips[self._index % len(self.src_ips)]
        flow = FlowKey(src_ip, self.flow.dst_ip, self.flow.src_port,
                       self.flow.dst_port, self.flow.protocol)
        self.host.send_packet(
            Packet(flow, size_bytes=self.packet_size, created_at=self.sim.now)
        )
        self.packets_emitted += 1
        self._index += 1

    def next_gap(self) -> float | None:
        if self._index >= len(self.src_ips) * self.rounds:
            return None
        return self.interval


@dataclass(frozen=True)
class FlowSpec:
    """One flow of a mixed workload: identity plus rate."""

    flow: FlowKey
    rate_pps: float
    packet_size: int = 1_000


class FlowMixWorkload:
    """The §5 heavy-hitter workload: many mice, one (or more) elephants.

    Generates ``num_flows`` flows from one host with Zipf-distributed
    rates, then boosts the designated heavy flows so they exceed
    ``heavy_fraction`` of the link capacity — the paper's definition of
    a heavy hitter ("a flow that consumes more than a fraction of the
    link capacity during a given time interval").
    """

    def __init__(
        self,
        host: Host,
        dst_ip: str,
        link_capacity_pps: float,
        num_flows: int = 12,
        num_heavy: int = 1,
        heavy_fraction: float = 0.3,
        base_rate_pps: float = 2.0,
        zipf_exponent: float = 1.2,
        packet_size: int = 1_000,
        seed: int = 7,
        start: float = 0.0,
        stop: float | None = None,
    ) -> None:
        if not 0 < heavy_fraction < 1:
            raise ValueError("heavy_fraction must be in (0, 1)")
        if not 0 <= num_heavy <= num_flows:
            raise ValueError("num_heavy must be within [0, num_flows]")
        self.host = host
        self.specs: list[FlowSpec] = []
        self.heavy_flows: list[FlowKey] = []
        rng = np.random.default_rng(seed)
        heavy_rate = heavy_fraction * link_capacity_pps
        for index in range(num_flows):
            flow = FlowKey(
                host.ip, dst_ip,
                src_port=20_000 + index,
                dst_port=5_000 + index,
                protocol=Protocol.UDP,
            )
            if index < num_heavy:
                rate = heavy_rate
                self.heavy_flows.append(flow)
            else:
                # Zipf-ish mouse rates, well below the heavy threshold.
                rate = base_rate_pps / ((index - num_heavy + 1) ** zipf_exponent)
                rate = max(rate, 0.2)
            self.specs.append(FlowSpec(flow, rate, packet_size))
        self._sources = [
            _FixedFlowSource(host, spec, seed=seed + 100 + index,
                             start=start, stop=stop)
            for index, spec in enumerate(self.specs)
        ]

    def launch(self) -> None:
        for source in self._sources:
            source.launch()

    def halt(self) -> None:
        for source in self._sources:
            source.halt()


class _FixedFlowSource(TrafficSource):
    """Poisson source bound to an exact pre-built FlowKey."""

    def __init__(self, host: Host, spec: FlowSpec, seed: int,
                 start: float = 0.0, stop: float | None = None) -> None:
        super().__init__(
            host, spec.flow.dst_ip, spec.flow.dst_port,
            src_port=spec.flow.src_port, packet_size=spec.packet_size,
            protocol=spec.flow.protocol, start=start, stop=stop,
        )
        self.flow = spec.flow
        self.rate_pps = spec.rate_pps
        self._rng = np.random.default_rng(seed)

    def next_gap(self) -> float | None:
        return float(self._rng.exponential(1.0 / self.rate_pps))
