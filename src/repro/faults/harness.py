"""Shared fault-injection machinery: seeded randomness and the harness.

Determinism is the whole point: a resilience experiment must be able to
say "at 20 % MP-frame loss with seed 7, ARQ delivered 99.3 %" and have
that number reproduce bit-for-bit.  Two rules make that possible:

* every random draw comes from :func:`seeded_rng` — a generator derived
  from ``(seed, crc32(label))``, so two injectors with different labels
  never share a stream and adding an injector never perturbs another's
  draws;
* fault state never flips "now" in wall time — activations ride the
  simulator's event heap, interleaving deterministically with the
  experiment's own events.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING

import numpy as np

from .. import obs
from ..net.sim import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .audio import AcousticFaults
    from .net import MpLinkFaults


def seeded_rng(seed: int, label: str) -> np.random.Generator:
    """A generator keyed by ``(seed, crc32(label))``.

    The label folds in *which* injector is drawing, so the streams of
    distinct injectors are independent and stable under reordering.
    """
    return np.random.default_rng((seed, zlib.crc32(label.encode("utf-8"))))


class FaultCounter:
    """A named fault tally, mirrored into :mod:`repro.obs` as
    ``faults.<name>`` when observability is enabled.

    Injector code counts through this object unconditionally; the
    registry-backed counter makes the tally visible in obs exports and
    the plain ``value`` makes it readable either way.  Given a
    ``counter`` some component already keeps, it reports and registers
    that one instead.
    """

    __slots__ = ("name", "_counter")

    def __init__(self, name: str, counter: obs.Counter | None = None) -> None:
        self.name = name
        if counter is None:
            counter = obs.counter(f"faults.{name}")
        elif (registry := obs.get_registry()) is not None:
            registry.register(counter)
        self._counter = counter

    def inc(self, amount: int = 1) -> None:
        self._counter.inc(amount)

    @property
    def value(self) -> int:
        return self._counter.value


class FaultHarness:
    """One handle over every injector attached to a rig.

    The harness owns the ``(sim, seed)`` pair its injectors draw and
    schedule from, and keeps a roster of injectors so an experiment can
    summarize everything that was thrown at the system in one call.

    Usage::

        harness = FaultHarness(sim, seed=7)
        air = harness.acoustic(channel)
        air.drop_speaker(position, start=3.2, end=6.2)
        link = harness.mp_link(switch.ports[bridge.pi_port],
                               loss_rate=0.2)
        ...
        sim.run(30.0)
        harness.summary()  # {"speaker_dropouts": 1, "mp_frames_lost": 31, ...}
    """

    def __init__(self, sim: Simulator, seed: int = 0) -> None:
        self.sim = sim
        self.seed = seed
        self.injectors: list[object] = []

    def register(self, injector):
        """Add an injector to the roster; returns it for chaining."""
        self.injectors.append(injector)
        return injector

    # ------------------------------------------------------------------
    # Injector factories (lazy imports avoid a package import cycle)
    # ------------------------------------------------------------------

    def acoustic(self, channel) -> "AcousticFaults":
        """The channel-side injector (speaker dropout), installed on
        ``channel``."""
        from .audio import AcousticFaults

        return self.register(AcousticFaults(self.sim, channel, seed=self.seed))

    def mp_link(self, direction, loss_rate: float = 0.0,
                label: str = "mp_link") -> "MpLinkFaults":
        """A frame-loss injector on one :class:`LinkDirection`."""
        from .net import MpLinkFaults

        return self.register(MpLinkFaults(
            direction, loss_rate=loss_rate, seed=self.seed, label=label,
        ))

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def summary(self) -> dict[str, int]:
        """Merged fault tallies across every registered injector."""
        totals: dict[str, int] = {}
        for injector in self.injectors:
            for counter in getattr(injector, "counters", ()):
                totals[counter.name] = (
                    totals.get(counter.name, 0) + counter.value
                )
        return totals
