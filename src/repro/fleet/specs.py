"""Fleet topology specs: the contract between driver and shards.

A fleet is N acoustically isolated rooms (racks), each with its own
air, switches and listener.  Rooms never couple — sound does not cross
machine-room walls — so the only state that crosses the process
boundary is these specs going out and :class:`~repro.fleet.room`
reports coming back.  A spec holds only numbers, so it always pickles,
and everything is frozen so a spec submitted to a worker is the spec
that ran.

Frequency plans are **reused across rooms**: isolation means every
room gets the same band, which is how a 1000-switch fleet fits in the
~100–8000 Hz speaker envelope that caps a single room near 100
switches.

Numerology defaults (why these numbers):

* ``listen_interval`` 1/30 s → ~30 Hz FFT bins at the 16 kHz capture
  rate; ``guard_hz`` 120 keeps every plan slot within a few Hz of a
  bin centre (inside the detector's 10 Hz match tolerance) *and* four
  bins from its neighbours — at two-bin spacing the Hann mainlobes of
  simultaneous tones overlap and weaker tones stop being local spectral
  peaks at all (measured: 1/3 of a 20-switch room goes deaf at 60 Hz
  guard, zero at 120).  120 Hz caps a room near 60 switches in the
  speaker's 8 kHz envelope; fleets scale by adding rooms, not slots.
* ``emission_rate_hz`` 10 per switch with 0.03 s tones leaves a 0.07 s
  silent gap ≥ two listening windows, so consecutive chirps can never
  blur into one onset — each chirp is one countable delivery.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

#: Default fleet seed (the XEXT15 extension number, like XEXT15_SEED).
DEFAULT_FLEET_SEED = 15

#: Listening window that puts 60 Hz-guard plan slots on FFT bin centres.
DEFAULT_LISTEN_INTERVAL = 1.0 / 30.0


class FleetConfigError(ValueError):
    """A fleet spec is invalid."""


@dataclass(frozen=True)
class RoomSpec:
    """One acoustically isolated room: its own Simulator, air,
    switches and MDN controller, fully described by values."""

    room_id: int
    num_switches: int
    fleet_seed: int = DEFAULT_FLEET_SEED
    horizon: float = 1.0
    #: Chirps per second per switch.
    emission_rate_hz: float = 10.0
    listen_interval: float = DEFAULT_LISTEN_INTERVAL
    tone_duration: float = 0.03
    level_db: float = 70.0
    low_hz: float = 420.0
    guard_hz: float = 120.0

    #: Top of the cheap-speaker band (see ``audio.devices.Speaker``).
    SPEAKER_MAX_HZ = 8_000.0

    def __post_init__(self) -> None:
        if self.room_id < 0:
            raise FleetConfigError(f"room_id must be >= 0, got {self.room_id}")
        if self.num_switches < 1:
            raise FleetConfigError(
                f"num_switches must be >= 1, got {self.num_switches}"
            )
        if self.horizon <= 0:
            raise FleetConfigError(f"horizon must be positive, got {self.horizon}")
        if self.emission_rate_hz <= 0:
            raise FleetConfigError(
                f"emission_rate_hz must be positive, got {self.emission_rate_hz}"
            )
        gap = 1.0 / self.emission_rate_hz - self.tone_duration
        if gap < 2.0 * self.listen_interval:
            raise FleetConfigError(
                f"chirp gap {gap:.3f} s < two listening windows "
                f"({2 * self.listen_interval:.3f} s); onsets would blur "
                f"across consecutive chirps — lower emission_rate_hz or "
                f"listen_interval"
            )
        top = self.low_hz + self.guard_hz * (self.num_switches + 2)
        if top > self.SPEAKER_MAX_HZ:
            raise FleetConfigError(
                f"{self.num_switches} switches at {self.guard_hz:.0f} Hz "
                f"guard need the plan band to reach {top:.0f} Hz, past "
                f"the {self.SPEAKER_MAX_HZ:.0f} Hz speaker envelope — "
                f"split across more rooms (rooms reuse the band for free)"
            )

    @property
    def chirp_period(self) -> float:
        return 1.0 / self.emission_rate_hz


@dataclass(frozen=True)
class ShardSpec:
    """One unit of parallel execution: a contiguous run of rooms.

    A worker process receives exactly one ShardSpec and simulates its
    rooms sequentially; with one room per shard this is the
    finest-grained decomposition, with all rooms in one shard it is the
    serial reference.
    """

    shard_id: int
    rooms: tuple[RoomSpec, ...]

    def __post_init__(self) -> None:
        if self.shard_id < 0:
            raise FleetConfigError(f"shard_id must be >= 0, got {self.shard_id}")
        if not self.rooms:
            raise FleetConfigError("a shard must contain at least one room")

    @property
    def num_switches(self) -> int:
        return sum(room.num_switches for room in self.rooms)


@dataclass(frozen=True)
class FleetSpec:
    """The whole deployment: rooms x switches plus shared knobs."""

    num_rooms: int = 50
    switches_per_room: int = 20
    seed: int = DEFAULT_FLEET_SEED
    horizon: float = 1.0
    emission_rate_hz: float = 10.0
    listen_interval: float = DEFAULT_LISTEN_INTERVAL
    tone_duration: float = 0.03
    level_db: float = 70.0
    low_hz: float = 420.0
    guard_hz: float = 120.0

    def __post_init__(self) -> None:
        if self.num_rooms < 1:
            raise FleetConfigError(
                f"num_rooms must be >= 1, got {self.num_rooms}"
            )
        if self.switches_per_room < 1:
            raise FleetConfigError(
                f"switches_per_room must be >= 1, got {self.switches_per_room}"
            )

    @property
    def num_switches(self) -> int:
        return self.num_rooms * self.switches_per_room

    @property
    def nominal_emissions_per_second(self) -> float:
        """Fleet-wide chirp rate while every switch is emitting."""
        return self.num_switches * self.emission_rate_hz

    def room_specs(self) -> tuple[RoomSpec, ...]:
        """One RoomSpec per room, in room order."""
        shared = {
            f.name: getattr(self, f.name)
            for f in fields(RoomSpec)
            if f.name not in ("room_id", "num_switches", "fleet_seed")
        }
        return tuple(
            RoomSpec(room_id=room_id, num_switches=self.switches_per_room,
                     fleet_seed=self.seed, **shared)
            for room_id in range(self.num_rooms)
        )

    def shard_specs(self, num_shards: int) -> tuple[ShardSpec, ...]:
        """Partition the rooms into ``num_shards`` contiguous shards.

        Contiguity keeps global room order stable under any shard
        count, which is what makes the merged fleet report bit-identical
        across serial, 2-shard and 8-shard executions (float counter
        totals are order-sensitive; histogram bins never were).  Sizes
        differ by at most one room.
        """
        if not 1 <= num_shards <= self.num_rooms:
            raise FleetConfigError(
                f"num_shards must be in [1, {self.num_rooms}], "
                f"got {num_shards}"
            )
        rooms = self.room_specs()
        base, extra = divmod(self.num_rooms, num_shards)
        shards = []
        cursor = 0
        for shard_id in range(num_shards):
            size = base + (1 if shard_id < extra else 0)
            shards.append(ShardSpec(
                shard_id=shard_id,
                rooms=rooms[cursor:cursor + size],
            ))
            cursor += size
        return tuple(shards)
