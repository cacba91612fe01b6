"""The Music Protocol (MP): how a switch asks its speaker for a sound.

From §3: "We modified the firmware of the Zodiac FX switches, so that
when we want the switch to play a sound, a Music Protocol (MP) message
is sent to the Pi.  The MP payload contains the frequency at which we
want to play the sound, its duration and intensity (volume)."

This module defines that message and its wire format.  The encoding is
deliberately tiny — the Zodiac FX has 120 KB of RAM and the paper had
to use the raw LwIP API — so the payload is 12 bytes, fixed layout,
with an XOR checksum:

====== ======= ========================================
offset size    field
====== ======= ========================================
0      2       magic ``b"MP"``
2      1       version (currently 1)
3      4       frequency, centihertz, unsigned big-endian
7      2       duration, milliseconds, unsigned big-endian
9      2       intensity, centi-dB SPL, unsigned big-endian
11     1       XOR checksum of bytes 0..10
====== ======= ========================================
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from ..audio.synth import ToneSpec

MAGIC = b"MP"
VERSION = 1
WIRE_SIZE = 12

_STRUCT = struct.Struct("!2sBIHH")

#: Field limits implied by the wire format.
MAX_FREQUENCY_HZ = (2**32 - 1) / 100.0
MAX_DURATION_S = (2**16 - 1) / 1000.0
MAX_INTENSITY_DB = (2**16 - 1) / 100.0


class MusicProtocolError(ValueError):
    """Raised when an MP message cannot be encoded or decoded."""


@dataclass(frozen=True)
class MusicProtocolMessage:
    """A request to play one tone.

    Attributes
    ----------
    frequency:
        Tone frequency, Hz.
    duration:
        Tone duration, seconds.
    intensity_db:
        Emission level, dB SPL.
    """

    frequency: float
    duration: float
    intensity_db: float = 60.0

    def __post_init__(self) -> None:
        if not 0 < self.frequency <= MAX_FREQUENCY_HZ:
            raise MusicProtocolError(
                f"frequency {self.frequency} outside (0, {MAX_FREQUENCY_HZ}]"
            )
        if not 0 < self.duration <= MAX_DURATION_S:
            raise MusicProtocolError(
                f"duration {self.duration} outside (0, {MAX_DURATION_S}]"
            )
        if not 0 <= self.intensity_db <= MAX_INTENSITY_DB:
            raise MusicProtocolError(
                f"intensity {self.intensity_db} outside [0, {MAX_INTENSITY_DB}]"
            )

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------

    def marshal(self) -> bytes:
        """Encode to the 12-byte wire format."""
        body = _STRUCT.pack(
            MAGIC,
            VERSION,
            int(round(self.frequency * 100)),
            int(round(self.duration * 1000)),
            int(round(self.intensity_db * 100)),
        )
        return body + bytes([_xor(body)])

    @classmethod
    def unmarshal(cls, wire: bytes) -> "MusicProtocolMessage":
        """Decode a 12-byte MP message, validating magic, version and
        checksum.

        Any malformed input — wrong type, truncation, padding, flipped
        bits, stale versions — raises :class:`MusicProtocolError`; a
        receiver parsing untrusted frames never sees a bare
        ``struct.error`` or ``ValueError``.
        """
        if not isinstance(wire, (bytes, bytearray, memoryview)):
            raise MusicProtocolError(
                f"MP message must be bytes, got {type(wire).__name__}"
            )
        wire = bytes(wire)
        if len(wire) != WIRE_SIZE:
            raise MusicProtocolError(
                f"MP message must be {WIRE_SIZE} bytes, got {len(wire)}"
            )
        body, checksum = wire[:-1], wire[-1]
        if _xor(body) != checksum:
            raise MusicProtocolError("MP checksum mismatch")
        try:
            magic, version, centi_hz, milli_s, centi_db = _STRUCT.unpack(body)
        except struct.error as exc:  # length-checked; belt and braces
            raise MusicProtocolError(f"undecodable MP body: {exc}") from exc
        if magic != MAGIC:
            raise MusicProtocolError(f"bad magic {magic!r}")
        if version != VERSION:
            raise MusicProtocolError(f"unsupported MP version {version}")
        if centi_hz == 0:
            raise MusicProtocolError("frequency must be positive")
        if milli_s == 0:
            raise MusicProtocolError("duration must be positive")
        return cls(centi_hz / 100.0, milli_s / 1000.0, centi_db / 100.0)

    #: Receiver-facing alias: the Pi "decodes" frames off the wire.
    decode = unmarshal

    # ------------------------------------------------------------------
    # Bridges
    # ------------------------------------------------------------------

    def to_tone_spec(self) -> ToneSpec:
        """The tone this message asks the speaker to play."""
        return ToneSpec(self.frequency, self.duration, self.intensity_db)

    @classmethod
    def from_tone_spec(cls, spec: ToneSpec) -> "MusicProtocolMessage":
        return cls(spec.frequency, spec.duration, spec.level_db)


def _xor(data: bytes) -> int:
    checksum = 0
    for byte in data:
        checksum ^= byte
    return checksum
