"""The scalar per-tone render loop: the specification that
:meth:`repro.audio.AcousticChannel.render_at` is pinned against.

``render_reference(channel, listener, start, end)`` walks every
scheduled tone in schedule order and mixes it, then each of its echo
taps, with one ``np.sin`` per (tone, tap) segment.  It bypasses the tone
index, the wave bank and every cache except the shared envelope memo.
``render_at`` must equal it bit for bit (``assert_array_equal``): both
evaluate the same IEEE operations per sample and sum each sample's
contributions in the same (tone, tap) order.

It has the ``render_at`` signature with the channel first, so a test can
swap it in with ``monkeypatch.setattr(AcousticChannel, "render_at",
render_reference)``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.audio import AudioSignal
from repro.audio.channel import (
    SPEED_OF_SOUND,
    AcousticChannel,
    Position,
    ScheduledTone,
    propagation_loss_db,
)
from repro.audio.signal import db_to_amplitude
from repro.audio.synth import raised_cosine_envelope, signalling_ramp


def render_reference(
    channel: AcousticChannel, listener: Position, start: float, end: float
) -> AudioSignal:
    """Pressure signal at ``listener`` during ``[start, end)``, one tone
    at a time."""
    if end < start:
        raise ValueError(f"end ({end}) must be >= start ({start})")
    count = int(round((end - start) * channel.sample_rate))
    mix = np.zeros(count)
    if count == 0:
        return AudioSignal(mix, channel.sample_rate)
    for tone in channel.scheduled_tones:
        _mix_tone(channel, mix, tone, listener, start)
        for extra_delay, extra_loss in channel.echo_taps:
            _mix_tone(channel, mix, tone, listener, start,
                      extra_delay, extra_loss)
    for bed in channel._noise_beds:
        distance = listener.distance_to(bed.position)
        gain = 10.0 ** (-propagation_loss_db(distance) / 20.0)
        delay = (
            distance / SPEED_OF_SOUND
            if channel.enable_propagation_delay
            else 0.0
        )
        channel._mix_noise(mix, bed, start, gain, delay)
    return AudioSignal(mix, channel.sample_rate)


def _mix_tone(
    channel: AcousticChannel,
    mix: np.ndarray,
    tone: ScheduledTone,
    listener: Position,
    window_start: float,
    extra_delay: float = 0.0,
    extra_loss_db: float = 0.0,
) -> None:
    """Add one (possibly partial) tone (or one of its echoes) into a
    capture buffer."""
    sample_rate = channel.sample_rate
    distance = listener.distance_to(tone.position)
    delay = (distance / SPEED_OF_SOUND
             if channel.enable_propagation_delay else 0.0)
    arrival = tone.start_time + (delay + extra_delay)
    departure = arrival + tone.spec.duration

    window_end = window_start + len(mix) / sample_rate
    if departure <= window_start or arrival >= window_end:
        return

    level = tone.spec.level_db - propagation_loss_db(distance) - extra_loss_db
    # Synthesize only the overlapping span, phase-continuous with the
    # tone's own clock so windows seam together exactly.
    overlap_start = max(arrival, window_start)
    overlap_end = min(departure, window_end)
    lo = int(round((overlap_start - window_start) * sample_rate))
    hi = int(round((overlap_end - window_start) * sample_rate))
    hi = min(hi, len(mix))
    if hi <= lo:
        return

    tone_len = int(round(tone.spec.duration * sample_rate))
    offset = int(round((overlap_start - arrival) * sample_rate))
    n = np.arange(offset, min(offset + (hi - lo), tone_len))
    if len(n) == 0:
        return
    amplitude = db_to_amplitude(level) * math.sqrt(2.0)
    phase = 2.0 * math.pi * tone.spec.frequency * n / sample_rate
    samples = amplitude * np.sin(phase)
    envelope = raised_cosine_envelope(
        tone_len, sample_rate, signalling_ramp(tone.spec.duration)
    )
    samples *= envelope[n]
    mix[lo : lo + len(samples)] += samples
