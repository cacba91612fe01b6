"""Test signals the library does not synthesize itself."""

import numpy as np

from repro.audio import AudioSignal, db_to_amplitude, raised_cosine_envelope


def linear_sweep(start_hz, end_hz, duration, level_db=60.0,
                 sample_rate=16_000):
    """A linear frequency sweep at ``level_db`` RMS with the default
    raised-cosine ramps: a tonal interferer that crosses every band
    between ``start_hz`` and ``end_hz``."""
    count = int(round(duration * sample_rate))
    t = np.arange(count) / sample_rate
    sweep_rate = (end_hz - start_hz) / duration
    phase = 2.0 * np.pi * (start_hz * t + 0.5 * sweep_rate * t * t)
    samples = db_to_amplitude(level_db) * np.sqrt(2.0) * np.sin(phase)
    samples *= raised_cosine_envelope(count, sample_rate)
    return AudioSignal(samples, sample_rate)
