"""Acoustic substrate: synthesis, propagation, capture and analysis.

This package is the simulated replacement for the paper's physical
audio path (speakers + air + microphones + pyaudio); see DESIGN.md §2
for the substitution rationale.
"""

from .channel import (
    SPEED_OF_SOUND,
    AcousticChannel,
    NoiseBed,
    Position,
    ScheduledTone,
    propagation_loss_db,
)
from .detector import (
    DEFAULT_THRESHOLD_DB,
    DEFAULT_TOLERANCE_HZ,
    DetectionEvent,
    FrequencyDetector,
)
from .devices import DeviceCapabilityError, Microphone, Speaker
from .fft import (
    Spectrum,
    SpectrumAnalyzer,
    hann_taper,
    power_spectrogram,
)
from .goertzel import goertzel_magnitude
from .mel import (
    dominant_mel_track,
    hz_to_mel,
    mel_filterbank,
    mel_spectrogram,
    mel_to_hz,
)
from .modem import (
    FskReceiver,
    FskTransmitter,
    ModemConfig,
    ModemError,
    default_modem_config,
)
from .noise import (
    SongNoise,
    band_noise,
    brown_noise,
    datacenter_ambience,
    hvac_hum,
    office_ambience,
    pink_noise,
    white_noise,
)
from .wav import read_wav, write_wav
from .signal import (
    DEFAULT_SAMPLE_RATE,
    FULL_SCALE_DB,
    SILENCE_DB,
    AudioSignal,
    amplitude_to_db,
    db_to_amplitude,
)
from .synth import (
    DEFAULT_RAMP,
    MAX_SIGNALLING_RAMP,
    ToneSpec,
    raised_cosine_envelope,
    signalling_ramp,
    sine_tone,
)

__all__ = [
    "AcousticChannel",
    "AudioSignal",
    "DEFAULT_RAMP",
    "DEFAULT_SAMPLE_RATE",
    "DEFAULT_THRESHOLD_DB",
    "DEFAULT_TOLERANCE_HZ",
    "DetectionEvent",
    "DeviceCapabilityError",
    "FULL_SCALE_DB",
    "FrequencyDetector",
    "FskReceiver",
    "FskTransmitter",
    "ModemConfig",
    "ModemError",
    "Microphone",
    "NoiseBed",
    "Position",
    "SILENCE_DB",
    "SPEED_OF_SOUND",
    "ScheduledTone",
    "SongNoise",
    "Speaker",
    "Spectrum",
    "SpectrumAnalyzer",
    "ToneSpec",
    "amplitude_to_db",
    "band_noise",
    "brown_noise",
    "datacenter_ambience",
    "db_to_amplitude",
    "default_modem_config",
    "dominant_mel_track",
    "goertzel_magnitude",
    "hann_taper",
    "hvac_hum",
    "hz_to_mel",
    "mel_filterbank",
    "mel_spectrogram",
    "mel_to_hz",
    "office_ambience",
    "pink_noise",
    "power_spectrogram",
    "propagation_loss_db",
    "raised_cosine_envelope",
    "read_wav",
    "signalling_ramp",
    "sine_tone",
    "white_noise",
    "write_wav",
]
