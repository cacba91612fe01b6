"""Terminal visualization: the figures, in ASCII.

The paper's artifacts are plots — queue traces, byte counters, mel
spectrograms.  This module renders their text equivalents so the
examples and the CLI can *show* the shapes, not just assert them, in
any terminal with no plotting dependency.
"""

from __future__ import annotations

import numpy as np

#: Intensity ramp used by sparklines and heatmaps, quiet to loud.
RAMP = " .:-=+*#%@"


def sparkline(values, width: int = 60, peak: float | None = None) -> str:
    """One-line intensity plot of a numeric sequence.

    ``peak`` pins the scale (defaults to the data's own maximum); the
    sequence is decimated to at most ``width`` characters.
    """
    values = list(values)
    if not values:
        return ""
    top = peak if peak is not None else max(values)
    if top <= 0:
        return RAMP[0] * min(len(values), width)
    step = max(1, len(values) // width)
    chars = []
    for index in range(0, len(values), step):
        level = int(min(max(values[index] / top, 0.0), 1.0) * (len(RAMP) - 1))
        chars.append(RAMP[level])
    return "".join(chars)


def spectrogram_heatmap(
    times: np.ndarray,
    frequencies: np.ndarray,
    magnitudes: np.ndarray,
    height: int = 12,
    width: int = 64,
    db_floor: float = -60.0,
) -> str:
    """An ASCII heatmap of a (mel) spectrogram.

    Frequency runs bottom (low) to top (high), time left to right;
    intensity is dB relative to the strongest cell, clipped at
    ``db_floor``.
    """
    if len(times) == 0 or magnitudes.size == 0:
        return "(empty spectrogram)"
    # Resample onto the character grid.
    time_index = np.linspace(0, len(times) - 1, min(width, len(times)))
    freq_index = np.linspace(0, magnitudes.shape[1] - 1,
                             min(height, magnitudes.shape[1]))
    grid = magnitudes[time_index.astype(int)][:, freq_index.astype(int)]
    peak = max(float(grid.max()), 1e-15)
    levels_db = 20.0 * np.log10(np.maximum(grid, 1e-15) / peak)
    normalized = np.clip((levels_db - db_floor) / -db_floor, 0.0, 1.0)
    lines = []
    for column in range(normalized.shape[1] - 1, -1, -1):
        frequency = frequencies[int(freq_index[column])]
        cells = "".join(
            RAMP[int(value * (len(RAMP) - 1))]
            for value in normalized[:, column]
        )
        lines.append(f"{frequency:>7.0f} Hz |{cells}")
    lines.append(" " * 11 + "+" + "-" * normalized.shape[0])
    lines.append(" " * 12 + f"t = {times[0]:.1f} s ... {times[-1]:.1f} s")
    return "\n".join(lines)
