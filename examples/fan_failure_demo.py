#!/usr/bin/env python3
"""Server fan failure detection (paper Section 7, Figures 6–7).

A microphone sits 30 cm from a server in a loud datacenter aisle (and,
for contrast, 50 cm from the same server in a quiet office).  A
watchdog learns the healthy FFT amplitude profile, then scores every
new sample's amplitude difference against it.  When the fan bank loses
power mid-run, the blade-pass harmonics vanish and the score jumps
across the threshold — the out-of-band failure alert fires seconds
later, with no packet ever sent.

Run:  python examples/fan_failure_demo.py
"""

from repro.experiments import fan_failure_experiment, fan_spectrogram_panel


def spectrogram_summary() -> None:
    print("=" * 64)
    print("Figure 6: is the fan audible over the room? (blade-pass line)")
    print("=" * 64)
    print(f"  {'room':>10}  {'fan':>4}  {'line dB':>8}  {'floor dB':>9}  "
          f"{'prominence':>10}")
    for room in ("datacenter", "office"):
        for fan_on in (True, False):
            panel = fan_spectrogram_panel(room, fan_on)
            print(f"  {room:>10}  {'ON' if fan_on else 'OFF':>4}  "
                  f"{panel.blade_line_level_db:>8.1f}  "
                  f"{panel.noise_floor_db:>9.1f}  "
                  f"{panel.line_prominence_db:>9.1f} dB")


def failure_detection() -> None:
    print()
    print("=" * 64)
    print("Figure 7: amplitude-difference failure detection")
    print("=" * 64)
    for room in ("datacenter", "office"):
        result = fan_failure_experiment(room=room)
        print(f"\n[{room}]  fan bank loses power at "
              f"t = {result.failure_time:.0f} s")
        print(f"  {'t (s)':>6}  {'score':>8}")
        for time, score in zip(result.scores.times, result.scores.values):
            flag = ""
            if result.detection_time and abs(time - result.detection_time) < 0.01:
                flag = "  <- ALERT (threshold "
                flag += f"{result.threshold:.1f})"
            print(f"  {time:>6.1f}  {score:>8.1f}{flag}")
        print(f"  on-on max {result.on_on_max_score:.1f}  vs  "
              f"on-off min {result.on_off_min_score:.1f}  "
              f"(separation {result.separation_ratio:.1f}x)")
        assert result.detected


def main() -> None:
    spectrogram_summary()
    failure_detection()


if __name__ == "__main__":
    main()
