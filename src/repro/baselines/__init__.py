"""Comparator implementations the paper positions itself against."""

from .ecn import ECNMarker, ECNReceiver, ECNSourceObserver, EchoRecord
from .inband import (
    MANAGEMENT_PORT,
    HeartbeatMonitor,
    HeartbeatSender,
    HeartbeatStats,
)
from .red import REDMarker
from .sketch import CountMinSketch, SketchHeavyHitterDetector

__all__ = [
    "CountMinSketch",
    "ECNMarker",
    "ECNReceiver",
    "ECNSourceObserver",
    "EchoRecord",
    "HeartbeatMonitor",
    "HeartbeatSender",
    "HeartbeatStats",
    "MANAGEMENT_PORT",
    "REDMarker",
    "SketchHeavyHitterDetector",
]
