"""The columnar :meth:`ToneEventBus.dispatch` against the per-presence
reference loop (``tests/core/reference_bus.py``).

Both buses get the same subscribers and the same pushes, across
several ``dispatch()`` calls; every detection, onset and window
callback, with its arguments and in its order, the return values and
the dispatch counters must be equal.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audio.detector import DetectionEvent
from repro.core.telemetry import ToneEventBus
from tests.core.reference_bus import ReferenceToneEventBus

WINDOWS = (0.1, 0.05, 1 / 30, 0.25, 0.3)
#: The first four are watched; 1060 Hz never is.
FREQUENCIES = (1_000.0, 1_020.0, 1_040.0, 1_050.0, 1_060.0)


def _time(slot: int, where: str, frac: float, window: float) -> float:
    edge = slot * window
    if where == "edge":
        return edge
    if where == "below":
        return max(float(np.nextafter(edge, -np.inf)), 0.0)
    return (slot + frac) * window


presence = st.tuples(
    st.integers(0, 30), st.sampled_from(("edge", "below", "in")),
    st.floats(0.0, 0.999), st.sampled_from(FREQUENCIES),
)
#: One dispatch call: its pushes, each a single ``push`` or a batch.
call = st.lists(st.tuples(st.booleans(), st.lists(presence, min_size=1,
                                                  max_size=12)),
                max_size=5)
subscriptions = st.lists(
    st.tuples(st.lists(st.sampled_from(FREQUENCIES[:4]), min_size=1,
                       max_size=4, unique=True),
              st.sampled_from(("detection", "onset", "both"))),
    max_size=4,
)


def _subscribe(bus, subs, num_window_subscribers, log):
    for index, (frequencies, kind) in enumerate(subs):
        def detection(event, index=index):
            log.append(("detection", index, type(event), event))

        def onset(event, index=index):
            log.append(("onset", index, type(event), event))

        bus.watch(frequencies,
                  on_detection=detection if kind != "onset" else None,
                  on_onset=onset if kind != "detection" else None)
    for index in range(num_window_subscribers):
        bus.on_window(lambda events, end, index=index: log.append(
            ("window", index, [type(e) for e in events], list(events), end)))


def _run(cls, window, subs, num_window_subscribers, calls, level_db):
    bus = cls(window=window)
    log = []
    _subscribe(bus, subs, num_window_subscribers, log)
    returns = []
    for pushes in calls:
        for batched, presences in pushes:
            times = [_time(s, w, f, window) for s, w, f, _freq in presences]
            frequencies = [freq for *_rest, freq in presences]
            if batched:
                bus.push_batch(np.asarray(frequencies), np.asarray(times))
            else:
                for frequency, time in zip(frequencies, times):
                    bus.push(frequency, time)
        returns.append(bus.dispatch(level_db))
        log.append(("counters", bus.events_dispatched,
                    bus.windows_dispatched))
    return log, returns


@settings(max_examples=200, deadline=None)
@given(window=st.sampled_from(WINDOWS), subs=subscriptions,
       num_window_subscribers=st.integers(0, 2),
       calls=st.lists(call, min_size=1, max_size=4),
       level_db=st.sampled_from((70.0, 55.5)))
def test_dispatch_matches_reference(window, subs, num_window_subscribers,
                                    calls, level_db):
    """Duplicate presences, gaps, out-of-order pushes (within a call
    and across calls, where onset suppression carries over), unwatched
    frequencies and empty calls."""
    got = _run(ToneEventBus, window, subs, num_window_subscribers, calls,
               level_db)
    want = _run(ReferenceToneEventBus, window, subs, num_window_subscribers,
                calls, level_db)
    assert got == want
    for entry in got[0]:
        if entry[0] in ("detection", "onset"):
            assert entry[2] is DetectionEvent
        elif entry[0] == "window":
            assert set(entry[2]) <= {DetectionEvent}
