"""The benchmark's span recorder: self-time arithmetic, wrapping and clean-up."""

import sys
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import curvecast  # noqa: E402
import curvecast.cli  # noqa: E402
import curvecast.evalharness  # noqa: E402
import curvecast.sieve  # noqa: E402
import curvecast.updating  # noqa: E402
import spans  # noqa: E402


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def _span(rec, clock, name, start, end, body=None):
    clock.t = start
    frame = rec.enter(name)
    if body:
        body()
    clock.t = end
    rec.exit(frame)


def test_one_child():
    clock = FakeClock()
    rec = spans.Recorder(clock)
    _span(rec, clock, "sieve.sieve_prediction", 0, 10,
          lambda: _span(rec, clock, "sieve.draw_replicates", 1, 3))
    parent = rec.stats["sieve.sieve_prediction"]
    child = rec.stats["sieve.draw_replicates"]
    assert (parent.calls, parent.busy_s, parent.self_s) == (1, 10, 8)
    assert (child.calls, child.busy_s, child.self_s) == (1, 2, 2)


def test_two_siblings():
    clock = FakeClock()
    rec = spans.Recorder(clock)

    def body():
        _span(rec, clock, "sieve.empirical_quantile", 1, 3)
        _span(rec, clock, "sieve.empirical_quantile", 4, 7)

    _span(rec, clock, "sieve.sieve_prediction", 0, 10, body)
    parent = rec.stats["sieve.sieve_prediction"]
    child = rec.stats["sieve.empirical_quantile"]
    assert parent.self_s == 10 - 2 - 3
    assert (child.calls, child.busy_s, child.self_s) == (2, 5, 5)


def test_recursive_call_counts_busy_once():
    clock = FakeClock()
    rec = spans.Recorder(clock)

    def inner():
        _span(rec, clock, "cli.main", 2, 6,
              lambda: _span(rec, clock, "gridcurves.read_price_csv", 3, 4))

    _span(rec, clock, "cli.main", 0, 10, inner)
    outer = rec.stats["cli.main"]
    assert outer.calls == 2
    assert outer.busy_s == 10          # the inner call lies inside the outer one
    assert outer.self_s == (10 - 4) + (4 - 1)
    total_self = sum(st.self_s for st in rec.stats.values())
    assert total_self == 10            # self times partition the root span


def test_warnings_are_charged_to_the_innermost_layer():
    clock = FakeClock()
    rec = spans.Recorder(clock)
    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        rec.warning_log = log

        def body():
            warnings.warn("early")
            _span(rec, clock, "updating.flr_fit", 1, 2, lambda: warnings.warn("singular"))
            warnings.warn("late")

        warnings.warn("before")
        _span(rec, clock, "evalharness.run_backtest", 0, 3, body)
        warnings.warn("after")
        rec.finish()
    assert rec.warnings["updating"] == 1
    assert rec.warnings["evalharness"] == 2
    assert rec.warnings["outside"] == 2
    assert len(log) == 5


def test_install_wraps_every_import_site_and_uninstall_restores():
    before = spans.attribute_snapshot()
    original = curvecast.sieve.draw_replicates
    rec = spans.Recorder()
    patches = spans.install(rec)
    try:
        wrapped = curvecast.sieve.draw_replicates
        assert wrapped is not original
        assert curvecast.updating.draw_replicates is wrapped
        assert curvecast.draw_replicates is wrapped
        assert curvecast.evalharness.updating_columns is curvecast.updating.updating_columns
        curvecast.evalharness.updating_columns(75, 10)
        assert rec.stats["updating.updating_columns"].calls == 1
        names = spans.public_functions("curvecast").values()
        assert not any(name.startswith("datagen.") for name in names)
    finally:
        spans.uninstall(patches)
    assert spans.attribute_snapshot() == before
    assert curvecast.sieve.draw_replicates is original


def test_memory_peak_is_replayed_outside_the_spans():
    rec = spans.Recorder()
    patches = spans.install(rec, memory=("updating.updating_columns",))
    try:
        curvecast.updating.updating_columns(75, 10)
        curvecast.updating.updating_columns(75, 20)
    finally:
        spans.uninstall(patches)
    spans.replay_peaks(rec)
    st = rec.stats["updating.updating_columns"]
    assert st.calls == 2
    assert st.peak_alloc_bytes > 0
