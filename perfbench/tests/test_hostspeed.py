"""Host-to-reference time conversion."""

import signal
import time

import pytest

from perfbench.hostspeed import HostSpeed


def with_samples(*samples):
    speed = HostSpeed()
    speed.samples = list(samples)
    return speed


def test_without_samples_reference_time_is_host_time():
    speed = HostSpeed()
    assert speed.reference_s(10.0, 12.5) == 2.5
    assert speed.mean_slowness() == 1.0


def test_constant_slowness_divides_and_calibration_is_left_out():
    # Samples at [1, 2] and [5, 6], both twice as slow as the reference.
    speed = with_samples((1.0, 2.0, 2.0), (5.0, 6.0, 2.0))
    assert speed.reference_s(0.0, 8.0) == pytest.approx(3.0)
    # A window inside one gap between samples.
    assert speed.reference_s(3.0, 4.0) == pytest.approx(0.5)


def test_time_before_the_first_and_after_the_last_sample_is_scaled_too():
    speed = with_samples((0.0, 1.0, 4.0), (3.0, 4.0, 4.0))
    assert speed.reference_s(-1.0, 0.0) == pytest.approx(0.25)
    assert speed.reference_s(4.0, 8.0) == pytest.approx(1.0)


def test_one_outlier_sample_does_not_decide_its_gaps():
    samples = [(2.0 * i, 2.0 * i + 1.0, 1.0) for i in range(7)]
    samples[3] = (6.0, 7.0, 50.0)
    speed = with_samples(*samples)
    assert speed.reference_s(5.0, 8.0) == pytest.approx(2.0)


def test_timer_takes_samples_and_restores_the_signal():
    speed = HostSpeed()
    speed.start()
    try:
        end = time.monotonic() + 0.35
        while time.monotonic() < end:
            pass
    finally:
        speed.stop()
    assert len(speed.samples) >= 2
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_a_logged_sample_reaches_another_process_through_its_log(tmp_path):
    log = tmp_path / "speed.log"
    speed = HostSpeed(log=log)
    speed._tick()
    speed._tick()
    assert HostSpeed.load(log).samples == speed.samples
