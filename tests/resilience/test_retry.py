"""Unit tests for the retry policy and the retrier."""

import errno
import random

import pytest

from repro.obs.events import EventJournal
from repro.resilience.retry import Retrier, RetryPolicy, TRANSIENT_ERRNOS


def make_retrier(policy=None, **kwargs):
    """A retrier with a fake clock and a sleep log — no real time passes."""
    slept = []
    clock = {"now": 0.0}

    def sleep(seconds):
        slept.append(seconds)
        clock["now"] += seconds

    retrier = Retrier(policy, sleep=sleep, clock=lambda: clock["now"], **kwargs)
    return retrier, slept, clock


def test_delays_shape_exponential_capped_jittered():
    policy = RetryPolicy(
        max_attempts=5, base_delay=0.1, multiplier=2.0, max_delay=0.5, jitter=0.0
    )
    assert list(policy.delays(random.Random(0))) == [0.1, 0.2, 0.4, 0.5]
    jittered = RetryPolicy(
        max_attempts=5, base_delay=0.1, multiplier=2.0, max_delay=10.0, jitter=0.25
    )
    for base, actual in zip([0.1, 0.2, 0.4, 0.8], jittered.delays(random.Random(0))):
        assert base <= actual <= base * 1.25


def test_transient_classification():
    for code in TRANSIENT_ERRNOS:
        assert Retrier.is_transient(OSError(code, "x"))
    assert not Retrier.is_transient(OSError(errno.ENOSPC, "full"))
    assert not Retrier.is_transient(ValueError("not an OSError"))


def test_retry_succeeds_after_transient_failures():
    retrier, slept, _ = make_retrier(RetryPolicy(max_attempts=4, jitter=0.0))
    first = OSError(errno.EIO, "flaky")
    calls = {"n": 0}

    def fn():
        calls["n"] += 1
        if calls["n"] < 2:
            raise OSError(errno.EIO, "flaky again")
        return "ok"

    assert retrier.retry(fn, first_error=first, operation="t") == "ok"
    assert calls["n"] == 2
    assert len(slept) == 2  # one backoff per re-attempt


def test_non_transient_error_mid_retry_raises_immediately():
    retrier, _, _ = make_retrier()

    def fn():
        raise OSError(errno.ENOSPC, "disk full")

    with pytest.raises(OSError) as info:
        retrier.retry(fn, first_error=OSError(errno.EIO, "flaky"), operation="t")
    assert info.value.errno == errno.ENOSPC


def test_retry_all_keeps_retrying_non_transient_errors():
    retrier, _, _ = make_retrier(RetryPolicy(max_attempts=4, jitter=0.0))
    calls = {"n": 0}

    def fn():
        calls["n"] += 1
        if calls["n"] < 3:
            raise OSError(errno.ENOSPC, "phantom full")
        return "read"

    result = retrier.retry(
        fn, first_error=OSError(errno.ENOSPC, "phantom full"), retry_all=True
    )
    assert result == "read"
    assert calls["n"] == 3


def test_exhaustion_reraises_the_last_error():
    retrier, slept, _ = make_retrier(RetryPolicy(max_attempts=3, jitter=0.0))
    attempts = []

    def fn():
        attempts.append(1)
        raise OSError(errno.EIO, f"attempt {len(attempts)}")

    with pytest.raises(OSError) as info:
        retrier.retry(fn, first_error=OSError(errno.EIO, "attempt 0"))
    assert "attempt 2" in str(info.value)
    assert len(slept) == 2  # max_attempts - 1 re-attempts


def test_timeout_budget_stops_early():
    policy = RetryPolicy(
        max_attempts=10, base_delay=1.0, multiplier=1.0, max_delay=1.0,
        jitter=0.0, timeout_budget=2.5,
    )
    retrier, slept, _ = make_retrier(policy)

    def fn():
        raise OSError(errno.EIO, "never")

    with pytest.raises(OSError):
        retrier.retry(fn, first_error=OSError(errno.EIO, "first"))
    # Only two 1-second sleeps fit in a 2.5-second budget.
    assert slept == [1.0, 1.0]


def test_retry_outcomes_are_journaled():
    journal = EventJournal()
    retrier, _, _ = make_retrier(RetryPolicy(max_attempts=2, jitter=0.0), journal=journal)
    retrier.retry(lambda: "ok", first_error=OSError(errno.EIO, "x"), operation="op-a")
    with pytest.raises(OSError):
        retrier.retry(
            lambda: (_ for _ in ()).throw(OSError(errno.EIO, "y")),
            first_error=OSError(errno.EIO, "y"),
            operation="op-b",
        )
    events = journal.events(kind="retry")
    outcomes = {e.fields["operation"]: e.fields["outcome"] for e in events}
    assert outcomes == {"op-a": "success", "op-b": "exhausted"}
