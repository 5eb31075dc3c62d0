"""Property-based tests (hypothesis) for wait policies and schedules."""

from hypothesis import given, settings, strategies as st

from repro.simulation import BestEffortWaitForK, WaitForK, linear_rampup


@st.composite
def arrival_maps(draw, max_workers=12):
    n = draw(st.integers(min_value=1, max_value=max_workers))
    times = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=100.0,
                      allow_nan=False, allow_infinity=False),
            min_size=n, max_size=n,
        )
    )
    return {w: t for w, t in enumerate(times)}


class TestBestEffortEquivalence:
    """BestEffortWaitForK only differs from WaitForK when fewer than
    ``k`` workers report; with ``>= k`` arrivals the two are the same
    policy."""

    @settings(max_examples=200)
    @given(arrivals=arrival_maps(), k=st.integers(min_value=1, max_value=12))
    def test_identical_when_enough_arrivals(self, arrivals, k):
        if len(arrivals) < k:
            return
        strict = WaitForK(k).wait(arrivals, step=0)
        best = BestEffortWaitForK(k).wait(arrivals, step=0)
        assert best.accepted_workers == strict.accepted_workers
        assert best.proceed_time == strict.proceed_time

    @settings(max_examples=100)
    @given(arrivals=arrival_maps(max_workers=6))
    def test_accepts_everyone_when_short(self, arrivals):
        k = len(arrivals) + 3
        out = BestEffortWaitForK(k).wait(arrivals, step=0)
        assert out.accepted_workers == frozenset(arrivals)
        assert out.proceed_time == max(arrivals.values())


class TestLinearRampupProperties:
    @settings(max_examples=200)
    @given(
        start_k=st.integers(min_value=1, max_value=50),
        end_k=st.integers(min_value=1, max_value=50),
        over_steps=st.integers(min_value=1, max_value=200),
        step=st.integers(min_value=0, max_value=400),
    )
    def test_monotone_and_bounded(self, start_k, end_k, over_steps, step):
        sched = linear_rampup(start_k, end_k, over_steps)
        lo, hi = sorted((start_k, end_k))
        assert lo <= sched(step) <= hi
        # Monotone in the ramp direction, step to step.
        delta = sched(step + 1) - sched(step)
        if end_k >= start_k:
            assert delta >= 0
        else:
            assert delta <= 0

    @settings(max_examples=100)
    @given(
        start_k=st.integers(min_value=1, max_value=50),
        end_k=st.integers(min_value=1, max_value=50),
        over_steps=st.integers(min_value=1, max_value=200),
    )
    def test_exact_endpoints(self, start_k, end_k, over_steps):
        sched = linear_rampup(start_k, end_k, over_steps)
        assert sched(0) == start_k
        assert sched(over_steps) == end_k
        assert sched(over_steps + 1000) == end_k


class TestDecoderForErrors:
    def test_unknown_scheme_falls_back_to_exact(self):
        from repro.core import ExplicitPlacement
        from repro.core.decoders import decoder_for

        placement = ExplicitPlacement.from_rows([[0, 1], [1, 2], [2, 0]])
        decoder = decoder_for(placement)
        assert decoder.scheme == "exact"
        result = decoder.decode([0, 1, 2])
        assert result.num_recovered >= 1
