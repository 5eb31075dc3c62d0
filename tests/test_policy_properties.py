"""Property-based tests (hypothesis) for wait schedules and decoder lookup."""

from hypothesis import given, settings, strategies as st

from repro.simulation import linear_rampup


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
