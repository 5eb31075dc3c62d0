"""Cross-module property-based tests (hypothesis).

These check the library-wide invariants that individual unit tests
can't cover exhaustively: linearity of the coding layer, placement
symmetries, recovery monotonicity, and policy laws.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    CyclicRepetition,
    FractionalRepetition,
    HybridRepetition,
    SummationCode,
    alpha_lower_bound,
    alpha_upper_bound,
    conflict_graph,
    decoder_for,
    hr_alpha_bounds,
)
from repro.graphs import independence_number
from repro.simulation import DeadlinePolicy, WaitForK


# ----------------------------------------------------------------------
# Hypothesis strategies for placements
# ----------------------------------------------------------------------
@st.composite
def cr_placements(draw, max_n=14):
    n = draw(st.integers(min_value=2, max_value=max_n))
    c = draw(st.integers(min_value=1, max_value=n))
    return CyclicRepetition(n, c)


@st.composite
def fr_placements(draw, max_n=12):
    n = draw(st.integers(min_value=2, max_value=max_n))
    divisors = [c for c in range(1, n + 1) if n % c == 0]
    c = draw(st.sampled_from(divisors))
    return FractionalRepetition(n, c)


@st.composite
def hr_placements(draw):
    params = draw(st.sampled_from([
        (8, 3, 1, 2), (8, 2, 2, 2), (8, 1, 3, 2), (12, 3, 1, 3),
        (12, 2, 2, 3), (16, 2, 2, 4), (10, 4, 1, 2), (12, 4, 0, 2),
    ]))
    return HybridRepetition(*params)


any_placement = st.one_of(cr_placements(), fr_placements(), hr_placements())


# ----------------------------------------------------------------------
# Coding linearity
# ----------------------------------------------------------------------
class TestCodingLinearity:
    @given(cr_placements(max_n=10), st.integers(min_value=0, max_value=999))
    @settings(max_examples=50, deadline=None)
    def test_encode_is_linear(self, placement, seed):
        """encode(a·g + b·h) == a·encode(g) + b·encode(h) per worker."""
        rng = np.random.default_rng(seed)
        n = placement.num_workers
        code = SummationCode(placement)
        g = {p: rng.normal(size=4) for p in range(n)}
        h = {p: rng.normal(size=4) for p in range(n)}
        a, b = 2.5, -1.25
        combined = {p: a * g[p] + b * h[p] for p in range(n)}
        enc_combined = code.encode(combined)
        enc_g = code.encode(g)
        enc_h = code.encode(h)
        for w in range(n):
            np.testing.assert_allclose(
                enc_combined[w], a * enc_g[w] + b * enc_h[w], atol=1e-9
            )

    @given(cr_placements(max_n=10), st.integers(min_value=0, max_value=999))
    @settings(max_examples=50, deadline=None)
    def test_zero_gradients_encode_to_zero(self, placement, seed):
        n = placement.num_workers
        code = SummationCode(placement)
        payloads = code.encode({p: np.zeros(3) for p in range(n)})
        for w in range(n):
            np.testing.assert_array_equal(payloads[w], np.zeros(3))


# ----------------------------------------------------------------------
# Placement symmetries
# ----------------------------------------------------------------------
class TestPlacementSymmetry:
    @given(cr_placements())
    @settings(max_examples=60, deadline=None)
    def test_cr_is_rotation_invariant(self, placement):
        """Shifting every worker index by 1 permutes partitions by 1."""
        n = placement.num_workers
        for worker in range(n):
            shifted = {
                (p + 1) % n for p in placement.partitions_of(worker)
            }
            assert shifted == set(placement.partitions_of((worker + 1) % n))

    @given(any_placement)
    @settings(max_examples=60, deadline=None)
    def test_conflict_is_symmetric(self, placement):
        n = placement.num_workers
        for a in range(n):
            for b in range(n):
                assert placement.conflicts(a, b) == placement.conflicts(b, a)

    @given(any_placement)
    @settings(max_examples=60, deadline=None)
    def test_replication_is_exactly_c(self, placement):
        for p in range(placement.num_partitions):
            assert len(placement.workers_of(p)) == placement.partitions_per_worker


# ----------------------------------------------------------------------
# Decoding monotonicity and bounds
# ----------------------------------------------------------------------
class TestDecodingLaws:
    @given(
        any_placement,
        st.integers(min_value=0, max_value=999),
    )
    @settings(max_examples=80, deadline=None)
    def test_alpha_within_bounds_on_random_subsets(self, placement, seed):
        """FR/CR use the printed Theorem 10/11 bounds; HR uses the
        corrected group-aware bounds (the printed ones fail for HR with
        n0 > c — see TestTheorem10HREdgeCase)."""
        rng = np.random.default_rng(seed)
        n = placement.num_workers
        c = placement.partitions_per_worker
        w = int(rng.integers(1, n + 1))
        subset = rng.choice(n, size=w, replace=False).tolist()
        alpha = independence_number(conflict_graph(placement), subset)
        if isinstance(placement, HybridRepetition):
            lo, hi = hr_alpha_bounds(
                n, placement.c1, placement.c2, placement.num_groups, w
            )
        else:
            lo, hi = alpha_lower_bound(n, c, w), alpha_upper_bound(n, c, w)
        assert lo <= alpha <= hi

    @given(
        cr_placements(max_n=12),
        st.integers(min_value=0, max_value=999),
    )
    @settings(max_examples=60, deadline=None)
    def test_recovery_monotone_under_set_growth(self, placement, seed):
        """Adding an available worker never shrinks optimal recovery."""
        rng = np.random.default_rng(seed)
        n = placement.num_workers
        w = int(rng.integers(1, n))
        subset = set(rng.choice(n, size=w, replace=False).tolist())
        extra = int(rng.choice(sorted(set(range(n)) - subset)))
        decoder = decoder_for(placement, rng=rng)
        small = decoder.decode(sorted(subset)).num_recovered
        big = decoder.decode(sorted(subset | {extra})).num_recovered
        assert big >= small

    @given(
        any_placement,
        st.integers(min_value=0, max_value=999),
    )
    @settings(max_examples=60, deadline=None)
    def test_decode_idempotent_given_same_rng_state(self, placement, seed):
        n = placement.num_workers
        rng = np.random.default_rng(seed)
        w = int(rng.integers(1, n + 1))
        subset = sorted(rng.choice(n, size=w, replace=False).tolist())
        a = decoder_for(placement, rng=np.random.default_rng(seed)).decode(subset)
        b = decoder_for(placement, rng=np.random.default_rng(seed)).decode(subset)
        assert a.selected_workers == b.selected_workers


# ----------------------------------------------------------------------
# Policy laws
# ----------------------------------------------------------------------
class TestPolicyLaws:
    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=15),
            st.floats(min_value=0.0, max_value=100.0,
                      allow_nan=False, allow_infinity=False),
            min_size=1, max_size=16,
        ),
        st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=100, deadline=None)
    def test_wait_k_accepts_exactly_k_fastest(self, arrivals, k):
        if k > len(arrivals):
            return
        outcome = WaitForK(k).wait(arrivals, step=0)
        assert len(outcome.accepted_workers) == k
        accepted_times = [arrivals[w] for w in outcome.accepted_workers]
        rejected_times = [
            arrivals[w] for w in arrivals if w not in outcome.accepted_workers
        ]
        if rejected_times:
            assert max(accepted_times) <= min(rejected_times)
        assert outcome.proceed_time == pytest.approx(max(accepted_times))

    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=15),
            st.floats(min_value=0.0, max_value=100.0,
                      allow_nan=False, allow_infinity=False),
            min_size=1, max_size=16,
        ),
        st.floats(min_value=0.0, max_value=120.0,
                  allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_deadline_never_accepts_late_arrivals_beyond_first(
        self, arrivals, deadline
    ):
        outcome = DeadlinePolicy(deadline).wait(arrivals, step=0)
        assert outcome.accepted_workers
        late = [w for w in outcome.accepted_workers if arrivals[w] > deadline]
        # Only the nobody-made-it fallback may accept one late worker.
        assert len(late) <= 1
        if late:
            assert len(outcome.accepted_workers) == 1
