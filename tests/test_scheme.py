"""Tests for :mod:`repro.core.scheme` — the unified placement layer.

Three layers of pinning:

* **Golden equivalence** — ``tests/golden/placement_schemes.json`` was
  recorded from the pre-registry direct constructors (see
  ``tests/golden/record_placement_goldens.py``); every family built by
  registry name must reproduce its fingerprints and per-seed decode
  selections bit for bit, proving the refactor is behaviour-neutral.
* **Protocol/registry unit tests** — lookup, aliases, did-you-mean
  errors, coercion, scheme recovery, per-family parameter validation,
  and spec-engine integration (every family constructible from an
  ``ExperimentSpec`` via the generic ``is-gc`` scheme).
* **Hypothesis properties** — each family's ``recovery_bounds(w)``
  brackets the exact-MIS recovered-partition count (Theorems 10/11),
  and CR's fast-path conflict graph equals the Theorem 1 circulant
  ``C_n^{1..c-1}`` across randomized ``(n, c)``.
"""

import dataclasses
import importlib
import json
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes.comm_efficient import (
    CommEfficientGC,
    comm_efficient_problems,
)
from repro.core.batch import circulant_adjacency
from repro.core.conflict import conflict_graph
from repro.core.cyclic import CyclicRepetition
from repro.core.decoders import decoder_for
from repro.core.exact_decoder import ExactDecoder
from repro.core.fractional import FractionalRepetition
from repro.core.hybrid import HybridRepetition
from repro.core.migration import migration_plan
from repro.core.placement import Placement
from repro.core.scheme import (
    PLACEMENT_REGISTRY,
    CRScheme,
    FRScheme,
    HRScheme,
    PlacementScheme,
    as_placement,
    make_placement,
    placement_scheme,
    placement_spec_problems,
    registered_placements,
    scheme_for,
)
from repro.engine import ExperimentSpec, run_spec
from repro.engine.spec import make_strategy
from repro.env import Environment
from repro.exceptions import CodingError, ConfigurationError, PlacementError
from repro.graphs import Graph

GOLDEN_PATH = (
    pathlib.Path(__file__).parent / "golden" / "placement_schemes.json"
)
GOLDEN = json.loads(GOLDEN_PATH.read_text())


def pairwise_conflicts(placement: Placement) -> Graph:
    """The conflict graph pair by pair from ``Placement.conflicts``
    (shared partitions as sets), beside the ``P @ Pᵀ`` builder."""
    n = placement.num_workers
    return Graph([
        [a != b and placement.conflicts(a, b) for b in range(n)]
        for a in range(n)
    ])


def golden_id(case):
    return f"{case['family']}-{case['fingerprint'][:8]}"


# ----------------------------------------------------------------------
# Golden equivalence: registry construction == pre-port constructors.


@pytest.mark.parametrize("case", GOLDEN["cases"], ids=golden_id)
class TestGoldenEquivalence:
    def test_fingerprint_and_scheme_name_match(self, case):
        placement = make_placement(case["family"], **case["params"])
        assert placement.fingerprint == case["fingerprint"]
        assert placement.scheme == case["scheme"]

    def test_scheme_level_fingerprint_matches(self, case):
        scheme = placement_scheme(case["family"], **case["params"])
        assert scheme.fingerprint() == case["fingerprint"]

    def test_decode_selections_match(self, case):
        placement = make_placement(case["family"], **case["params"])
        for d in case["decodes"]:
            decoder = decoder_for(
                placement, rng=np.random.default_rng(d["seed"])
            )
            result = decoder.decode(d["available"])
            assert sorted(result.selected_workers) == d["selected"], (
                f"{case['family']} seed={d['seed']} "
                f"available={d['available']}"
            )

    def test_fast_path_conflict_graph_matches_ground_truth(self, case):
        scheme = placement_scheme(case["family"], **case["params"])
        assert scheme.conflict_graph() == pairwise_conflicts(
            scheme.construct()
        )


def test_golden_covers_every_registered_family():
    covered = {case["family"] for case in GOLDEN["cases"]}
    assert covered == set(registered_placements())


# ----------------------------------------------------------------------
# Registry mechanics.


class TestRegistry:
    def test_canonical_families(self):
        assert registered_placements() == [
            "cr", "explicit", "fr", "hetero", "hr",
        ]

    def test_aliases_resolve_to_same_class(self):
        from repro.core.scheme import resolve_placement

        for alias, canonical in (
            ("fractional", "fr"), ("cyclic", "cr"), ("hybrid", "hr"),
            ("table", "explicit"), ("heterogeneous", "hetero"),
        ):
            assert resolve_placement(alias) is PLACEMENT_REGISTRY[canonical]

    @pytest.mark.parametrize("family", ["fr", "cr", "hr"])
    def test_paper_cites_its_decoders_algorithm(self, family):
        """``paper`` names the algorithm the decoder module's docstring
        opens with (FR Alg. 1, CR Alg. 2, HR Alg. 3)."""
        module = importlib.import_module(f"repro.core.{family}_decoder")
        algorithm = re.search(r"Alg\. \d", module.__doc__.splitlines()[0])
        assert f"decoder {algorithm.group()}" in PLACEMENT_REGISTRY[family].paper

    def test_alias_lookup_matches_canonical(self):
        via_alias = make_placement(
            "cyclic", num_workers=6, partitions_per_worker=2
        )
        via_name = make_placement(
            "cr", num_workers=6, partitions_per_worker=2
        )
        assert via_alias.fingerprint == via_name.fingerprint

    def test_unknown_family_did_you_mean(self):
        with pytest.raises(ConfigurationError) as err:
            make_placement("cyclc", num_workers=8)
        msg = str(err.value)
        assert "did you mean 'cyclic'" in msg
        assert "registered families" in msg

    def test_unknown_family_without_close_match(self):
        with pytest.raises(ConfigurationError) as err:
            make_placement("zzzzzz", num_workers=8)
        assert "registered families" in str(err.value)

    def test_non_string_family_rejected(self):
        with pytest.raises(ConfigurationError, match="must be a string"):
            make_placement(42, num_workers=8)

    def test_bad_params_name_the_family_and_accepted(self):
        with pytest.raises(ConfigurationError) as err:
            placement_scheme("fr", num_workers=6, bogus=3)
        msg = str(err.value)
        assert "'fr'" in msg
        assert "accepted:" in msg
        assert "partitions_per_worker" in msg
        assert "base family" not in msg

    @pytest.mark.parametrize("family", ["hetero"])
    def test_forwarding_families_name_no_catch_all(self, family):
        # Their ``**base_params`` is not a keyword anyone can pass.
        from repro.core.scheme import placement_params

        assert "base_params" not in placement_params(family)
        with pytest.raises(ConfigurationError) as err:
            make_placement(family, partitions_per_worker=2)
        msg = str(err.value)
        assert "base_params" not in msg
        assert msg.endswith("; other keys go to the base family")

    def test_constraint_violations_stay_placement_errors(self):
        # Same type and message as the direct constructor raised.
        with pytest.raises(PlacementError) as via_registry:
            make_placement("fr", num_workers=8, partitions_per_worker=3)
        with pytest.raises(PlacementError) as direct:
            FractionalRepetition(8, 3)
        assert str(via_registry.value) == str(direct.value)

    def test_duplicate_registration_rejected(self):
        from repro.core.scheme import register_placement

        with pytest.raises(ConfigurationError, match="already registered"):
            @register_placement("fr")
            class Dup(PlacementScheme):  # pragma: no cover - rejected
                def _construct(self):
                    raise AssertionError

    def test_alias_cannot_hijack_a_registered_family(self):
        from repro.core.scheme import register_placement, resolve_placement

        for claimed in ("fr", "fractional"):
            with pytest.raises(ConfigurationError, match="already registered"):
                @register_placement("brand-new", aliases=(claimed,))
                class Hijack(PlacementScheme):  # pragma: no cover - rejected
                    def _construct(self):
                        raise AssertionError
        assert resolve_placement("fr") is resolve_placement("fractional")
        assert resolve_placement("fr") is PLACEMENT_REGISTRY["fr"]
        assert "brand-new" not in PLACEMENT_REGISTRY

    def test_hr_conflict_graph_is_the_ground_truth_builder(self):
        """No family overrides the one ground-truth builder — HR's
        Alg. 4 predicate and CR's Theorem 1 circulant are held to it in
        tests/test_conflict.py instead."""
        for family in registered_placements():
            scheme_cls = PLACEMENT_REGISTRY[family]
            assert scheme_cls.conflict_graph is PlacementScheme.conflict_graph


# ----------------------------------------------------------------------
# Protocol behaviour.


class TestProtocol:
    def test_construct_is_cached(self):
        scheme = placement_scheme(
            "cr", num_workers=6, partitions_per_worker=2
        )
        assert scheme.construct() is scheme.construct()

    def test_as_placement_coerces_both_levels(self):
        scheme = placement_scheme(
            "cr", num_workers=6, partitions_per_worker=2
        )
        assert as_placement(scheme) is scheme.construct()
        placement = scheme.construct()
        assert as_placement(placement) is placement
        with pytest.raises(ConfigurationError, match="PlacementScheme"):
            as_placement("not a placement")

    def test_decoder_for_accepts_a_scheme(self):
        scheme = placement_scheme(
            "cr", num_workers=6, partitions_per_worker=2
        )
        direct = decoder_for(
            scheme.construct(), rng=np.random.default_rng(0)
        )
        via_scheme = decoder_for(scheme, rng=np.random.default_rng(0))
        assert (
            sorted(via_scheme.decode(range(6)).selected_workers)
            == sorted(direct.decode(range(6)).selected_workers)
        )

    def test_migration_plan_accepts_schemes(self):
        source = placement_scheme(
            "cr", num_workers=6, partitions_per_worker=2
        )
        target = placement_scheme(
            "fr", num_workers=6, partitions_per_worker=2
        )
        via_schemes = migration_plan(source, target)
        via_placements = migration_plan(
            source.construct(), target.construct()
        )
        assert via_schemes == via_placements

    def test_scheme_for_recovers_families(self):
        for placement, family in (
            (FractionalRepetition(6, 2), "fr"),
            (CyclicRepetition(6, 2), "cr"),
            (HybridRepetition(12, 2, 1, 3), "hr"),
        ):
            scheme = scheme_for(placement)
            assert scheme.family == family
            # The wrapper reuses the placement: cache keys unchanged.
            assert scheme.construct() is placement

    def test_scheme_for_unknown_type_falls_back_to_explicit(self):
        class OddPlacement(Placement):
            scheme = "odd"

            def __init__(self):
                super().__init__(2, 1)
                self._finalize({0: (0,), 1: (1,)})

        odd = OddPlacement()
        scheme = scheme_for(odd)
        assert scheme.family == "explicit"
        assert scheme.construct() is odd

    def test_describe_names_family_and_paper(self):
        text = placement_scheme(
            "cr", num_workers=6, partitions_per_worker=2
        ).describe()
        assert text.startswith("[cr]")
        assert "paper:" in text
        assert "CyclicRepetition(n=6, c=2)" in text

    def test_default_bounds_validate_w(self):
        scheme = placement_scheme(
            "explicit", rows=[[0, 1], [1, 2], [2, 0]]
        )
        assert scheme.recovery_bounds(0) == (0, 0)
        with pytest.raises(ValueError, match="0 <= w <= n"):
            scheme.recovery_bounds(4)

    def test_hr_partitions_per_worker_cross_check(self):
        # Agreement accepted, disagreement rejected.
        placement_scheme(
            "hr", num_workers=12, c1=2, c2=1, num_groups=3,
            partitions_per_worker=3,
        )
        with pytest.raises(ConfigurationError, match="make them agree"):
            placement_scheme(
                "hr", num_workers=12, c1=2, c2=1, num_groups=3,
                partitions_per_worker=2,
            )

    def test_explicit_needs_exactly_one_table_form(self):
        with pytest.raises(ConfigurationError, match="exactly one"):
            placement_scheme("explicit")
        with pytest.raises(ConfigurationError, match="exactly one"):
            placement_scheme(
                "explicit", rows=[[0]], assignments={0: (0,)}
            )
        with pytest.raises(ConfigurationError, match="make them agree"):
            placement_scheme(
                "explicit", rows=[[0], [1]], num_workers=3
            )

    def test_hetero_assignment_must_be_permutation(self):
        with pytest.raises(ConfigurationError, match="permutation"):
            placement_scheme(
                "hetero", num_workers=4, assignment=[0, 0, 1, 2],
                partitions_per_worker=2,
            )

    def test_hetero_conflict_graph_is_relabelled_base(self):
        assignment = [1, 0, 3, 4, 5, 2]
        scheme = placement_scheme(
            "hetero", num_workers=6, partitions_per_worker=2,
            base="cr", assignment=assignment,
        )
        # Machines a and b conflict iff the base workers they play do.
        base = conflict_graph(CyclicRepetition(6, 2)).adjacency
        relabelled = Graph(base[np.ix_(assignment, assignment)])
        assert scheme.conflict_graph() == relabelled

    def test_comm_efficient_coder(self):
        # The Ye-Abbe codec is not a family: it takes the fr family's
        # placement, whose fingerprint it keeps.
        placement = make_placement(
            "fr", num_workers=8, partitions_per_worker=4
        )
        coder = CommEfficientGC(placement, 2)
        assert coder.blocks == 2
        assert coder.placement.fingerprint == placement.fingerprint

    def test_comm_efficient_coder_accepts_scheme_directly(self):
        from repro.codes.comm_efficient import CommEfficientGC

        scheme = placement_scheme(
            "fr", num_workers=8, partitions_per_worker=4
        )
        coder = CommEfficientGC(scheme, 2)
        assert coder.placement is scheme.construct()

    def test_multimessage_round(self):
        # The multi-message semantic is a round model, not a family:
        # it runs over any family's placement.
        from repro.partial.multimessage import MultiMessageRound

        placement = make_placement(
            "cr", num_workers=8, partitions_per_worker=3
        )
        round_ = MultiMessageRound(
            placement, Environment(), rng=np.random.default_rng(0)
        )
        assert round_.placement.fingerprint == placement.fingerprint

    def test_multimessage_round_accepts_scheme_directly(self):
        from repro.partial.multimessage import MultiMessageRound

        scheme = placement_scheme(
            "cr", num_workers=8, partitions_per_worker=3
        )
        round_ = MultiMessageRound(
            scheme,
            Environment(),
            rng=np.random.default_rng(0),
        )
        assert round_.placement is scheme.construct()


# ----------------------------------------------------------------------
# Spec-engine integration: every family by name from an ExperimentSpec.


class TestSpecIntegration:
    SPEC_CASES = [
        ("fr", {"num_workers": 6, "partitions_per_worker": 2}, {}),
        ("cr", {"num_workers": 6, "partitions_per_worker": 2}, {}),
        ("hr", {"num_workers": 12},
         {"c1": 2, "c2": 1, "num_groups": 3}),
        ("explicit", {"num_workers": 5},
         {"rows": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]]}),
        ("hetero", {"num_workers": 6, "partitions_per_worker": 2},
         {"base": "cr", "assignment": [1, 0, 3, 2, 5, 4]}),
    ]

    @pytest.mark.parametrize(
        "family,base,extra", SPEC_CASES, ids=[c[0] for c in SPEC_CASES]
    )
    def test_generic_isgc_scheme_builds_every_family(
        self, family, base, extra
    ):
        strategy = make_strategy(
            "is-gc",
            wait_for=2,
            rng=np.random.default_rng(0),
            placement=family,
            **base,
            **extra,
        )
        from repro.core.scheme import spec_placement_scheme

        expected = spec_placement_scheme(family, **base, **extra)
        assert strategy.placement.fingerprint == expected.fingerprint()

    def test_generic_isgc_defaults_to_cr(self):
        strategy = make_strategy(
            "is-gc", num_workers=6, partitions_per_worker=2, wait_for=3,
            rng=np.random.default_rng(0),
        )
        assert strategy.placement.fingerprint == make_placement(
            "cr", num_workers=6, partitions_per_worker=2
        ).fingerprint

    def test_generic_isgc_matches_dedicated_schemes(self):
        # Each is-gc-<family> preset is is-gc with placement=<family>:
        # same placement, and the same run end to end.
        for family, params in (
            ("cr", {}), ("fr", {}),
            ("hr", {"c1": 1, "c2": 1, "num_groups": 4}),
        ):
            a = make_strategy(
                f"is-gc-{family}", num_workers=8, partitions_per_worker=2,
                wait_for=3, rng=np.random.default_rng(0), **params,
            )
            b = make_strategy(
                "is-gc", num_workers=8, partitions_per_worker=2,
                wait_for=3, rng=np.random.default_rng(0),
                placement=family, **params,
            )
            assert a.placement.fingerprint == b.placement.fingerprint
            preset = ExperimentSpec(
                name="preset", scheme=f"is-gc-{family}", num_workers=8,
                partitions_per_worker=2, wait_for=4, max_steps=6,
                scheme_params=params,
            )
            generic = dataclasses.replace(
                preset, scheme="is-gc",
                scheme_params={"placement": family, **params},
            )
            assert run_spec(preset) == run_spec(generic)

    def test_unknown_placement_family_via_spec(self):
        with pytest.raises(ConfigurationError) as err:
            make_strategy(
                "is-gc", num_workers=6, partitions_per_worker=2,
                wait_for=3, placement="cyclc",
            )
        assert "did you mean 'cyclic'" in str(err.value)

    def test_unknown_scheme_did_you_mean(self):
        with pytest.raises(ConfigurationError) as err:
            make_strategy("is-gc-cx", num_workers=6, wait_for=3)
        msg = str(err.value)
        assert "did you mean" in msg
        assert "registered schemes" in msg


class TestFeasibilityAgreement:
    """Each family states its constraints once: the static hook
    (``spec_problems``) and construction accept exactly the same
    parameters and lead with the same message, over every n <= 12."""

    @staticmethod
    def cases():
        for n in range(1, 13):
            for c in range(1, n + 1):
                base = {"num_workers": n, "partitions_per_worker": c}
                yield "fr", base, {}
                yield "cr", base, {}
            for g in range(0, n + 2):
                for c1 in range(-1, 5):
                    for c2 in range(-1, 5):
                        yield "hr", {"num_workers": n}, {
                            "c1": c1, "c2": c2, "num_groups": g,
                        }

    def test_static_problems_match_construction(self):
        disagreements = []
        for family, base, params in self.cases():
            static = placement_spec_problems(family, **base, params=params)
            try:
                placement_scheme(family, **base, **params).construct()
                built = None
            except PlacementError as exc:
                built = str(exc)
            if family == "cr" and base["partitions_per_worker"] == base[
                "num_workers"
            ]:
                # The one static-only lint: CR(n, n) exists, but every
                # pair of its workers conflicts (Theorem 1).
                assert static and built is None
                continue
            if (static[0] if static else None) != built:
                disagreements.append((family, base, params, static, built))
        assert disagreements == []

    TABLE_CASES = [
        ("explicit", {"rows": [[0, 1], [1, 2], [2, 3], [3, 0]]}),
        ("explicit", {"assignments": {"0": [0, 1], "1": [1, 2],
                                      "2": [2, 3], "3": [3, 0]}}),
        ("explicit", {"rows": [[0, 9], [1, 2], [2, 3], [3, 0]]}),
        ("explicit", {"rows": [[0, 1], [1, 0]]}),
        ("explicit", {}),
        ("explicit", {"rows": [[0, 1]] * 4, "assignments": {}}),
        ("explicit", {"rows": [[0, 1], [1, 2], [2, 3], [3]]}),
        ("explicit", {"rows": [[0, 1], [1, 0], [0, 1], [1, 0]]}),
        ("explicit", {"rows": [[0, 0, 1], [1, 2], [2, 3], [3, 0]]}),
        ("explicit", {"rows": [[0, "1"], [1, 2], [2, 3], [3, 0]]}),
        ("explicit", {"rows": [[0, 1, 2, 3, 0]] * 4}),
        ("explicit", {"rows": 5}),
        ("explicit", {"rows": [[]] * 4}),
        ("hetero", {"assignment": [1, 0, 3, 2]}),
        ("hetero", {"assignment": [0, 0, 1, 2]}),
        ("hetero", {"assignment": [0, 1, 2]}),
        ("hetero", {"assignment": [0, 1, 2, "3"]}),
        ("hetero", {"assignment": 4}),
        ("hetero", {"assignment": [1, 0, 3, 2], "base": "cyclc"}),
        ("hetero", {"assignment": [1, 0, 3, 2], "base": 3}),
        ("hetero", {"assignment": [1, 0, 3, 2], "bogus": 1}),
        ("hetero", {"assignment": [1, 0, 3, 2], "base": "fr"}),
        ("hetero", {"assignment": [1, 0, 3, 2], "base": "hr",
                    "c1": 1, "c2": 1, "num_groups": 2}),
        ("hetero", {"assignment": [1, 0, 3, 2], "base": "hr",
                    "c1": 1, "c2": 1, "num_groups": 3}),
        ("hetero", {"assignment": [1, 0, 3, 2], "base": "explicit",
                    "rows": [[0, 1], [1, 2], [2, 3], [3, 0]]}),
        ("hetero", {"assignment": [1, 0, 3, 2], "base": "explicit",
                    "rows": [[0, 9], [1, 2], [2, 3], [3, 0]]}),
    ]

    @pytest.mark.parametrize("c", [2, 3])
    def test_table_families_agree_with_construction(self, c):
        # explicit and hetero read their tables from spec data, so the
        # hook must refuse what the spec-driven constructor refuses,
        # with the same leading message, and nothing else.
        from repro.core.scheme import spec_placement_scheme

        disagreements = []
        for family, params in self.TABLE_CASES:
            static = placement_spec_problems(
                family, num_workers=4, partitions_per_worker=c,
                params=params,
            )
            try:
                spec_placement_scheme(
                    family, num_workers=4, partitions_per_worker=c,
                    **params,
                ).construct()
                built = None
            except (ConfigurationError, PlacementError) as exc:
                built = str(exc)
            if (static[0] if static else None) != built:
                disagreements.append((family, params, static, built))
        assert disagreements == []

    def test_codec_raises_the_same_message(self):
        placement = FractionalRepetition(8, 4)
        for blocks in (0, 5):
            with pytest.raises(CodingError) as exc:
                CommEfficientGC(placement, blocks=blocks)
            assert str(exc.value) == comm_efficient_problems(
                8, 4, blocks
            )[0]


# ----------------------------------------------------------------------
# Hypothesis properties.


def exact_recovered(scheme: PlacementScheme, available) -> int:
    """Recovered partitions of an exact-MIS decode on ``available``."""
    decoder = ExactDecoder(scheme.construct(), rng=np.random.default_rng(0))
    return decoder.decode(sorted(available)).num_recovered


@st.composite
def cr_schemes(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    c = draw(st.integers(min_value=1, max_value=n - 1))
    return placement_scheme(
        "cr", num_workers=n, partitions_per_worker=c
    )


@st.composite
def fr_schemes(draw):
    c = draw(st.integers(min_value=1, max_value=4))
    groups = draw(st.integers(min_value=1, max_value=4))
    return placement_scheme(
        "fr", num_workers=c * groups, partitions_per_worker=c
    )


_VALID_HR = [
    params
    for params in (
        {"num_workers": n, "c1": c1, "c2": c2, "num_groups": g}
        for n in (4, 6, 8, 12)
        for g in (1, 2, 3, 4)
        for c1 in (0, 1, 2)
        for c2 in (0, 1, 2)
    )
    # Exactly the constructible ones (TestFeasibilityAgreement).
    if HRScheme.spec_problems(
        num_workers=params["num_workers"],
        params=params,
    ) == []
]


@st.composite
def hr_schemes(draw):
    return placement_scheme("hr", **draw(st.sampled_from(_VALID_HR)))


@st.composite
def family_schemes(draw):
    """A scheme from any registered family (``hetero`` wraps a base
    drawn from ``cr``)."""
    kind = draw(st.sampled_from(
        ["fr", "cr", "hr", "explicit", "hetero"]
    ))
    if kind == "fr":
        return draw(fr_schemes())
    if kind == "cr":
        return draw(cr_schemes())
    if kind == "hr":
        return draw(hr_schemes())
    if kind == "explicit":
        base = draw(cr_schemes()).construct()
        return placement_scheme(
            "explicit", assignments=base.assignment_table()
        )
    base = draw(cr_schemes())
    placement = base.construct()
    n = placement.num_workers
    perm = draw(st.permutations(list(range(n))))
    return placement_scheme(
        "hetero", num_workers=n,
        partitions_per_worker=placement.partitions_per_worker,
        base="cr", assignment=list(perm),
    )


@settings(max_examples=60, deadline=None)
@given(scheme=family_schemes(), data=st.data())
def test_recovery_bounds_bracket_exact_mis(scheme, data):
    """Theorems 10/11 (and the generic bracket): for every family and
    every available-set size ``w``, the exact-MIS recovered-partition
    count lies in ``recovery_bounds(w)``."""
    n = scheme.construct().num_workers
    w = data.draw(st.integers(min_value=1, max_value=n), label="w")
    available = data.draw(
        st.permutations(list(range(n))).map(lambda p: sorted(p[:w])),
        label="available",
    )
    lo, hi = scheme.recovery_bounds(w)
    recovered = exact_recovered(scheme, available)
    assert lo <= recovered <= hi, (
        f"{scheme.family}: |I|={recovered} outside [{lo}, {hi}] "
        f"at w={w}, available={available}"
    )


@settings(max_examples=60, deadline=None)
@given(scheme=cr_schemes())
def test_cr_conflict_graph_is_theorem1_circulant(scheme):
    """Theorem 1: CR's conflict graph is the circulant C_n^{1..c-1}."""
    placement = scheme.construct()
    n = placement.num_workers
    c = placement.partitions_per_worker
    assert scheme.conflict_graph() == Graph(circulant_adjacency(n, c))


@settings(max_examples=40, deadline=None)
@given(scheme=family_schemes())
def test_fast_conflict_paths_match_ground_truth(scheme):
    """Every family's conflict graph (``P @ Pᵀ``) equals the pairwise
    shared-partition test."""
    assert scheme.conflict_graph() == pairwise_conflicts(scheme.construct())


@settings(max_examples=40, deadline=None)
@given(scheme=family_schemes())
def test_fingerprint_matches_constructed_placement(scheme):
    assert scheme.fingerprint() == scheme.construct().fingerprint
