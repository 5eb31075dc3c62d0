"""Record golden environment fingerprints + sampled streams.

Run as
``PYTHONPATH=src python tests/golden/record_environment_goldens.py`` —
it writes ``environments.json`` into this directory.  The file checked
into the repo was recorded at the commit introducing ``repro.env``,
with each model built through the **direct constructors** (the
pre-registry construction path), so the equivalence tests in
``tests/test_env.py`` prove the table port is bit-for-bit neutral:
identical sampled streams through ``make_model("delay", ...)`` & co.
as through ``ExponentialDelay(...)`` & co.

Per case the golden stores the layer, the table kind + params, the
fingerprint of that ``{"kind": ..., **params}`` section
(``model_fingerprint``, a function of the section data alone), and a
behaviour probe:

* delay models — ``sample_round(range(8), step, default_rng(7))`` for
  steps 0..3 (one shared generator, so stateful models like bursty
  exercise their transitions);
* failure models — the ``is_alive`` grid over 8 workers x 4 steps
  under ``default_rng(7)``;
* compute models — ``step_time(c)`` (or per-worker times) for c in
  1..4;
* network models — broadcast/transfer times for a 10_000-element
  gradient;
* contention models — fair-share arrivals of a fixed upload pattern.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

from repro.env import make_model, model_fingerprint

HERE = pathlib.Path(__file__).parent

#: (layer, kind, params) — every registered family, nested composites
#: included.  Trace-replay uses an inline table so the golden is
#: self-contained.
TRACE_TABLE = [
    [0.0, 0.5, 1.0, 0.0, 0.25, 0.0, 2.0, 0.125],
    [1.5, 0.0, 0.0, 3.0, 0.0, 0.75, 0.0, 0.5],
]

CASES = [
    ("delay", "none", {}),
    ("delay", "exponential", {"mean": 1.5}),
    ("delay", "exponential", {"mean": 2.0, "affected": [0, 2, 5]}),
    ("delay", "shifted-exponential", {"shift": 3.0, "mean": 0.5}),
    ("delay", "pareto", {"alpha": 2.5, "scale": 0.3}),
    ("delay", "bernoulli",
     {"probability": 0.3, "delay": {"kind": "exponential", "mean": 2.0}}),
    ("delay", "persistent",
     {"stragglers": [0, 1], "mean": 3.0, "background_mean": 0.2}),
    ("delay", "persistent",
     {"stragglers": [1, 3],
      "delay": {"kind": "shifted-exponential", "shift": 3.0, "mean": 0.5},
      "background": {"kind": "exponential", "mean": 0.2}}),
    ("delay", "diurnal",
     {"base": {"kind": "exponential", "mean": 1.0},
      "period_steps": 3, "amplitude": 0.5}),
    ("delay", "bursty",
     {"burst": {"kind": "exponential", "mean": 4.0},
      "enter_burst": 0.3, "exit_burst": 0.4}),
    ("delay", "mixture",
     {"models": [{"kind": "exponential", "mean": 0.2},
                 {"kind": "shifted-exponential", "shift": 2.0, "mean": 1.0}],
      "weights": [0.7, 0.3]}),
    ("delay", "trace-replay", {"delays": TRACE_TABLE}),
    ("failure", "none", {}),
    ("failure", "permanent-crashes", {"crashed_workers": [2], "at_step": 1}),
    ("failure", "transient-dropouts", {"probability": 0.2}),
    ("failure", "composite",
     {"models": [{"kind": "permanent-crashes", "crashed_workers": [5]},
                 {"kind": "transient-dropouts", "probability": 0.1}]}),
    ("compute", "uniform", {"base": 0.05, "per_partition": 0.1}),
    ("compute", "heterogeneous",
     {"speed_factors": {"0": 2.0, "3": 0.5}, "base": 0.05,
      "per_partition": 0.1}),
    ("network", "uniform", {"latency": 0.002, "bandwidth": 1e9}),
    ("network", "ideal", {}),
    ("contention", "fair-share", {"capacity_bytes_per_s": 1e9}),
]

WORKERS = list(range(8))
STEPS = 4
ELEMENTS = 10_000


def probe(layer: str, model) -> dict:
    """Deterministic behaviour snapshot of one model."""
    if layer == "delay":
        rng = np.random.default_rng(7)
        return {
            "delays": [
                [float(x) for x in model.sample_round(WORKERS, step, rng)]
                for step in range(STEPS)
            ]
        }
    if layer == "failure":
        rng = np.random.default_rng(7)
        return {
            "alive": [
                [bool(model.is_alive(w, step, rng)) for w in WORKERS]
                for step in range(STEPS)
            ]
        }
    if layer == "compute":
        if hasattr(model, "step_time_for"):
            return {
                "worker_times": [
                    [model.step_time_for(w, c) for w in WORKERS]
                    for c in range(1, 5)
                ]
            }
        return {"times": [model.step_time(c) for c in range(1, 5)]}
    if layer == "network":
        return {
            "broadcast": model.broadcast_time(ELEMENTS, len(WORKERS)),
            "transfer": model.transfer_time(ELEMENTS),
        }
    if layer == "contention":
        starts = {w: 0.1 * w for w in WORKERS}
        result = model.round_arrivals(starts, ELEMENTS)
        return {
            "arrivals": {str(w): t for w, t in sorted(result.arrivals.items())}
        }
    raise ValueError(f"unknown layer {layer!r}")


def main() -> None:
    cases = []
    for layer, kind, params in CASES:
        model = make_model(layer, kind, **json.loads(json.dumps(params)))
        cases.append({
            "layer": layer,
            "kind": kind,
            "params": params,
            "fingerprint": model_fingerprint(layer, {"kind": kind, **params}),
            "probe": probe(layer, model),
        })
    out = HERE / "environments.json"
    out.write_text(json.dumps({"cases": cases}, indent=1, sort_keys=True))
    print(f"wrote {len(cases)} cases to {out}")


if __name__ == "__main__":
    main()
