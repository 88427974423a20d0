"""Seeded input generation for the four workloads.

Runs in the parent process before any workload starts: every input is
written under one directory as CSV event tables plus a ``spec.json``
naming the files, the patterns (as parseable text), the ground truth
and the input sizes.  The same ``(workload, seed)`` always yields the
same files.

Each run times a *pool* of distinct inputs drawn from the seed rather
than one: matching time depends strongly on the sampled log (A* work
varies about 1.5x between seeds at a fixed size), and averaging over a
pool keeps one run's number close to the next run's on another seed.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.datagen import generate_largevocab, generate_reallike
from repro.datagen.synthetic import generate_synthetic
from repro.datagen.task import MatchingTask
from repro.log.csvio import write_csv

#: Distinct inputs timed per run (see module docstring).  Sized so a
#: 20 s run repeats each input 3-4 times: the per-input median then
#: shrugs off a burst of host slowness.
EXACT_POOL = 32
BLOCKED_POOL = 4
STREAM_FEEDS = 10

#: exact-fig7 keeps a fixed 8-event vocabulary: exactly the events of the
#: three real-like patterns, so every input keeps all three.  A
#: first-appearance projection keeps 0-3 patterns depending on the seed,
#: and at 10 events the search cost is heavy-tailed (2-4x between
#: seeds); at 8 it stays within about 1.5x of the mean.
EXACT_EVENTS = (
    "Receive_Order", "Payment", "Invoice", "Produce", "Quality_Check",
    "Package", "Ship_Goods", "Close_Order",
)
#: The service's exact jobs: 7 events, two of the three patterns.
SERVICE_EVENTS = (
    "Receive_Order", "Payment", "Invoice", "Produce", "Quality_Check",
    "Package", "Ship_Goods",
)
BLOCKING = {"frequency_gap": 0.012, "exact_cutoff": 8}
#: stream-drift stages: (routing heterogeneity, events not yet logged,
#: traces streamed).  The stream's vocabulary grows at each stage, so
#: the engine re-matches at fixed points.  Its drift threshold sits
#: above the drift these regimes produce: with the default 0.05,
#: threshold crossings driven by sampling noise made the number of
#: re-matches, and with it a session's cost, vary 2x between feeds.
STREAM_STAGES = (
    (1.0, ("Schedule", "Express_Ship"), 2700),
    (0.3, ("Express_Ship",), 2700),
    (0.3, (), 2600),
)
STREAM_ENGINE = {"min_traces": 500, "drift_threshold": 1.0}


def sub_seed(seed: int, index: int) -> int:
    """Distinct generator seeds per pool member.

    The generators derive further seeds as ``seed + 1 .. seed + 4``;
    spacing members by 10 keeps those streams disjoint.
    """
    return 1 + seed * 1000 + 10 * index


def project(task: MatchingTask, events) -> MatchingTask:
    """``task`` restricted to a fixed source vocabulary and its images."""
    kept = set(events)
    return MatchingTask(
        name=f"{task.name}[{len(kept)} events]",
        log_1=task.log_1.project_events(kept),
        log_2=task.log_2.project_events({task.truth[e] for e in kept}),
        patterns=tuple(p for p in task.patterns if p.event_set() <= kept),
        truth=task.truth.restrict_sources(kept),
    )


def _write_task(task: MatchingTask, directory: Path, label: str, **options) -> dict:
    path_1 = directory / f"{label}-1.csv"
    path_2 = directory / f"{label}-2.csv"
    write_csv(task.log_1, path_1)
    write_csv(task.log_2, path_2)
    return {
        "label": label,
        "log_1": path_1.name,
        "log_2": path_2.name,
        "patterns": [repr(pattern) for pattern in task.patterns],
        "truth": {str(k): str(v) for k, v in task.truth.as_dict().items()},
        "events": [len(task.log_1.alphabet()), len(task.log_2.alphabet())],
        "traces": [len(task.log_1), len(task.log_2)],
        **options,
    }


def _exact(seed: int, directory: Path) -> dict:
    tasks = [
        _write_task(
            project(generate_reallike(num_traces=1000, seed=sub_seed(seed, k)),
                    EXACT_EVENTS),
            directory, f"task{k:02d}", method="pattern-tight",
        )
        for k in range(EXACT_POOL)
    ]
    return {"tasks": tasks}


def _blocked(seed: int, directory: Path) -> dict:
    # 14 families x 6 roles = 84 event types, one family per frequency
    # level: ~19 ambiguous 6x6 blocks per input, each an exact in-block
    # search.  (8-role families make each operation ~5 s, too few
    # repeats per run to be steady.)
    tasks = [
        _write_task(
            generate_largevocab(
                num_families=14, roles_per_family=6, num_traces=3000,
                seed=sub_seed(seed, k), family_chains=True,
                families_per_level=1,
            ),
            directory, f"task{k:02d}", method="pattern-tight",
            blocking=BLOCKING,
        )
        for k in range(BLOCKED_POOL)
    ]
    return {"tasks": tasks}


def _service(seed: int, directory: Path) -> dict:
    tight = project(
        generate_reallike(num_traces=500, seed=sub_seed(seed, 0)), SERVICE_EVENTS
    )
    heuristic = generate_synthetic(
        num_blocks=2, num_traces=1000, seed=sub_seed(seed, 1)
    )
    return {
        "tasks": [
            _write_task(tight, directory, "tight", method="pattern-tight"),
            _write_task(heuristic, directory, "heuristic",
                        method="heuristic-advanced"),
        ]
    }


def _renamed_regime(reference: MatchingTask, seed: int,
                    heterogeneity: float, traces: int):
    """A department-2 log under another routing regime, in the
    reference's target vocabulary (so one ground truth covers both)."""
    regime = generate_reallike(
        num_traces=traces, seed=seed, heterogeneity=heterogeneity
    )
    renaming = {
        regime.truth[event]: reference.truth[event]
        for event in regime.truth.as_dict()
    }
    return regime.log_2.rename_events(renaming)


def _stream(seed: int, directory: Path) -> dict:
    reference = generate_reallike(num_traces=1000, seed=sub_seed(seed, 0))
    write_csv(reference.log_1, directory / "reference.csv")
    targets = set(reference.truth.as_dict().values())
    stages = []
    for index, (heterogeneity, unlogged, traces) in enumerate(STREAM_STAGES):
        regime = _renamed_regime(
            reference, sub_seed(seed, 1 + index), heterogeneity, 2 * traces
        ).project_events(targets - {reference.truth[e] for e in unlogged})
        name = f"stage-{index}.csv"
        write_csv(regime, directory / name)
        stages.append({"pool": name, "traces": traces})
    return {
        "reference": "reference.csv",
        # Each feed samples every stage's traces from that stage's pool
        # (twice the size needed) with its own seed, stage after stage.
        "stages": stages,
        "feed_seeds": [sub_seed(seed, 10 + k) for k in range(STREAM_FEEDS)],
        "engine": STREAM_ENGINE,
        "patterns": [repr(pattern) for pattern in reference.patterns],
        "truth": {str(k): str(v) for k, v in reference.truth.as_dict().items()},
        "batch": 100,
        "sizes": {
            "events": len(reference.log_1.alphabet()),
            "reference_traces": len(reference.log_1),
            "feeds": STREAM_FEEDS,
            "traces_per_feed": sum(stage["traces"] for stage in stages),
            "patterns": len(reference.patterns),
        },
    }


def _distinct(values) -> list:
    """Distinct values in first-seen order (one entry when all agree)."""
    seen: list = []
    for value in values:
        if value not in seen:
            seen.append(value)
    return seen


_GENERATORS = {
    "exact-fig7": _exact,
    "blocked-vocab": _blocked,
    "service-jobs": _service,
    "stream-drift": _stream,
}


def generate(workload: str, seed: int, directory: Path) -> Path:
    """Write ``workload``'s inputs for ``seed`` into ``directory``.

    Returns the path of the written ``spec.json``.
    """
    directory.mkdir(parents=True, exist_ok=True)
    spec = {"workload": workload, "seed": seed, **_GENERATORS[workload](seed, directory)}
    if "tasks" in spec:
        tasks = spec["tasks"]
        spec["sizes"] = {
            "inputs": len(tasks),
            "events": _distinct(task["events"] for task in tasks),
            "traces": _distinct(task["traces"] for task in tasks),
            "patterns": _distinct(len(task["patterns"]) for task in tasks),
        }
    path = directory / "spec.json"
    path.write_text(json.dumps(spec, indent=1, sort_keys=True))
    return path
