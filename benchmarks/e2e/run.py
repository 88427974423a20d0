"""End-to-end benchmark: four workloads, user-facing metrics, per-layer timing.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload exact-fig7 --seed 1
    python3 benchmarks/e2e/run.py --workload all --trace 1
    python3 benchmarks/e2e/run.py --sets 2 --runs 10      # noise calibration

For each workload the parent process generates the inputs from the seed,
then runs the workload in a child process of its own (so caches, warm
worker pools and peak memory never leak between workloads), checks the
outputs and prints every metric with its unit.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones of ``BENCHMARK.json``; with ``--trace 1`` the per-layer
ones, and ``<out>/<workload>.trace.json`` (Chrome trace format, loadable
in Perfetto) plus ``<out>/<workload>.selftime.txt`` are written.

Exit status is 0 only when every operation succeeded and every output
matched its reference.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))  # sibling modules: summary, spans, ...

from summary import Tally, iqr_share, percentile, supported_tail  # noqa: E402

WORKLOADS = ("exact-fig7", "blocked-vocab", "service-jobs", "stream-drift")
#: Whole-run cap per workload, inputs and child included: a run must
#: end within 180 s, and this leaves margin for start-up and reporting.
RUN_TIMEOUT = 170.0


def load_config() -> dict:
    """``BENCHMARK.json``: metric names, units, directions and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env(out: Path) -> dict:
    """Environment for every process the benchmark starts.

    ``TMPDIR`` keeps temporary files (the service's shm ledger among
    them) inside the output directory.
    """
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["TMPDIR"] = str(tmp)
    return env


def commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None  # not a git checkout: the stamp says so
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def end_group(pgid: int, timeout: float = 10.0) -> None:
    """Kill whatever is left in a finished child's process group; wait."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return  # nothing left
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


# ----------------------------------------------------------------------
# Child: run one workload, write its result document
# ----------------------------------------------------------------------
def child_main(args) -> int:
    # A terminating parent sends SIGTERM; unwinding runs the finally
    # blocks that stop the service daemon.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    import library
    import service_jobs
    from spans import chrome_trace

    spec_path = Path(args.spec)
    spec = json.loads(spec_path.read_text())
    out = Path(args.out)
    traced = bool(args.trace)
    tally = Tally()
    env = child_env(out)
    outcome: dict = {}
    error = None
    try:
        if args.child == "service-jobs":
            outcome = service_jobs.run_service(
                spec, spec_path.parent, args.seconds, traced, env, tally, out)
        elif args.child == "stream-drift":
            outcome = library.run_stream(
                spec, spec_path.parent, args.seconds, traced, env, tally)
        else:
            outcome = library.run_matching(
                spec, spec_path.parent, args.seconds, traced, env, tally)
    except Exception as exc:  # noqa: BLE001 — reported as a failed run
        error = "".join(traceback.format_exception(exc))
        tally.fail(f"{type(exc).__name__}: {exc}")

    result = {"tally": tally.to_dict(), "error": error,
              "sizes": spec.get("sizes", {})}
    if outcome:
        samples = outcome.get("samples", {})
        timed = [value for values in samples.values() for value in values]
        result["samples"] = {
            "setup": len(outcome["setup_samples"]),
            "operations": len(timed),
            "inputs": len(samples),
        }
        tail = supported_tail(len(timed))
        if tail > 50:
            result["samples"]["tail"] = [tail, percentile(timed, tail)]
        if not traced:
            result["metrics"] = {
                "setup_s": statistics.median(outcome["setup_samples"]),
                **outcome["metrics"],
            }
        else:
            result["layers"] = outcome["layers"]
            result["report"] = outcome["report"]
            recorder = outcome["recorder"]
            trace_path = out / f"{args.child}.trace.json"
            trace_path.write_text(json.dumps(chrome_trace(
                recorder, os.getpid(),
                {"workload": args.child, "seed": spec["seed"]},
                outcome.get("extra_events"),
            )))
            (out / f"{args.child}.selftime.txt").write_text(
                outcome["report"] + "\n")
            result["files"] = [str(trace_path)]
    Path(args.result).write_text(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# Parent: inputs, child process, checks, report
# ----------------------------------------------------------------------
def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 out: Path, config: dict) -> dict:
    started = time.monotonic()
    from inputs import generate

    inputs_dir = out / "inputs" / f"{workload}-{seed}-{os.getpid()}"
    result_path = out / f"{workload}.child.json"
    result_path.unlink(missing_ok=True)
    try:
        spec_path = generate(workload, seed, inputs_dir)
        command = [
            sys.executable, str(HERE / "run.py"), "--child", workload,
            "--spec", str(spec_path), "--seconds", str(seconds),
            "--trace", str(trace), "--out", str(out),
            "--result", str(result_path),
        ]
        # The child leads its own process group, which the service
        # daemon and its workers join: ending the group ends them all.
        child = subprocess.Popen(command, env=child_env(out),
                                 start_new_session=True)
        try:
            child.wait(timeout=max(1.0, RUN_TIMEOUT - (time.monotonic() - started)))
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGTERM)
            try:
                child.wait(timeout=20)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
        end_group(child.pid)
        result = (
            json.loads(result_path.read_text()) if result_path.exists() else {}
        )
        result["exit_code"] = child.returncode
    finally:
        shutil.rmtree(inputs_dir, ignore_errors=True)
        result_path.unlink(missing_ok=True)

    wanted = config["per_layer" if trace else "end_to_end"]
    values = result.get("layers" if trace else "metrics") or {}
    metrics = {}
    for entry in wanted:
        # A layer a workload bypasses reports 0 (e.g. blocking on
        # exact-fig7): the prediction for that pairing is "no change".
        value = values.get(entry["name"], 0.0 if trace else None)
        if value is not None and math.isfinite(value):
            metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    tally = result.get("tally", {"attempted": 0, "failed": 0, "reasons": {}})
    correct = (
        result.get("exit_code") == 0
        and result.get("error") is None
        and tally["failed"] == 0
        and tally["attempted"] > 0
        and len(metrics) == len(wanted)
    )
    stamp = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "cpu_count": os.cpu_count(), "python": platform.python_version(),
        "commit": commit(), "sizes": result.get("sizes"),
        "samples": result.get("samples"),
    }
    report = {"stamp": stamp, "correct": correct, "tally": tally,
              "metrics": metrics, "error": result.get("error")}
    (out / f"{workload}.result{'.traced' if trace else ''}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True))
    print_report(report, wanted, result)
    return report


def print_report(report: dict, wanted: list, result: dict) -> None:
    stamp = report["stamp"]
    print(f"# meta {json.dumps(stamp, sort_keys=True)}")
    samples = stamp.get("samples") or {}
    for entry in wanted:
        name = entry["name"]
        metric = report["metrics"].get(name)
        value = f"{metric['value']:.6g}" if metric else "missing"
        note = ""
        if name == "setup_s":
            note = f"median of {samples.get('setup', 0)}"
        elif name == "latency_s":
            note = (f"{samples.get('operations', 0)} timed samples over "
                    f"{samples.get('inputs', 0)} inputs; ")
            tail = samples.get("tail")
            note += (f"p{tail[0]:g} {tail[1]:.4g} s" if tail
                     else "too few samples for a tail percentile")
        print(f"{stamp['workload']:<14} {name:<38} {value:>14} "
              f"{entry['unit']:<9} {entry['better']:<6} {note}")
    tally = report["tally"]
    ratio = tally["failed"] / tally["attempted"] if tally["attempted"] else 1.0
    print(f"{stamp['workload']:<14} attempted {tally['attempted']} "
          f"failed {tally['failed']} (failed ratio {ratio:.3g}) "
          f"correct {report['correct']}")
    for reason, count in tally.get("reasons", {}).items():
        print(f"  failure x{count}: {reason}")
    if result.get("report"):
        print(result["report"])
    for path in result.get("files", ()):
        print(f"  wrote {path}")
    if report.get("error"):
        print(report["error"], file=sys.stderr)


def final_line(reports: list[dict]) -> dict:
    """The last stdout line; with several workloads, names get a prefix."""
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {
            f"{r['stamp']['workload']}.{name}": value
            for r in reports for name, value in r["metrics"].items()
        }
    return {
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["tally"]["attempted"] for r in reports),
        "failed": sum(r["tally"]["failed"] for r in reports),
        "metrics": metrics,
    }


# ----------------------------------------------------------------------
# Calibration: repeated runs on fresh seeds to measure noise
# ----------------------------------------------------------------------
def calibrate(args, config: dict, out: Path) -> int:
    """Run ``--sets`` sets of ``--runs`` seeds per workload; report noise.

    Each run is a fresh ``run.py`` invocation on its own seed.  For every
    end-to-end metric it prints each set's median and interquartile
    range (as a share of the median), the drift between set medians,
    and whether both stay inside the metric's bound.
    """
    bounds = {entry["name"]: entry for entry in config["end_to_end"]}
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    table: dict = {}
    ok = True
    for workload in workloads:
        sets = []
        for set_index in range(args.sets):
            values: dict[str, list[float]] = {}
            for run in range(args.runs):
                seed = args.seed + set_index * args.runs + run
                done = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(args.seconds),
                     "--trace", "0", "--out", str(out)],
                    capture_output=True, text=True, timeout=RUN_TIMEOUT + 10,
                )
                try:
                    last = json.loads(done.stdout.strip().splitlines()[-1])
                except (IndexError, json.JSONDecodeError):
                    last = {"correct": False, "metrics": {}}
                if not last["correct"]:
                    ok = False
                    print(f"{workload} seed {seed}: incorrect run "
                          f"(exit {done.returncode})", file=sys.stderr)
                for name, metric in last["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
                print(f"# {workload} set {set_index + 1} seed {seed}: "
                      + ", ".join(f"{k}={v['value']:.4g}"
                                  for k, v in last["metrics"].items()),
                      flush=True)
            sets.append(values)
        table[workload] = sets
        for name, entry in bounds.items():
            row = []
            medians = []
            for values in sets:
                series = values.get(name, [])
                if not series:
                    continue
                median = statistics.median(series)
                spread = iqr_share(series)
                medians.append(median)
                row.append(f"median {median:.5g} iqr {spread:6.1%}")
                if name != "setup_s" and spread > entry["bound"]:
                    ok = False
            drift = 0.0
            if len(medians) >= 2 and medians[0]:
                change = medians[-1] / medians[0] - 1.0
                drift = change if entry["better"] == "lower" else -change
                if drift > entry["bound"]:
                    ok = False
            print(f"{workload:<14} {name:<14} " + " | ".join(row)
                  + f" | worse by {drift:+.1%} (bound {entry['bound']:.0%})")
    (out / "calibration.json").write_text(json.dumps(table, indent=1))
    return 0 if ok else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = traced run reporting per-layer metrics")
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--out", default=str(HERE / "out"),
                        help="directory for results, traces and scratch files")
    parser.add_argument("--sets", type=int, default=0,
                        help="calibrate: run this many sets of --runs seeds")
    parser.add_argument("--runs", type=int, default=10)
    # Internal: the per-workload child process.
    parser.add_argument("--child", choices=WORKLOADS, help=argparse.SUPPRESS)
    parser.add_argument("--spec", help=argparse.SUPPRESS)
    parser.add_argument("--result", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    if args.child:
        return child_main(args)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    config = load_config()
    if args.seconds is None:
        args.seconds = float(config["run_seconds"])
    out = Path(args.out).resolve()
    out.mkdir(parents=True, exist_ok=True)
    if args.sets:
        return calibrate(args, config, out)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    reports = [
        run_workload(w, args.seed, args.seconds, args.trace, out, config)
        for w in workloads
    ]
    line = final_line(reports)
    print(json.dumps(line, sort_keys=True))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
