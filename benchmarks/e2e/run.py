#!/usr/bin/env python3
"""The benchmark command.

One run (what the driver calls)::

    python3 benchmarks/e2e/run.py --workload map_build --seed 11 --seconds 8 --trace 0

prints one ``workload metric value unit`` line per metric and, last, one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` — the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  It exits non-zero when any operation failed or any check
did not hold.

The suite (no ``--trace``; what a person runs)::

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--repeats 3] [--quick] [--out PATH]

runs every chosen workload ``--repeats`` times untraced plus once traced,
each in its own child process, requires the deterministic counts and the
answer digests to agree between them, and writes one result JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform as host_platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

ROOT = Path(__file__).resolve().parents[2]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"benchmarks/e2e: no program to measure: {ROOT / 'src' / 'repro'} is missing")
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.e2e import stats  # noqa: E402
from benchmarks.e2e.catalogue import END_TO_END, PER_LAYER, WORKLOADS, unit_of  # noqa: E402
from benchmarks.e2e.checks import leaked_wal_files  # noqa: E402
from benchmarks.e2e.inputs import NOMINAL_SECONDS, WORLD_SEED  # noqa: E402
from benchmarks.e2e.workloads import DETERMINISTIC_COUNTS, WORKLOAD_FUNCTIONS, Run  # noqa: E402

#: Scratch space inside the checkout (WAL directories, child results).
WORK_ROOT = ROOT / ".bench_e2e"
WORKLOAD_NAMES = [name for name, _why in WORKLOADS]


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="benchmarks/e2e/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=11,
                        help="seeds the scanner's choices and every read schedule")
    parser.add_argument("--world-seed", type=int, default=WORLD_SEED,
                        help="seeds the simulated Internet (fixed by default; see inputs.py)")
    parser.add_argument("--seconds", type=float, default=float(NOMINAL_SECONDS),
                        help="target length of a timed section; sizes scale linearly with it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="one run: 0 prints end-to-end metrics, 1 per-layer metrics; "
                             "omitted: the suite (repeats untraced, then one traced)")
    parser.add_argument("--no-trace", action="store_true", help="suite: skip the traced runs")
    parser.add_argument("--repeats", type=int, default=3, help="suite: untraced runs per workload")
    parser.add_argument("--quick", action="store_true",
                        help="small world (bits 13, 600 services) for smoke tests")
    parser.add_argument("--out", type=Path, default=None,
                        help=f"result JSON (suite default: a new file under {WORK_ROOT.name}/)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.trace is not None and (args.workload is None or len(args.workload) != 1):
        parser.error("--trace 0|1 runs one workload: give exactly one --workload")
    return args


# -- one run -------------------------------------------------------------------------


def run_one(workload: str, seed: int, seconds: float, trace: bool, quick: bool,
            world_seed: int = WORLD_SEED) -> Dict[str, Any]:
    """Run one workload in this process; returns the full result."""
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT)
    run = Run(workload, seed, seconds, trace, quick, workdir, world_seed)
    started = time.time()
    try:
        WORKLOAD_FUNCTIONS[workload](run)
        leaked = leaked_wal_files(workdir)
        run.check("no_wal_files_left", not leaked, leaked=leaked[:5])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    declared = PER_LAYER if trace else END_TO_END
    values = run.per_layer if trace else run.e2e
    missing = [row[0] for row in declared if row[0] not in values]
    if missing:
        raise RuntimeError(f"{workload}: metrics not measured: {missing}")
    units = unit_of()
    result = {
        "workload": workload, "seed": seed, "world_seed": world_seed, "seconds": seconds,
        "trace": trace, "quick": quick,
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "sizes": run.sizes.as_dict(),
        "correct": run.correct, "attempted": run.attempted, "failed": run.failed,
        "errors": run.errors, "checks": run.checks,
        "metrics": {row[0]: {"value": values[row[0]], "unit": units[row[0]]} for row in declared},
        "end_to_end": run.e2e, "counts": run.counts, "phases": run.phases, "info": run.info,
        "answer_digest": {"sample": run.sample.digest(), "shape": run.shape},
        "run_wall_s": time.time() - started,
    }
    if trace and run.tracer is not None:
        result["spans"] = run.tracer.dump(f"{workload}-{seed}")
    return result


def print_table(result: Dict[str, Any]) -> None:
    for name, metric in result["metrics"].items():
        print(f"{result['workload']} {name} {metric['value']:.6g} {metric['unit']}")
    for name, outcome in result["checks"].items():
        print(f"{result['workload']} check:{name} {'ok' if outcome['ok'] else 'FAILED'} "
              f"{json.dumps({k: v for k, v in outcome.items() if k != 'ok'}, default=str)}")
    for error in result["errors"]:
        print(f"{result['workload']} error {error}")


def single(args: argparse.Namespace) -> int:
    result = run_one(args.workload[0], args.seed, args.seconds, bool(args.trace), args.quick,
                     args.world_seed)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(result))
    print_table(result)
    # A run with a failed check reports every operation as failed: the
    # numbers of a wrong answer are not numbers.
    failed = result["failed"] if result["correct"] else max(result["failed"], result["attempted"])
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"], "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0 if result["correct"] else 1


# -- the suite -----------------------------------------------------------------------


def _child(workload: str, args: argparse.Namespace, trace: bool, out: Path) -> Dict[str, Any]:
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--world-seed", str(args.world_seed),
               "--seconds", str(args.seconds), "--trace", "1" if trace else "0", "--out", str(out)]
    if args.quick:
        command.append("--quick")
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(command, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, timeout=900)
    if not out.exists():
        raise RuntimeError(f"{workload}: child exited {done.returncode} without a result:\n{done.stdout}")
    result = json.loads(out.read_text())
    result["exit_code"] = done.returncode
    return result


def _git_commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def suite(args: argparse.Namespace) -> int:
    WORK_ROOT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="suite-", dir=WORK_ROOT))
    out = args.out or WORK_ROOT / f"result-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json"
    bounds = {name: bound for name, _unit, _better, bound in END_TO_END}
    units = unit_of()
    summary: Dict[str, Any] = {}
    ok = True
    try:
        for workload in args.workload or WORKLOAD_NAMES:
            repeats = [
                _child(workload, args, False, scratch / f"{workload}-{i}.json")
                for i in range(args.repeats)
            ]
            traced = None if args.no_trace else _child(workload, args, True, scratch / f"{workload}-t.json")
            runs = repeats + ([traced] if traced else [])
            suite_checks: Dict[str, Any] = {}
            for count in DETERMINISTIC_COUNTS:
                seen = sorted({run["counts"][count] for run in runs})
                suite_checks[f"deterministic:{count}"] = {"ok": len(seen) == 1, "values": seen}
            digests = sorted({json.dumps(run["answer_digest"], sort_keys=True) for run in runs})
            suite_checks["answer_digest_agrees"] = {"ok": len(digests) == 1, "distinct": len(digests)}
            suite_checks["every_run_correct"] = {
                "ok": all(run["correct"] and run["exit_code"] == 0 for run in runs),
                "exit_codes": [run["exit_code"] for run in runs],
            }
            end_to_end = {}
            for name, _unit, _better, bound in END_TO_END:
                values = [run["end_to_end"][name] for run in repeats]
                end_to_end[name] = {
                    "median": stats.median(values), "min": min(values), "max": max(values),
                    "values": values, "unit": units[name], "bound": bound,
                }
                print(f"{workload} {name} {stats.median(values):.6g} {units[name]}")
            per_layer = None
            spans_file = None
            if traced:
                # The measured overhead replaces the single run's estimate.
                traced["metrics"]["trace.overhead_share"]["value"] = (
                    traced["end_to_end"]["wall_s"] / end_to_end["wall_s"]["median"] - 1.0
                )
                per_layer = traced["metrics"]
                for name, metric in per_layer.items():
                    print(f"{workload} {name} {metric['value']:.6g} {metric['unit']}")
                spans_file = Path(f"{out}.spans.{workload}.json")
                spans_file.parent.mkdir(parents=True, exist_ok=True)
                spans_file.write_text(json.dumps(traced.pop("spans")))
            for name, outcome in suite_checks.items():
                print(f"{workload} check:{name} {'ok' if outcome['ok'] else 'FAILED'}")
            ok = ok and all(outcome["ok"] for outcome in suite_checks.values())
            summary[workload] = {
                "sizes": repeats[0]["sizes"],
                "end_to_end": end_to_end,
                "per_layer": per_layer,
                "checks": suite_checks,
                "failed_share": max(
                    (1.0 if not run["correct"] else run["failed"] / run["attempted"]) for run in runs
                ),
                "runs": runs,
                "spans_file": str(spans_file) if spans_file else None,
            }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    document = {
        "commit": _git_commit(),
        "machine": {"nproc": os.cpu_count(), "platform": host_platform.platform(),
                    "python": host_platform.python_version()},
        "config": {"seed": args.seed, "world_seed": args.world_seed, "seconds": args.seconds, "repeats": args.repeats,
                   "quick": args.quick, "hash_seed": "0", "bounds": bounds},
        "workloads": summary,
        "ok": ok,
        "claim": None,
    }
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=1))
    print(f"result {out}")
    print(json.dumps({"ok": ok, "claim": None}))
    return 0 if ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    return single(args) if args.trace is not None else suite(args)


def entry() -> None:
    """Pin the interpreter's hash seed, then run.

    Operation counts depend on set iteration order somewhere under
    ``src/`` (see README), so every measurement runs with
    ``PYTHONHASHSEED=0``; a process started without it replaces itself.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]],
                  dict(os.environ, PYTHONHASHSEED="0"))
    sys.exit(main())


if __name__ == "__main__":
    entry()
