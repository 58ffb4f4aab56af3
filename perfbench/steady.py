"""Steadiness tool: every workload k times, each run in a fresh process.

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 10 --compare .bench_out/steady_prev.json

Runs are untraced and last ``BENCHMARK.json``'s ``run_seconds``.  The
workloads run round-robin (w1, w2, w3, w1, ...) so host drift hits all of
them alike; run i uses seed ``--seed-base + i``.  For each metric it prints
the median, the quartiles and IQR/median, and flags an end-to-end spread
(``setup_s`` excepted) above a third of the metric's bound in
``BENCHMARK.json``.  ``--compare`` adds each median's change against an
earlier output file, flagged when worse by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench import stats  # noqa: E402

RUN_TIMEOUT_S = 900


def one_run(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """The result line and the context line of one fresh-process run."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    started = time.perf_counter()
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {done.returncode}:\n{done.stdout}{done.stderr}"
        )
    context = json.loads(lines[0])
    context["wall_s"] = time.perf_counter() - started
    return json.loads(lines[-1]), context


def summarise(runs: dict[str, list[dict]]) -> dict:
    out: dict = {}
    for workload, results in runs.items():
        names = results[0]["metrics"]
        out[workload] = {
            name: {
                **stats.spread([r["metrics"][name]["value"] for r in results]),
                "unit": results[0]["metrics"][name]["unit"],
                "values": [r["metrics"][name]["value"] for r in results],
            }
            for name in names
        }
    return out


def report(summary: dict, bounds: dict, better: dict, previous: dict | None) -> list[str]:
    lines, flags = [], []
    for workload, metrics in summary.items():
        lines.append(f"{workload}:")
        for name, s in metrics.items():
            bound = bounds.get(name)
            note = ""
            if bound is not None and name != "setup_s" and s["iqr_over_median"] > bound / 3:
                note = f"  SPREAD > bound/3 ({bound / 3:.3f})"
                flags.append(f"{workload}/{name}")
            if previous is not None and name in previous.get(workload, {}):
                old = previous[workload][name]["median"]
                change = (s["median"] - old) / old if old else 0.0
                worse = change if better.get(name) == "lower" else -change
                note += f"  vs previous {change:+.3%}"
                if bound is not None and worse > bound:
                    note += "  WORSE > bound"
                    flags.append(f"{workload}/{name} vs previous")
            lines.append(
                f"  {name:32s} median {s['median']:12.4f} {s['unit']:9s} "
                f"q1 {s['q1']:12.4f} q3 {s['q3']:12.4f} "
                f"iqr/median {s['iqr_over_median']:.4f}{note}"
            )
    lines.append("flags: " + (", ".join(flags) if flags else "none"))
    return lines


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_out" / "steady.json")
    parser.add_argument("--compare", type=Path)
    args = parser.parse_args(argv)

    runs: dict[str, list[dict]] = {w["name"]: [] for w in config["workloads"]}
    failures = 0
    for index in range(args.runs):
        for workload in runs:
            result, context = one_run(workload, args.seed_base + index, config["run_seconds"])
            failures += not result["correct"] or result["failed"] > 0
            runs[workload].append(result)
            calib = context["host.calib_ms"]
            print(f"run {index + 1}/{args.runs} {workload}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"wall={context['wall_s']:.1f}s host.calib_ms="
                  f"{calib['before']:.2f}/{calib['after']:.2f}", flush=True)

    summary = summarise(runs)
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    better = {m["name"]: m["better"] for m in config["end_to_end"]}
    previous = json.loads(args.compare.read_text())["summary"] if args.compare else None
    print("\n".join(report(summary, bounds, better, previous)))
    args.out.parent.mkdir(exist_ok=True)
    args.out.write_text(json.dumps({"args": vars(args) | {"out": str(args.out), "compare": str(args.compare)},
                                    "summary": summary}, indent=1))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
