"""chebknot benchmark: end-to-end and per-layer metrics on four workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload census --seed 1 --seconds 15 --trace 0

It builds nothing and installs nothing: the library is imported from the
checkout's src/ directory, and the run fails (non-zero exit, no result)
when that directory is missing.  The seed fixes the inputs; the library
only ever sees the generated values.

Workloads (see BENCHMARK.json for why each is there):
  census    all 1,364 knots with N <= 12, seed-shuffled; op = parametrization
            ("construct") then verify_parametrization ("certify").
  giants    48 knots with 100 <= N <= 2001 (families and random alpha/beta,
            one per N bin, plus 2001/1); same op as census.
  harmonic  classify on the 48,082 admissible (b, c) <= 400 plus a 1% tail of
            large-c pairs, seed-shuffled.
  cli       `python -m chebknot <verb> ... --format json`, one subprocess at a
            time, after one `atlas --b-max 400 --c-max 400`.

End-to-end metrics (--trace 0), each reported on every workload.  A run
makes passes over one seeded input list while the next pass still ends
within --seconds (at least 2), each pass (except on cli) in a fresh
interpreter, and keeps every op time of every pass.  Op times are CPU time
(user + system) of the process running the op, which leaves out the time
a shared host takes the CPU away (see workloads.untraced).
  setup_s      median CPU time of `import chebknot` in fresh interpreters,
               6 before the first pass and one after every pass
  peak_rss_mb  peak RSS of the process running the library (the pass's
               interpreter; on cli the largest CLI subprocess)
  ops_per_s    answers per second of the timed op: construct + certify
               (census), construct (giants), classify (harmonic), one CLI
               subprocess (cli)
  p50_ms, p90_ms  quantiles of the timed op's time over all ops of all passes
The cli run also times and checks one 400x400 atlas subprocess and prints
its time, unbounded.

Per-layer metrics (--trace 1) come from a separate run with a span around
each public stage function; see workloads.traced.  Both modes print a
human-readable report, a failure ledger and, last, one JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("census", "giants", "harmonic", "cli")
HASH_SEED = "0"


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def declared_metrics() -> tuple[dict, dict]:
    """(end_to_end, per_layer) name -> declaration, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m for m in spec["end_to_end"]},
            {m["name"]: m for m in spec["per_layer"]})


def _fmt(value) -> str:
    return str(value) if isinstance(value, int) else repr(float(value))


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "chebknot" / "__init__.py").is_file():
        print(f"bench: no chebknot sources under {SRC}", file=sys.stderr)
        return 2
    end_to_end, per_layer = declared_metrics()
    sys.path.insert(0, str(SRC))
    import chebknot
    import workloads

    if Path(chebknot.__file__).resolve().parent != SRC / "chebknot":
        print(f"bench: imported chebknot from {chebknot.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.trace:
        result = workloads.traced(args.workload, args.seed, args.seconds)
        declared = per_layer
    else:
        result = workloads.untraced(args.workload, args.seed, args.seconds)
        result.properties.update(workloads.loc_counts())
        declared = end_to_end
    if set(result.metrics) != set(declared):
        print(f"bench: metrics {sorted(set(result.metrics) ^ set(declared))} "
              "differ from BENCHMARK.json", file=sys.stderr)
        return 1

    tally = result.tally
    print(f"chebknot bench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for note in result.notes:
        print(note)
    for name, value in result.metrics.items():
        print(f"metric {name} {_fmt(value)} {declared[name]['unit']}")
    for name, value in result.properties.items():
        print(f"metric {name} {_fmt(value)} {per_layer[name]['unit']}")
    refused = sum(tally.refused.values())
    print(f"ledger {args.workload}: {tally.attempted} attempted, {tally.failed} failed, "
          f"{refused} refused ({dict(tally.refused)})")
    for (what, kind), (count, detail) in sorted(tally.ledger.items()):
        print(f"ledger {args.workload} {what} {kind} x{count}: {detail}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": declared[name]["unit"]}
                    for name, value in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    # String-hash randomization moves the library's speed by up to a third
    # from one interpreter to the next, so every interpreter that runs it
    # (this one, re-executed once, and its children) uses one hash seed.
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    sys.exit(main())
