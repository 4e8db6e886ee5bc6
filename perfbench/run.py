"""stabkit Monte Carlo benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With --trace 0 it times the public
`montecarlo.sweep` / `montecarlo.threshold_scan` calls and prints the
end-to-end metrics; with --trace 1 it runs the traced replica of the trial
loop (layers.py) and prints the per-layer metrics.  Both check their
results (gates.py).  The last line of stdout is the result object; the line
before it records how the result was produced.  Exits 1 when a gate fails
and 2 when stabkit's sources are not beside the benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _git_sha() -> str | None:
    """HEAD read from .git without running git (a checkout may have none)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "stabkit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "stabkit" / "__init__.py").is_file():
        print(f"perfbench: no stabkit sources at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gates
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    reference = gates.load_reference()

    record = {
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "codes": list(wl.codes),
        "decoder": wl.decoder,
        "noise": wl.noise_kind,
        "p_grid": list(wl.p_values),
        "trials_per_point": wl.trials,
        "workers": wl.workers,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "networkx": _version("networkx"),
    }
    if args.trace:
        traced = layers.run_traced(wl, args.seed, args.seconds)
        problems = traced["problems"] + gates.rate_problems(wl.name, traced["totals"], reference)
        attempted, failed = traced["attempted"], 0
        metrics = traced["metrics"]
    else:
        run = workloads.run_end_to_end(wl, args.seed, args.seconds)
        problems = run["problems"] + gates.rate_problems(wl.name, run["totals"], reference)
        attempted, failed = run["attempted"], run["failed"]
        record.update(
            batches=run["batches"],
            passes=workloads.PASSES,
            decoder_failures=run["decoder_failures"],
            p_threshold=run["p_threshold"],  # informational, not a metric
            reference_loop_ms=run["reference_loop_ms"],
        )
        metrics = {
            "trials_per_s": (run["trials_per_s"], "trials/s"),
            "setup_s": (run["setup_s"], "s"),
            "decoded_share": (run["decoded_share"], "fraction"),
            "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        }
    record["trials"] = attempted
    record["gate_problems"] = problems
    for problem in problems:
        print(f"perfbench: gate failed: {problem}", file=sys.stderr)
    print(json.dumps({"record": record}))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
