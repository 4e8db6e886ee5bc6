"""Regenerate perfbench/reference.json, the data the correctness gates use.

    python3 perfbench/make_reference.py

* lookup_small: the failing-weight enumerator of the full Shor lookup
  table, from all 4^9 Paulis.
* MWPM workloads: high-trial logical rates per code and p from
  `montecarlo.sweep` (a few minutes on 2 cores).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from stabkit import montecarlo  # noqa: E402

import gates  # noqa: E402
import workloads  # noqa: E402

MASTER_SEED = 20190725
TRIALS = {"mwpm_subthreshold": 100_000, "mwpm_threshold": 40_000}


def main() -> None:
    reference = {}
    for wl in workloads.WORKLOADS.values():
        built = workloads.setup(wl)
        if wl.decoder == "lookup":
            code, decoder = built[0]
            reference[wl.name] = {
                "code": code.name,
                "failing_weight_enumerator": gates.failing_weight_enumerator(code, decoder),
            }
            continue
        points = {}
        for code, decoder in built:
            report = montecarlo.sweep(
                code,
                decoder,
                wl.noise_kind,
                list(wl.p_values),
                TRIALS[wl.name],
                MASTER_SEED,
                workers=2,
            )
            points[code.name] = {
                repr(pt.p): {
                    "trials": pt.trials,
                    "failures": pt.failures,
                    "decoder_failures": pt.decoder_failures,
                }
                for pt in report.points
            }
            print(f"{wl.name} {code.name} done", file=sys.stderr, flush=True)
        reference[wl.name] = {"master_seed": MASTER_SEED, "points": points}
    gates.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
