"""Workload definitions, set-up and the untraced end-to-end measurement.

Everything here calls `stabkit` through its public functions; nothing in the
package is patched or instrumented.  A batch is one public call
(`montecarlo.sweep`, or `montecarlo.threshold_scan` for the threshold
workload) on inputs derived from the run's seed.

The machine this was tuned on is a 2-vCPU guest whose host slows it by up
to 2x, in bursts of tens of milliseconds and in spells lasting most of a
30-second run.  A median over calls moved 10-35% between runs.  Two things
steady the timings:

* Bursts: a run makes PASSES passes.  The first runs new batches for its
  share of the time; each later pass replays the same batches, on freshly
  built codes and decoders so that no object carries a cache from one
  repeat to the next.  Repeats of a batch are seconds apart, and each batch
  counts at its fastest repeat.
* Spells: every timed call and set-up probe is bracketed by a fixed
  pure-Python reference loop that never calls stabkit, and its time is
  scaled by REFERENCE_LOOP_S over that loop's mean time.  Timings therefore
  read as if on a machine where the loop takes REFERENCE_LOOP_S (the
  tuning machine at full speed); a slow spell slows call and loop alike.
  Calls that run in pool workers are not scaled: scaling them widened the
  spread of the threshold scan's throughput from about 0.1 to 0.28.

Throughput is all distinct trials over the sum of the batches' fastest
scaled times.
"""

from __future__ import annotations

import math
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from stabkit import code_library, decoders, montecarlo, noise, pauli

PASSES = 5
SETUP_PROBES = 7
PROBE = Path(__file__).with_name("setup_probe.py")
REFERENCE_LOOP_S = 0.004


@dataclass(frozen=True)
class Workload:
    name: str
    codes: tuple[str, ...]  # code_library names; several means a threshold scan
    decoder: str  # "lookup" or "mwpm"
    noise_kind: str  # a montecarlo.sweep noise kind
    p_values: tuple[float, ...]
    trials: int  # per code and p point, per public call
    workers: int

    @property
    def is_scan(self) -> bool:
        return len(self.codes) > 1

    @property
    def distances(self) -> list[int]:
        return [int(name.removeprefix("surface_d")) for name in self.codes]

    @property
    def call_trials(self) -> int:
        return self.trials * len(self.codes) * len(self.p_values)

    def noise_model(self, p: float) -> noise.NoiseModel:
        if self.noise_kind == "depolarizing":
            return noise.depolarizing(p)
        return noise.iid_xz(p, p)


# Why each workload was chosen is in README.md.  The threshold grid adds .07
# and .12 to .08-.11 so that it brackets every pairwise crossing of the seed
# decoder's curves: on .08-.11 alone a 600-trial scan sometimes finds no
# crossing, and threshold_scan then raises.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("lookup_small", ("shor_nine",), "lookup", "depolarizing",
                 (0.01, 0.02, 0.05, 0.10), trials=500, workers=1),
        Workload("mwpm_subthreshold", ("surface_d7",), "mwpm", "iid_xz",
                 (0.01, 0.02, 0.03), trials=50, workers=1),
        Workload("mwpm_threshold", ("surface_d3", "surface_d5", "surface_d7"), "mwpm",
                 "iid_xz", (0.07, 0.08, 0.09, 0.10, 0.11, 0.12), trials=600, workers=2),
    )
}


def build_code(name: str):
    return code_library.get_code(name)


def build_decoder(kind: str, code):
    if kind == "lookup":
        return decoders.LookupDecoder(code)
    return decoders.MwpmDecoder(code)


def warm_up(wl: Workload, code, decoder) -> None:
    """One call of every hot function, so lazy caches are paid in set-up."""
    rng = random.Random(noise.derive_seed(0, 0))
    error = noise.sample(wl.noise_model(wl.p_values[-1]), code.n, rng)
    value = code.syndrome_value(error)
    try:
        recovery = decoder.decode_value(value)
    except decoders.DecoderError:
        recovery = pauli.identity(code.n)
    code.in_stabilizer_group(pauli.multiply(recovery, error))


def setup(wl: Workload) -> list[tuple[object, object]]:
    """Codes and decoders built and warmed: ready for the first trial."""
    built = []
    for name in wl.codes:
        code = build_code(name)
        decoder = build_decoder(wl.decoder, code)
        warm_up(wl, code, decoder)
        built.append((code, decoder))
    return built


def call_seeds(wl: Workload, seed: int):
    """Endless stream of master seeds for the run's batches."""
    rng = random.Random(f"{wl.name}/{seed}")
    while True:
        yield rng.getrandbits(62)


def one_call(wl: Workload, built, master_seed: int) -> dict:
    """Time one public call; return its (trials, failures, decoder failures)
    per (code, p) point."""
    start = time.perf_counter()
    p_threshold = None
    if wl.is_scan:
        scan = montecarlo.threshold_scan(
            wl.distances, list(wl.p_values), wl.trials, master_seed, workers=wl.workers
        )
        reports = list(scan.reports.values())
        p_threshold = scan.p_threshold
    else:
        code, decoder = built[0]
        reports = [
            montecarlo.sweep(
                code, decoder, wl.noise_kind, list(wl.p_values), wl.trials, master_seed,
                workers=wl.workers,
            )
        ]
    elapsed = time.perf_counter() - start
    counts = {
        (rep.code, pt.p): (pt.trials, pt.failures, pt.decoder_failures)
        for rep in reports
        for pt in rep.points
    }
    return {"elapsed": elapsed, "counts": counts, "p_threshold": p_threshold}


def reference_loop_seconds() -> float:
    """Time of a fixed loop shaped like a trial (RNG draws, bit masks, a
    dict); it touches no stabkit code, so only the machine can move it."""
    start = time.perf_counter()
    table = {}
    for i in range(400):
        rng = random.Random(i)
        x = 0
        for q in range(20):
            if rng.random() < 0.1:
                x |= 1 << q
        parity = 0
        for g in (3, 5, 9, 17, 33):
            parity ^= ((g & x).bit_count() & 1) << g
        table[x & 255] = (x, parity)
    return time.perf_counter() - start


def probe_setup_seconds(name: str) -> float:
    """Time from starting a fresh interpreter to set-up done (setup_probe.py)."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(PROBE), name], stdout=subprocess.PIPE, text=True
    ) as probe:
        line = probe.stdout.readline()
        elapsed = time.perf_counter() - start
        probe.stdout.read()
    if line.strip() != "ready" or probe.returncode != 0:
        raise RuntimeError(f"set-up probe for {name} failed")
    return elapsed


def reference_scale(before: float, after: float) -> float:
    """Factor taking a time measured between two reference loops to the
    reference speed."""
    return 2 * REFERENCE_LOOP_S / (before + after)


def scaled_probe_seconds(name: str) -> float:
    before = reference_loop_seconds()
    elapsed = probe_setup_seconds(name)
    return elapsed * reference_scale(before, reference_loop_seconds())


def run_end_to_end(wl: Workload, seed: int, seconds: float) -> dict:
    """PASSES passes over the run's batches, about `seconds` of calls in all.

    SETUP_PROBES set-up probes run between calls, spread over the run so
    that one slow spell on the machine cannot hold all of them; their time
    does not count against `seconds`.  The pool workers' peak memory is read
    after the first call, before any probe (also a child process) has run.
    """
    seeds = call_seeds(wl, seed)
    batch_seeds: list[int] = []
    first: list[dict | None] = []  # each batch's first result
    best: list[float] = []  # each batch's fastest call
    problems, setup_times, loop_times = [], [], []
    attempted = failed = 0
    child_peak_kb = None
    start = time.perf_counter()
    probe_seconds = 0.0

    def measured() -> float:
        return time.perf_counter() - start - probe_seconds

    for pass_index in range(PASSES):
        index = 0
        while index < len(batch_seeds) or (
            pass_index == 0 and (index == 0 or measured() < seconds / PASSES)
        ):
            if pass_index == 0:
                batch_seeds.append(next(seeds))
            built = [] if wl.is_scan else setup(wl)  # threshold_scan builds its own
            attempted += wl.call_trials
            before = reference_loop_seconds()
            try:
                result = one_call(wl, built, batch_seeds[index])
            except ValueError:
                # threshold_scan raises when no pair of curves crosses on the grid.
                failed += wl.call_trials
                result = None
            after = reference_loop_seconds()
            loop_times += [before, after]
            # The loop runs on this process's vCPU and says nothing about
            # pool workers, so their calls are left unscaled.
            scale = reference_scale(before, after) if wl.workers == 1 else 1.0
            elapsed = result["elapsed"] * scale if result else math.inf
            if pass_index == 0:
                first.append(result)
                best.append(elapsed)
            else:
                best[index] = min(best[index], elapsed)
                if (result and result["counts"]) != (first[index] and first[index]["counts"]):
                    problems.append(f"batch {index}: a repeat on identical inputs gave other counts")
            if child_peak_kb is None:
                child_peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            while len(setup_times) < SETUP_PROBES and (
                measured() >= len(setup_times) * seconds / SETUP_PROBES
            ):
                probe_start = time.perf_counter()
                setup_times.append(scaled_probe_seconds(wl.name))
                probe_seconds += time.perf_counter() - probe_start
            index += 1
    while len(setup_times) < SETUP_PROBES:
        setup_times.append(scaled_probe_seconds(wl.name))

    totals: dict[tuple[str, float], list[int]] = {}
    for result in filter(None, first):
        for key, point in result["counts"].items():
            acc = totals.setdefault(key, [0, 0, 0])
            for i, value in enumerate(point):
                acc[i] += value
    trials = sum(acc[0] for acc in totals.values())
    decoder_failures = sum(acc[2] for acc in totals.values())
    best_seconds = sum(t for t in best if t < math.inf)
    thresholds = sorted(r["p_threshold"] for r in filter(None, first) if r["p_threshold"])
    own_peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    pool_peak_kb = wl.workers * child_peak_kb if wl.workers > 1 else 0
    return {
        "batches": len(batch_seeds),
        "attempted": attempted,
        "failed": failed,
        "decoder_failures": decoder_failures,
        "totals": totals,
        "problems": problems,
        "trials_per_s": trials / best_seconds if best_seconds else 0.0,
        "setup_s": statistics.median(setup_times),
        "decoded_share": (trials - decoder_failures) / trials if trials else 0.0,
        # Pool workers each counted at the largest worker's peak: getrusage
        # keeps only the maximum over children.
        "peak_rss_mb": (own_peak_kb + pool_peak_kb) / 1024.0,
        "p_threshold": thresholds[len(thresholds) // 2] if thresholds else None,
        "reference_loop_ms": statistics.median(loop_times) * 1e3,
    }
