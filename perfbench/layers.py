"""Traced run: the benchmark's own replica of the trial loop, timing each
call into a layer's public function.

Spans per trial (nanosecond clock, kept in memory):
  noise.seed       derive_seed + random.Random
  noise.sample     noise.sample
  syndrome         StabilizerCode.syndrome_value
  decode           decoder.decode_value
  classify         pauli.multiply + StabilizerCode.in_stabilizer_group
After the spans, an inspection step (timed separately and excluded from the
tracing overhead) checks the recovery and, for MWPM, re-solves each
sector's `matching_problems` instance with `minimum_weight_matching`.
Each round of trials is then replayed without timers; the difference is
the tracing overhead.
"""

from __future__ import annotations

import random
import statistics
import time
from time import perf_counter_ns as ns

from stabkit import decoders, montecarlo, noise, pauli
from stabkit.stabilizer_code import Syndrome

import gates
import workloads

REPEATS = 5  # build and pool-start timings report the median of this many


def _plan_round(wl, seeds, per_point):
    return [
        (index, p, next(seeds), per_point)
        for index in range(len(wl.codes))
        for p in wl.p_values
    ]


class _Tally:
    """Counters and spans accumulated over the traced trials."""

    def __init__(self):
        self.span_ns = dict.fromkeys(("seed", "sample", "syndrome", "decode", "classify"), 0)
        self.decode_ns: list[int] = []
        self.matching_ns = self.inspect_ns = 0
        self.trials = self.zero = self.failures = 0
        self.sectors = self.max_defects = self.max_component = 0
        self.sector_keys: set = set()
        self.totals: dict = {}
        self.problems: list[str] = []


def _inspect(tally, code, decoder, is_mwpm, value, recovery):
    tally.zero += value == 0
    if recovery is None:
        tally.failures += 1
    elif code.syndrome_value(recovery) != value:
        tally.problems.append(f"{code.name}: recovery leaves syndrome {value:#x} uncleared")
    if not is_mwpm:
        tally.sectors += 1
        tally.sector_keys.add((code.name, value))
        return
    for sector, problem in decoder.matching_problems(Syndrome.from_int(value, code.m)).items():
        k = len(problem.boundary_costs)
        tally.sectors += 1
        tally.sector_keys.add((code.name, sector, tuple(d[0] for d in problem.defects)))
        tally.max_defects = max(tally.max_defects, k)
        tally.max_component = max(tally.max_component, gates.largest_component(problem))
        start = ns()
        try:
            cost, _ = decoders.minimum_weight_matching(problem.pair_costs, problem.boundary_costs)
        except decoders.DecoderError:
            cost = None
        tally.matching_ns += ns() - start
        if cost is not None and k <= gates.BRUTE_FORCE_MAX_DEFECTS:
            exact = gates.brute_force_matching(problem.pair_costs, problem.boundary_costs)
            if cost != exact:
                tally.problems.append(
                    f"{code.name} {sector}: matching cost {cost}, brute force {exact}"
                )


def _traced_point(tally, wl, built, index, p, point_seed, count):
    code, decoder = built[index]
    model, n, is_mwpm = wl.noise_model(p), code.n, wl.decoder == "mwpm"
    span = tally.span_ns
    acc = tally.totals.setdefault((code.name, p), [0, 0, 0])
    for i in range(count):
        t0 = ns()
        rng = random.Random(noise.derive_seed(point_seed, i))
        t1 = ns()
        error = noise.sample(model, n, rng)
        t2 = ns()
        value = code.syndrome_value(error)
        t3 = ns()
        try:
            recovery = decoder.decode_value(value)
        except decoders.DecoderError:
            recovery = None
        t4 = ns()
        ok = recovery is not None and code.in_stabilizer_group(pauli.multiply(recovery, error))
        t5 = ns()
        span["seed"] += t1 - t0
        span["sample"] += t2 - t1
        span["syndrome"] += t3 - t2
        span["decode"] += t4 - t3
        span["classify"] += t5 - t4
        tally.decode_ns.append(t4 - t3)
        tally.trials += 1
        acc[0] += 1
        acc[1] += not ok
        acc[2] += recovery is None
        _inspect(tally, code, decoder, is_mwpm, value, recovery)
        tally.inspect_ns += ns() - t5


def _untraced_replay(wl, built, plan) -> int:
    start = ns()
    for index, p, point_seed, count in plan:
        code, decoder = built[index]
        model, n = wl.noise_model(p), code.n
        for i in range(count):
            rng = random.Random(noise.derive_seed(point_seed, i))
            error = noise.sample(model, n, rng)
            value = code.syndrome_value(error)
            try:
                recovery = decoder.decode_value(value)
            except decoders.DecoderError:
                continue
            code.in_stabilizer_group(pauli.multiply(recovery, error))
    return ns() - start


def _median_seconds(fn) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _pool_start_s(wl, built) -> float:
    """workers=N minus workers=1 time of estimate_logical_rate on 16 trials."""
    if wl.workers < 2:
        return 0.0
    code, decoder = built[-1]
    model = wl.noise_model(wl.p_values[0])
    diffs = []
    for seed in range(REPEATS):
        t0 = time.perf_counter()
        montecarlo.estimate_logical_rate(code, decoder, model, 16, seed, workers=1)
        t1 = time.perf_counter()
        montecarlo.estimate_logical_rate(code, decoder, model, 16, seed, workers=wl.workers)
        t2 = time.perf_counter()
        diffs.append((t2 - t1) - (t1 - t0))
    return statistics.median(diffs)


def run_traced(wl, seed: int, seconds: float) -> dict:
    built = workloads.setup(wl)
    codes = [code for code, _ in built]
    code_build_s = _median_seconds(lambda: [workloads.build_code(c) for c in wl.codes])
    decoder_build_s = _median_seconds(
        lambda: [workloads.build_decoder(wl.decoder, c) for c in codes]
    )
    pool_start_s = _pool_start_s(wl, built)

    seeds = workloads.call_seeds(wl, seed)
    per_point = max(1, wl.trials // 10)
    tally = _Tally()
    rounds = traced_ns = untraced_ns = 0
    deadline = ns() + int(seconds * 1e9)
    # Traced and untraced passes alternate round by round, so a slow spell
    # on the machine lands on both sides of the overhead estimate.
    while rounds == 0 or ns() < deadline:
        plan = _plan_round(wl, seeds, per_point)
        start, inspect_before = ns(), tally.inspect_ns
        for item in plan:
            _traced_point(tally, wl, built, *item)
        traced_ns += ns() - start - (tally.inspect_ns - inspect_before)
        untraced_ns += _untraced_replay(wl, built, plan)
        rounds += 1

    t = tally.trials
    decode = sorted(tally.decode_ns)
    per_trial_us = {name: total / t / 1e3 for name, total in tally.span_ns.items()}
    metrics = {
        "noise.seed_us": (per_trial_us["seed"], "us/trial"),
        "noise.sample_us": (per_trial_us["sample"], "us/trial"),
        "stabilizer_code.syndrome_us": (per_trial_us["syndrome"], "us/trial"),
        "stabilizer_code.classify_us": (per_trial_us["classify"], "us/trial"),
        "decoders.decode_us": (per_trial_us["decode"], "us/trial"),
        "decoders.decode_p50_us": (decode[len(decode) // 2] / 1e3, "us"),
        "decoders.decode_p99_us": (decode[min(len(decode) - 1, len(decode) * 99 // 100)] / 1e3, "us"),
        "decoders.decode_samples": (len(decode), "count"),
        "decoders.matching_us": (tally.matching_ns / t / 1e3, "us/trial"),
        "decoders.zero_syndrome_share": (tally.zero / t, "fraction"),
        "decoders.distinct_sector_share": (len(tally.sector_keys) / tally.sectors, "fraction"),
        "decoders.max_defects": (tally.max_defects, "count"),
        "decoders.max_component": (tally.max_component, "count"),
        "decoders.failures": (tally.failures, "count"),
        "montecarlo.pool_start_s": (pool_start_s, "s"),
        "code_library.build_s": (code_build_s, "s"),
        "decoders.build_s": (decoder_build_s, "s"),
        "trace.overhead_share": ((traced_ns - untraced_ns) / untraced_ns, "fraction"),
    }
    return {
        "attempted": t,
        "totals": tally.totals,
        "problems": tally.problems,
        "metrics": metrics,
    }
