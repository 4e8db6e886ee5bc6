"""Code-cycle Monte Carlo: logical-error-rate estimation, sweeps over
physical rates and threshold-crossing scans.

Determinism contract: trial i of a point draws from the counter-based
SplitMix64 stream that starts at ``derive_seed(point_seed, i)`` (see
`noise`), and per-point seeds derive from the master seed, so a report is
bit-identical for a fixed master seed no matter how trials are split into
tasks, ordered over workers or sliced into batches.  Failure counts are
plain sums, so aggregation order cannot matter either.

A call is planned once, as batches of at most `rows` trials: consecutive
points on one code and decoder share them, each point's trials in order.
In-process `rows` is _SLICE_TRIALS; in a pool it shrinks so that every
worker gets at least two batches.  The same batches run in a loop or as
the tasks of the call's one process pool (none for a small call, see
_IN_PROCESS_QUBIT_TRIALS), largest code and then highest p first.  A batch
draws each point's piece on its own as bool X and Z arrays, gathers all
its rows' syndromes and logical classes (`StabilizerCode.parity_batch`),
decodes (`decode_batch`) and classifies them at once, and tallies each
piece; this is the only cycle implementation.
It builds no recovery: a trial fails where the decoder gives up (only a
truncated lookup table does, on a syndrome it misses) or picks another
logical class than the error's.
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import reduce

import numpy as np

from . import __version__
from .code_library import surface_code
from .decoders import MwpmDecoder
from .noise import CHANNELS, NoiseModel, derive_seed, sample_batch
from .stabilizer_code import StabilizerCode

_Z95 = 1.959963984540054
# Rows per batch: a sweep's points share batches, so 2048 lets a 4 x 500
# Shor sweep run as one batch; the largest array, the 2048 x n uint64 draw
# words, is still only 6.9 MB at d15 (n = 421).
_SLICE_TRIALS = 2048
# One batch of at most this many trials x qubits runs in-process: on 2 vCPUs
# that took 0.8-1.15x the time of 2 workers up to d15 (2,048 x 421), 1.33x at d20.
_IN_PROCESS_QUBIT_TRIALS = 2**19
_CSV_HEADER = "p,trials,failures,p_L,ci_low,ci_high"


@dataclass(frozen=True)
class RatePoint:
    p: float
    trials: int
    failures: int
    p_l: float
    ci_low: float
    ci_high: float
    seed: int
    discarded: int = 0
    decoder_failures: int = 0


def _csv_row(pt: RatePoint) -> str:
    """One point under _CSV_HEADER; floats as repr, so reruns are byte-identical."""
    return f"{pt.p!r},{pt.trials},{pt.failures},{pt.p_l!r},{pt.ci_low!r},{pt.ci_high!r}"


@dataclass
class SimulationReport:
    code: str
    decoder: str
    noise: str
    master_seed: int
    points: list[RatePoint]
    wall_time_s: float = 0.0
    version: str = field(default_factory=lambda: f"stabkit-{__version__}")

    def to_csv(self) -> str:
        lines = [_CSV_HEADER] + [_csv_row(pt) for pt in self.points]
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def wilson_interval(failures: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval; well behaved at sub-threshold counts."""
    if trials == 0:
        return 0.0, 1.0
    phat, z = failures / trials, _Z95
    denom = 1.0 + z * z / trials
    centre = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4 * trials**2)) / denom
    low = 0.0 if failures == 0 else max(0.0, centre - half)
    high = 1.0 if failures == trials else min(1.0, centre + half)
    return low, high


def _run_trials(args) -> np.ndarray:
    """(failures, kept, discarded, decoder failures) of each piece of one
    batch (code, decoder, pieces), as a (pieces, 4) int64 array; a None
    decoder post-selects.  A piece (noise, point_seed, start, stop) is
    trials start..stop-1 of one point, start < stop, drawn on its own."""
    code, decoder, pieces = args
    syndromes, error_classes = code.parity_batch(*sample_batch(code.n, pieces))
    if decoder is None:
        # Repeat-until-success: nonzero syndromes are discarded, and the
        # zero-syndrome recovery is the identity, of class zero.
        kept = ~syndromes.any(axis=1)
        classes, failed = False, np.zeros(len(syndromes), dtype=bool)
    else:
        kept = np.ones(len(syndromes), dtype=bool)
        classes, failed = decoder.decode_batch(syndromes)
    # Column by column: `.any(axis=1)` is several times slower on 2k columns.
    wrong = reduce(np.logical_or, (error_classes != classes).T, failed)
    tally = np.stack((wrong & kept, kept, ~kept, failed))
    offsets = np.cumsum([0] + [b - a for *_, a, b in pieces[:-1]])
    return np.add.reduceat(tally, offsets, axis=1, dtype=np.int64).T


def estimate_logical_rate(
    code: StabilizerCode,
    decoder,
    noise: NoiseModel,
    trials: int,
    master_seed: int,
    workers: int = 1,
) -> RatePoint:
    """failures/kept with a 95% Wilson interval.

    A None decoder post-selects (detection codes): it discards
    nonzero-syndrome trials and reports them in `discarded`; `trials` in
    the returned point is then the kept count.  A decoder failure counts
    as a logical failure and is also tallied in `decoder_failures`: a
    syndrome missing from a truncated lookup table.  MWPM solves every
    matching component exactly, so it never gives up.
    """
    return _estimate_points([(code, decoder, noise, master_seed)], trials, workers)[0]


def _estimate_points(jobs, trials: int, workers: int) -> list[RatePoint]:
    """`estimate_logical_rate` of each (code, decoder, noise, point_seed) job.
    The only place a call is split: into the batches of the module docstring,
    each one `_run_trials` task, whose pieces' counts add up per job."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    workers = min(workers, os.cpu_count() or 1)  # a fork pool starts every worker at once
    total, qubit_trials = len(jobs) * trials, trials * sum(job[0].n for job in jobs)
    if total <= _SLICE_TRIALS and qubit_trials <= _IN_PROCESS_QUBIT_TRIALS:
        workers = 1  # a small call: starting a pool costs more than it saves
    rows = min(_SLICE_TRIALS, math.ceil(total / (2 * workers))) if workers > 1 else _SLICE_TRIALS
    plan, free = [], 0  # batches (code, decoder, pieces, job indices); room left in the last
    for index, (code, decoder, noise, seed) in enumerate(jobs):
        start = 0
        while start < trials:
            if not free or plan[-1][0] is not code or plan[-1][1] is not decoder:
                plan.append((code, decoder, [], []))
                free = rows
            stop = min(trials, start + free)
            plan[-1][2].append((noise, seed, start, stop))
            plan[-1][3].append(index)
            free, start = free - (stop - start), stop
    # Largest code and then highest p (of the last piece) first.
    plan.sort(key=lambda batch: (-batch[0].n, -batch[2][-1][0].headline_rate))
    tasks = [batch[:3] for batch in plan]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            counts = list(pool.map(_run_trials, tasks))
    else:
        counts = map(_run_trials, tasks)
    totals = [[0] * 4 for _ in jobs]
    for batch, tally in zip(plan, counts):
        for owner, row in zip(batch[3], tally.tolist()):
            totals[owner] = [a + b for a, b in zip(totals[owner], row)]
    points = []
    for job, (failures, kept, discarded, decoder_failures) in zip(jobs, totals):
        low, high = wilson_interval(failures, kept)
        points.append(
            RatePoint(
                p=job[2].headline_rate,
                trials=kept,
                failures=failures,
                p_l=failures / kept if kept else 0.0,
                ci_low=low,
                ci_high=high,
                seed=job[3],
                discarded=discarded,
                decoder_failures=decoder_failures,
            )
        )
    return points


def _run_sweeps(runs, noise_kind: str, p_values: list[float], trials: int, workers: int):
    """One `sweep` report per (code, decoder, master_seed) run, all run in
    one `_estimate_points` call; each report carries the call's wall time.
    The grid is made floats first, so ints write the same CSV bytes."""
    p_values = [float(p) for p in p_values]
    if noise_kind not in CHANNELS:
        raise ValueError(f"unknown noise kind {noise_kind!r}")
    if not p_values:
        raise ValueError("empty p grid")
    if any(b <= a for a, b in zip(p_values, p_values[1:])):
        raise ValueError("p grid must be strictly increasing")
    jobs = [
        (code, decoder, CHANNELS[noise_kind](p), derive_seed(seed, index))
        for code, decoder, seed in runs
        for index, p in enumerate(p_values)
    ]
    start = time.perf_counter()
    points = iter(_estimate_points(jobs, trials, workers))
    wall_time_s = time.perf_counter() - start
    reports = []
    for code, decoder, seed in runs:
        name, run_points = decoder.name if decoder else "none", [next(points) for _ in p_values]
        reports.append(SimulationReport(code.name, name, noise_kind, seed, run_points, wall_time_s))
    return reports


def sweep(
    code: StabilizerCode,
    decoder,
    noise_kind: str,
    p_values: list[float],
    trials: int,
    master_seed: int,
    workers: int = 1,
) -> SimulationReport:
    """One RatePoint per p under the channel `noise.CHANNELS[noise_kind]`;
    the grid must be strictly increasing.  A None decoder post-selects, as
    in `estimate_logical_rate`."""
    return _run_sweeps([(code, decoder, master_seed)], noise_kind, p_values, trials, workers)[0]


# --- threshold scan ----------------------------------------------------------


@dataclass(frozen=True)
class CrossingEstimate:
    lam_a: int
    lam_b: int
    p_cross: float
    sigma: float


@dataclass
class ThresholdScan:
    reports: dict[int, SimulationReport]
    crossings: list[CrossingEstimate]
    p_threshold: float
    sigma: float

    def to_csv(self) -> str:
        lines = ["code," + _CSV_HEADER]
        for lam in sorted(self.reports):
            rep = self.reports[lam]
            lines += [f"{rep.code},{_csv_row(pt)}" for pt in rep.points]
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        fields = asdict(self)
        # Distances become text keys, so "11" sorts before "3".
        fields["reports"] = {str(lam): rep for lam, rep in fields["reports"].items()}
        return json.dumps(fields, indent=2, sort_keys=True)


def _log_rate(pt: RatePoint) -> tuple[float, float]:
    """log p_L with its standard error; zero-failure points get a 0.5 floor."""
    failures = max(pt.failures, 0.5)
    p = failures / pt.trials
    sigma = math.sqrt(p * (1.0 - p) / pt.trials) / p
    return math.log(p), sigma


def threshold_scan(
    distances: list[int],
    p_values: list[float],
    trials: int,
    master_seed: int,
    workers: int = 1,
) -> ThresholdScan:
    """Sweep surface codes of the given (distinct) distances with MWPM
    under independent X/Z noise, then estimate the threshold as the mean of
    the pairwise crossings of the logical-rate curves (log-linear
    interpolation between adjacent grid points).

    Every (distance, p) point runs in one call, so points of different
    distances interleave in one pool: each report carries the whole scan's
    `wall_time_s`, which leaves out the codes' and decoders' builds.
    """
    if len(distances) < 2:
        raise ValueError("need at least two distances to locate a crossing")
    if len(set(distances)) != len(distances):
        raise ValueError("distances must be distinct")
    codes = [surface_code(lam) for lam in distances]
    runs = [(c, MwpmDecoder(c), derive_seed(master_seed, lam)) for c, lam in zip(codes, distances)]
    reports = dict(zip(distances, _run_sweeps(runs, "iid_xz", p_values, trials, workers)))
    crossings = []
    for i, lam_a in enumerate(distances):
        for lam_b in distances[i + 1 :]:
            cross = _pair_crossing(reports[lam_a], reports[lam_b], lam_a, lam_b)
            if cross is not None:
                crossings.append(cross)
    if not crossings:
        raise ValueError("no crossing in range: the p grid never reverses the curve order")
    p_th = sum(c.p_cross for c in crossings) / len(crossings)
    sigma = math.sqrt(sum(c.sigma**2 for c in crossings)) / len(crossings)
    return ThresholdScan(reports=reports, crossings=crossings, p_threshold=p_th, sigma=sigma)


def _pair_crossing(
    rep_a: SimulationReport, rep_b: SimulationReport, lam_a: int, lam_b: int
) -> CrossingEstimate | None:
    """First sign change of log p_L(a) - log p_L(b) along the grid.

    Points where neither curve saw a failure are skipped: both sit on the
    0.5-failure floor, so their difference says nothing about the order.
    """
    deltas = []
    for pa, pb in zip(rep_a.points, rep_b.points):
        if pa.failures == 0 and pb.failures == 0:
            continue
        (la, sa), (lb, sb) = _log_rate(pa), _log_rate(pb)
        deltas.append((pa.p, la - lb, math.hypot(sa, sb)))
    for (p0, d0, u0), (p1, d1, u1) in zip(deltas, deltas[1:]):
        if d0 == 0.0:
            denom = abs(d1 - d0) or 1.0
            return CrossingEstimate(lam_a, lam_b, p0, u0 * (p1 - p0) / denom)
        if (d0 > 0.0) != (d1 > 0.0):
            h = p1 - p0
            denom = d0 - d1
            p_cross = p0 + h * d0 / denom
            dda = h * (-d1) / denom**2
            ddb = h * d0 / denom**2
            sigma = math.hypot(dda * u0, ddb * u1)
            return CrossingEstimate(lam_a, lam_b, p_cross, sigma)
    return None
