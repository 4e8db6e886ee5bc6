"""Code-cycle Monte Carlo: logical-error-rate estimation, sweeps over
physical rates and threshold-crossing scans.

Determinism contract: trial i of a point draws from the counter-based
SplitMix64 stream that starts at ``derive_seed(point_seed, i)`` (see
`noise`), and per-point seeds derive from the master seed, so a report is
bit-identical for a fixed master seed no matter how trials are split into
tasks, ordered over workers or sliced into batches.  Failure counts are
plain sums, so aggregation order cannot matter either.

Each public call opens at most one process pool and submits every task of
every point to it at once, largest code and then highest p first; a point
is split into as few tasks as keep every worker busy.  A task runs its
trials as batches of at most _SLICE_TRIALS: sample, pack, syndrome, decode
and classify each run once per batch on bit-packed arrays
(`StabilizerCode.syndrome_batch`, `decode_batch`,
`StabilizerCode.logical_batch`); this is the only cycle implementation.
It builds no recovery: a trial fails where the decoder gives up or picks
another logical class than the error's.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from . import __version__
from .code_library import surface_code
from .decoders import MwpmDecoder
from .noise import CHANNELS, NoiseModel, derive_seed, sample_batch
from .stabilizer_code import StabilizerCode

_Z95 = 1.959963984540054
# Trials per batch: enough to amortise numpy's per-call cost, few enough
# that a batch's arrays stay a few MB even for large surface codes.
_SLICE_TRIALS = 1024
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
        return json.dumps(
            {
                "code": self.code,
                "decoder": self.decoder,
                "noise": self.noise,
                "master_seed": self.master_seed,
                "version": self.version,
                "wall_time_s": self.wall_time_s,
                "points": [vars(pt) for pt in self.points],
            },
            indent=2,
            sort_keys=True,
        )


def wilson_interval(failures: int, trials: int, z: float = _Z95) -> tuple[float, float]:
    """Wilson score interval; well behaved at the low counts of sub-threshold runs."""
    if trials == 0:
        return 0.0, 1.0
    phat = failures / trials
    denom = 1.0 + z * z / trials
    centre = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4 * trials**2)) / denom
    low = 0.0 if failures == 0 else max(0.0, centre - half)
    high = 1.0 if failures == trials else min(1.0, centre + half)
    return low, high


def _run_trials(args) -> tuple[int, int, int, int]:
    code, decoder, noise, point_seed, start, stop, post_select = args
    failures = kept = discarded = decoder_failures = 0
    for a in range(start, stop, _SLICE_TRIALS):
        b = min(a + _SLICE_TRIALS, stop)
        errors = code.pack_batch(*sample_batch(noise, code.n, point_seed, a, b))
        syndromes = code.syndrome_batch(errors)
        if post_select:
            # Repeat-until-success: nonzero syndromes are discarded, and the
            # zero-syndrome recovery is the identity, of class zero.
            errors = errors[~syndromes.any(axis=1)]
            classes, failed = False, np.zeros(len(errors), dtype=bool)
            discarded += b - a - len(errors)
        else:
            classes, failed = decoder.decode_batch(syndromes)
        # Column by column: `.any(axis=1)` is several times slower on 2k columns.
        wrong = reduce(np.logical_or, (code.logical_batch(errors) != classes).T, failed)
        kept += len(errors)
        failures += int(wrong.sum())
        decoder_failures += int(failed.sum())
    return failures, kept, discarded, decoder_failures


def estimate_logical_rate(
    code: StabilizerCode,
    decoder,
    noise: NoiseModel,
    trials: int,
    master_seed: int,
    post_select: bool = False,
    workers: int = 1,
) -> RatePoint:
    """failures/kept with a 95% Wilson interval.

    Post-selected mode (detection codes) discards nonzero-syndrome trials
    and reports them in `discarded`; `trials` in the returned point is then
    the kept count.  A decoder failure counts as a logical failure and is
    also tallied in `decoder_failures`: a syndrome missing from a truncated
    lookup table, or an MWPM matching component over the cap with defects
    on both sides of the lattice's middle.  A one-sided component (all its
    boundary matches flip, or none does) is settled exactly at any size:
    pair paths never flip and pairs cover an even number of defects, so
    every matching of it has the same flip parity.
    """
    return _estimate_points([(code, decoder, noise, master_seed)], trials, post_select, workers)[0]


def _estimate_points(jobs, trials: int, post_select: bool, workers: int) -> list[RatePoint]:
    """`estimate_logical_rate` of each (code, decoder, noise, point_seed) job."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not post_select and any(job[1] is None for job in jobs):
        raise ValueError("a decoder is required unless running post-selected")
    # As few tasks per point as keep every worker busy (one per point from
    # 2 x workers points on), submitted largest code and then highest p first.
    pieces = math.ceil(2 * workers / len(jobs)) if workers > 1 else 1
    size = math.ceil(trials / pieces)
    chunks = [(a, min(a + size, trials), post_select) for a in range(0, trials, size)]
    tasks = [job + chunk for job in jobs for chunk in chunks]
    order = sorted(range(len(tasks)), key=lambda t: (-tasks[t][0].n, -tasks[t][2].headline_rate))
    counts = np.zeros((len(tasks), 4), dtype=np.int64)
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            counts[order] = list(pool.map(_run_trials, [tasks[t] for t in order]))
    else:
        counts[:] = [_run_trials(task) for task in tasks]
    totals = counts.reshape(len(jobs), len(chunks), 4).sum(axis=1).tolist()
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


def _sweep_jobs(code, decoder, noise_kind: str, p_values: list[float], master_seed: int):
    """One (code, decoder, noise, point_seed) job per p."""
    if noise_kind not in CHANNELS:
        raise ValueError(f"unknown noise kind {noise_kind!r}")
    if not p_values:
        raise ValueError("empty p grid")
    if any(b <= a for a, b in zip(p_values, p_values[1:])):
        raise ValueError("p grid must be strictly increasing")
    return [
        (code, decoder, CHANNELS[noise_kind](p), derive_seed(master_seed, index))
        for index, p in enumerate(p_values)
    ]


def sweep(
    code: StabilizerCode,
    decoder,
    noise_kind: str,
    p_values: list[float],
    trials: int,
    master_seed: int,
    post_select: bool = False,
    workers: int = 1,
) -> SimulationReport:
    """One RatePoint per p under the channel `noise.CHANNELS[noise_kind]`;
    the grid must be strictly increasing."""
    jobs = _sweep_jobs(code, decoder, noise_kind, p_values, master_seed)
    start = time.perf_counter()
    points = _estimate_points(jobs, trials, post_select, workers)
    return SimulationReport(
        code=code.name,
        decoder=decoder.name if decoder else "none",
        noise=noise_kind,
        master_seed=master_seed,
        points=points,
        wall_time_s=time.perf_counter() - start,
    )


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
        return json.dumps(
            {
                "reports": {str(l): json.loads(r.to_json()) for l, r in self.reports.items()},
                "crossings": [vars(c) for c in self.crossings],
                "p_threshold": self.p_threshold,
                "sigma": self.sigma,
            },
            indent=2,
            sort_keys=True,
        )


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
    `wall_time_s`.
    """
    if len(distances) < 2:
        raise ValueError("need at least two distances to locate a crossing")
    if len(set(distances)) != len(distances):
        raise ValueError("distances must be distinct")
    start = time.perf_counter()
    reports, jobs = {}, []
    for lam in distances:
        code, seed = surface_code(lam), derive_seed(master_seed, lam)
        jobs += _sweep_jobs(code, MwpmDecoder(code), "iid_xz", p_values, seed)
        reports[lam] = SimulationReport(code.name, MwpmDecoder.name, "iid_xz", seed, [])
    points = iter(_estimate_points(jobs, trials, False, workers))
    wall_time_s = time.perf_counter() - start
    for report in reports.values():
        report.points = [next(points) for _ in p_values]
        report.wall_time_s = wall_time_s
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
