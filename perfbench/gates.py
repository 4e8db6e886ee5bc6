"""Correctness gates: every benchmark result is checked before it counts.

* lookup_small: each point's logical rate must lie within a binomial bound
  of the exact rate, computed from the stored failing-weight enumerator of
  the full Shor lookup table (all 4^9 Paulis enumerated once).
* MWPM workloads: each point's logical rate must agree, within a
  two-sample binomial bound, with a stored high-trial reference, at points
  whose reference run had no decoder failures (elsewhere the cap decides
  the rate).  The traced run also checks every recovery against its
  syndrome and every small matching instance against a brute-force matcher.

Z = 5 keeps a false alarm below about one in a million per check.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from stabkit import pauli

Z = 5.0
BRUTE_FORCE_MAX_DEFECTS = 8
REFERENCE_PATH = Path(__file__).with_name("reference.json")


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def failing_weight_enumerator(code, decoder) -> list[int]:
    """A_w = number of weight-w Paulis the decoder fails to correct."""
    n = code.n
    counts = [0] * (n + 1)
    for x in range(1 << n):
        for z in range(1 << n):
            error = pauli.PauliOperator(n, x, z)
            recovery = decoder.decode_value(code.syndrome_value(error))
            if not code.in_stabilizer_group(pauli.multiply(recovery, error)):
                counts[(x | z).bit_count()] += 1
    return counts


def exact_depolarizing_rate(enumerator: list[int], p: float) -> float:
    n = len(enumerator) - 1
    return sum(a * (p / 3) ** w * (1 - p) ** (n - w) for w, a in enumerate(enumerator))


def within_binomial(failures: int, trials: int, p: float) -> bool:
    """failures ~ Binomial(trials, p), to Z standard deviations (plus one count)."""
    return abs(failures - trials * p) <= Z * math.sqrt(trials * p * (1 - p)) + 1


def within_reference(failures: int, trials: int, ref_failures: int, ref_trials: int) -> bool:
    """Two-sample test of equal rates; the half-count prior keeps the bound
    open when both samples saw no failures."""
    pooled = (failures + ref_failures + 0.5) / (trials + ref_trials + 1)
    spread = math.sqrt(pooled * (1 - pooled) * (1 / trials + 1 / ref_trials))
    slack = 1 / trials + 1 / ref_trials
    return abs(failures / trials - ref_failures / ref_trials) <= Z * spread + slack


def rate_problems(workload: str, totals: dict, reference: dict) -> list[str]:
    """Check per-point (trials, failures, _) totals keyed by (code, p)."""
    problems = []
    ref = reference[workload]
    for (code, p), (trials, failures, _) in sorted(totals.items()):
        if "failing_weight_enumerator" in ref:
            expected = exact_depolarizing_rate(ref["failing_weight_enumerator"], p)
            if not within_binomial(failures, trials, expected):
                problems.append(
                    f"{code} p={p}: {failures}/{trials} failures, exact p_L {expected:.6g}"
                )
            continue
        point = ref["points"][code][repr(p)]
        if point["decoder_failures"]:
            continue
        if not within_reference(failures, trials, point["failures"], point["trials"]):
            problems.append(
                f"{code} p={p}: {failures}/{trials} failures, reference "
                f"{point['failures']}/{point['trials']}"
            )
    return problems


def brute_force_matching(dist, boundary) -> int:
    """Minimum cost over every matching of defects to each other or the
    boundary, enumerated without pruning or memoization."""

    def best(rest: tuple[int, ...]) -> int:
        if not rest:
            return 0
        first, others = rest[0], rest[1:]
        cost = boundary[first] + best(others)
        for pos, other in enumerate(others):
            cost = min(cost, dist[first][other] + best(others[:pos] + others[pos + 1 :]))
        return cost

    return best(tuple(range(len(boundary))))


def largest_component(problem) -> int:
    """Largest connected defect component after the documented pruning rule
    (keep edge i-j only if pair cost < b_i + b_j)."""
    k = len(problem.boundary_costs)
    b, d = problem.boundary_costs, problem.pair_costs
    seen = [False] * k
    largest = 0
    for start in range(k):
        if seen[start]:
            continue
        seen[start] = True
        stack, size = [start], 0
        while stack:
            v = stack.pop()
            size += 1
            for w in range(k):
                if not seen[w] and d[v][w] < b[v] + b[w]:
                    seen[w] = True
                    stack.append(w)
        largest = max(largest, size)
    return largest
