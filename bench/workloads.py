"""Seeded inputs and fixed parameters of the three benchmark workloads.

Pure Python with no dependency on `fairline`, so the parent process that
checks outputs regenerates exactly the inputs the workload process ran on.
Every generator is a deterministic function of (seed, operation index).

- `audit`: one small profile per operation: n = 10 agents in m = 3
  groups at 7 distinct uniform locations on [0, 1); three agents copy one
  of the seven, so 4 to 6 agents share a location and the group audit has
  colocated sets. Every operation audits the same number of deviator sets
  (10 agents and 7 locations), which keeps operations of one size.
- `sweep`: one instance per operation: n = 132 agents in m = 4 groups of
  sizes 54, 39, 26 and 13, each group a Gaussian cluster around its own
  centre. One fixed size keeps the O(n^3) oracle cost of operations alike.
- `search`: one round over the six proven pairs per operation, each pair
  with its own search seed; the profiles are drawn by the program's own
  `random_profile` from that seed. Independent seeds per pair average out
  the random agent counts, so rounds differ less in cost.
"""

from __future__ import annotations

import random

WORKLOADS = ("audit", "sweep", "search")

# Operations per measured second on a 2-core x86 machine with Python 3.11;
# a run does round(seconds * rate) operations, the same list for every
# seed, so its work is fixed rather than cut off by a clock.
OPS_PER_SECOND = {"audit": 6.5, "sweep": 1.5, "search": 0.9}

AUDIT_N = 10
AUDIT_RESOLUTION = 101
AUDIT_M = 3
AUDIT_DISTINCT = 7
AUDIT_RULES = ("mdm", "ldm", "mgdm", "rm", "nrm")

SWEEP_SIZES = (54, 39, 26, 13)
SWEEP_SPREAD = 0.2
SWEEP_MECHS = ("mdm", "mgdm", "nrm", "kldm:1")
SWEEP_OBJS = ("mtgc", "magc", "iif1", "iif2")

# The `fairline search` defaults, with m up to 4 as its help text states.
SEARCH_CONFIG = {
    "n_range": (2, 8),
    "m_range": (1, 4),
    "restarts": 6,
    "iterations": 300,
    "perturbation_scale": 0.15,
}
SEARCH_FAMILY_N_HINT = 8

# (rule, objective) -> the approximation ratio the paper proves.
PROVEN_BOUNDS = {
    ("mgdm", "mtgc"): 3.0,
    ("mdm", "magc"): 3.0,
    ("mgdm", "magc"): 3.0,
    ("nrm", "magc"): 2.0,
    ("kldm:1", "iif1"): 4.0,
    ("kldm:1", "iif2"): 4.0,
}
SEARCH_PAIRS = tuple(PROVEN_BOUNDS)


def op_count(workload: str, seconds: int) -> int:
    """Length of the fixed operation list of one run."""
    return max(1, round(seconds * OPS_PER_SECOND[workload]))


def _rng(seed: int, workload: str, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def audit_rules(n: int) -> list[str]:
    """Labels of the built-in rules audited on an n-agent profile: kldm at k = 1, ceil(n/2) and n."""
    return list(AUDIT_RULES) + [f"kldm:{k}" for k in sorted({1, (n + 1) // 2, n})]


def audit_profile(seed: int, index: int) -> tuple[list[tuple[float, int]], int]:
    """(location, group) pairs and group count of one audit operation."""
    rng = _rng(seed, "audit", index)
    locations = [rng.random() for _ in range(AUDIT_DISTINCT)]
    locations += [rng.choice(locations[:AUDIT_DISTINCT]) for _ in range(AUDIT_N - AUDIT_DISTINCT)]
    rng.shuffle(locations)
    groups = list(range(1, AUDIT_M + 1)) + [rng.randint(1, AUDIT_M) for _ in range(AUDIT_N - AUDIT_M)]
    return list(zip(locations, groups)), AUDIT_M


def sweep_groups(seed: int, index: int) -> list[list[float]]:
    """Member locations per group of one sweep instance."""
    rng = _rng(seed, "sweep", index)
    groups = []
    for size in SWEEP_SIZES:
        centre = rng.uniform(0.2, 0.8)
        groups.append([centre + rng.gauss(0.0, SWEEP_SPREAD) for _ in range(size)])
    return groups


def sweep_name(index: int) -> str:
    return f"op{index:04d}"


def search_seed(seed: int, index: int, pair: int) -> int:
    """Search seed of one pair in one search operation."""
    return _rng(seed, f"search:{pair}", index).getrandbits(31)


def family_floor(rule: str, objective: str) -> float:
    """Closed-form ratio of the tight family that seeds the search for a pair.

    The families are those `fairline.cli.tight_family_profile` picks with
    n_hint 8, and the forms are the ones their docstrings state:
    - mgdm-mtgc, `tight_largest_group_total`: exactly 3.
    - mdm-magc and mgdm-magc, `tight_average_family(k)` with k = 4: the
      facility lands at 0 (group 1 is the largest group and its left median
      is 0, as is the all-agent median) with value 1, against the optimum
      (2k+1)/(6k): ratio 6k/(2k+1).
    - nrm-magc, the same family: the lottery puts 1/4 on 0 (value 1), 1/4 on
      1 (value (4k-1)/(6k-3), group 1's average) and 1/2 on 1/2 (value 1/2,
      group 2's cost), against the same optimum.
    - kldm:1-iif1 and kldm:1-iif2, `balanced_split_pair(c)` with c = 3: the
      facility sits at a cluster, paying 4 - 2/(c+1) times the optimum.
    """
    k = max(2, SEARCH_FAMILY_N_HINT // 2)
    c = max(1, (SEARCH_FAMILY_N_HINT - 2) // 2)
    if (rule, objective) == ("mgdm", "mtgc"):
        return 3.0
    if (rule, objective) in (("mdm", "magc"), ("mgdm", "magc")):
        return 6 * k / (2 * k + 1)
    if (rule, objective) == ("nrm", "magc"):
        value = 0.25 * 1.0 + 0.25 * (4 * k - 1) / (6 * k - 3) + 0.5 * 0.5
        return value / ((2 * k + 1) / (6 * k))
    if rule == "kldm:1" and objective in ("iif1", "iif2"):
        return 4.0 - 2.0 / (c + 1)
    raise KeyError((rule, objective))
