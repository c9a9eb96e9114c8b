"""Group-fair facility placement on a line.

Mechanisms mapping grouped agent profiles to facility points or lotteries,
fairness objectives over the groups, an exact piecewise-linear optimizer,
strategyproofness audits, and a seeded adversarial search for worst-case
approximation ratios. Standard library only.
"""

from .adversary import SearchConfig, WorstCaseReport, bound_conformance, hill_climb, random_profile
from .audit import (
    AuditFinding,
    ConstructionInapplicableError,
    ProbeVerdict,
    batch_group_sp_audit,
    batch_sp_audit,
    group_sp_audit,
    lower_bound_probe,
    misreport_candidates,
    sp_audit,
)
from .fixtures import ABS_TOL, Fixture, load_fixtures, run_corpus, run_fixture
from .instances import (
    InstanceDocument,
    ParseError,
    ValidationError,
    load_instance,
    parse_instance,
    parse_instance_document,
    serialize_instance,
)
from .mechanisms import (
    MechanismId,
    as_mechanism_fn,
    kldm,
    ldm,
    mdm,
    median_index,
    median_of_group,
    median_of_group_medians,
    mgdm,
    nrm,
    parse_mechanism,
    rm,
)
from .model import (
    EmptyGroupError,
    FacilityOutcome,
    GroupedProfile,
    InvalidLocationError,
    OutcomeError,
    ProfileError,
    agent_cost,
    build_profile,
)
from .objectives import (
    ALT_OBJECTIVES,
    IIF1,
    IIF2,
    MAGC,
    MAIN_OBJECTIVES,
    MTGC,
    ObjectiveSpec,
    alt,
    eval_outcome,
    eval_point,
    parse_objective,
)
from .oracle import (
    ObjectiveOverflowError,
    OptimalResult,
    RatioReport,
    UnboundedObjectiveError,
    breakpoints,
    optima,
    optimize,
    ratio,
)

__version__ = "0.1.0"
