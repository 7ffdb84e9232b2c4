"""Approximate query answering from captured models (§4.2 of the paper)."""

from repro.core.approx.anomalies import AnomalyReport, GroupAnomaly, detect_anomalies, rank_groups_by_misfit
from repro.core.approx.engine import ApproximateAnswer, ApproximateQueryEngine
from repro.core.approx.enumeration import EnumerationPlan, build_enumeration_plan, generate_virtual_table
from repro.core.approx.error_bounds import ErrorEstimate, combine_independent, extreme_value_error
from repro.core.approx.exploration import InterestingRegion, explore_gradients, extreme_parameter_groups
from repro.core.approx.legal import BloomFilter, LegalCombinationFilter
from repro.core.approx.routes.router import plan_group_routing
from repro.db.constraints import extract_constraints

__all__ = [
    "AnomalyReport",
    "ApproximateAnswer",
    "ApproximateQueryEngine",
    "BloomFilter",
    "EnumerationPlan",
    "ErrorEstimate",
    "GroupAnomaly",
    "InterestingRegion",
    "LegalCombinationFilter",
    "build_enumeration_plan",
    "combine_independent",
    "detect_anomalies",
    "extract_constraints",
    "extreme_value_error",
    "plan_group_routing",
    "explore_gradients",
    "extreme_parameter_groups",
    "generate_virtual_table",
    "rank_groups_by_misfit",
]
