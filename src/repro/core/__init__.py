"""The paper's contribution: TMR insertion with optimal voter partitioning."""

from .analysis import (DomainIsolationReport, RobustnessEstimate,
                       VoterRegionReport, check_domain_isolation,
                       compute_voter_regions, domain_of_instance,
                       domain_of_net, estimate_robustness)
from .optimizer import (CandidateEvaluation, SweepResult, default_candidates,
                        pareto_front, sweep_partitions)
from .partition import (AllComponents, ByComponentType, EveryKth,
                        NoPartition, PartitionStrategy,
                        combinational_components, component_topological_order,
                        is_register_component, register_components)
from .tmr import (DOMAIN_SUFFIXES, NUM_DOMAINS, TMRConfig, TMRResult,
                  apply_tmr)
from .voters import (DOMAIN_PROPERTY, VOTED_NET_PROPERTY, VOTER_PROPERTY,
                     build_voted_register, insert_majority_voter, is_voter,
                     voter_instances)

__all__ = [
    "DomainIsolationReport", "RobustnessEstimate", "VoterRegionReport",
    "check_domain_isolation", "compute_voter_regions",
    "domain_of_instance", "domain_of_net",
    "estimate_robustness", "CandidateEvaluation", "SweepResult",
    "default_candidates", "pareto_front", "sweep_partitions",
    "AllComponents", "ByComponentType", "EveryKth",
    "NoPartition", "PartitionStrategy", "combinational_components",
    "component_topological_order", "is_register_component",
    "register_components",
    "DOMAIN_SUFFIXES", "NUM_DOMAINS", "TMRConfig", "TMRResult", "apply_tmr",
    "DOMAIN_PROPERTY", "VOTED_NET_PROPERTY", "VOTER_PROPERTY",
    "build_voted_register", "insert_majority_voter",
    "is_voter", "voter_instances",
]
