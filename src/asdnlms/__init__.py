"""Diffusion NLMS over adaptive networks with adaptive node sampling.

Implements the ATC diffusion NLMS algorithm with adaptive combination
weights, the AS-dNLMS adaptive sampling mechanism (including its
energy-saving censoring variant), baseline sampling/transmission policies,
closed-form steady-state predictions, and a seeded Monte Carlo harness.
"""

from asdnlms.analysis import predict, sampled_node_bounds
from asdnlms.config import ConfigError, RunConfig, parse_config_file
from asdnlms.harness import (
    NonFiniteStateError,
    group_variants,
    materialize,
    monte_carlo,
    write_csv,
    write_manifest,
)
from asdnlms.network import Topology, build_random_geometric, load_edge_list, save_edge_list
from asdnlms.presets import expand_preset
from asdnlms.sampling import PolicyConfig

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "RunConfig",
    "PolicyConfig",
    "parse_config_file",
    "expand_preset",
    "Topology",
    "build_random_geometric",
    "load_edge_list",
    "save_edge_list",
    "materialize",
    "monte_carlo",
    "group_variants",
    "write_csv",
    "write_manifest",
    "NonFiniteStateError",
    "predict",
    "sampled_node_bounds",
]
