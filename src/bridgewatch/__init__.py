"""Cross-chain bridge monitoring pipeline.

Decodes transaction receipts into typed fact relations, evaluates eight
cross-chain validity rules over them, and classifies every deviation:
unmatched legs, finality violations, replayed identifiers, and
token/bridge event mismatches. Ships with a deterministic two-chain
scenario generator with labeled attack injection and a brute-force
reference evaluator for the rule engine.
"""

from .facts import FactStore, dump_facts_dir, load_facts_dir
from .rules import RuleOutputs, eval_all

__version__ = "0.1.0"

__all__ = [
    "FactStore",
    "load_facts_dir",
    "dump_facts_dir",
    "RuleOutputs",
    "eval_all",
    "__version__",
]
