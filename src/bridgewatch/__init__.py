"""Cross-chain bridge monitoring pipeline.

Decodes transaction receipts into typed fact relations, evaluates eight
cross-chain validity rules over them, and classifies every deviation:
unmatched legs, finality violations, replayed identifiers, and
token/bridge event mismatches. Ships with a deterministic two-chain
scenario generator with labeled attack injection and a brute-force
reference evaluator for the rule engine.

Importing the package imports ``facts`` only; ``RuleOutputs`` and
``eval_all`` import ``rules`` on first access, so that a command that
never evaluates (``ingest``) does not pay for it.
"""

from .facts import FactStore, dump_facts_dir, load_facts_dir

__version__ = "0.1.0"

__all__ = [
    "FactStore",
    "load_facts_dir",
    "dump_facts_dir",
    "RuleOutputs",
    "eval_all",
    "__version__",
]


def __getattr__(name: str):
    if name in ("RuleOutputs", "eval_all"):
        from . import rules

        return getattr(rules, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
