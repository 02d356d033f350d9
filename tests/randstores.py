"""Seeded random stores for engine-vs-oracle equivalence testing.

A random store is a valid scenario (so the rules actually fire) blended
with two kinds of adversarial content: mutants (scenario facts with one
field rewritten from a shared value pool, breaking exactly one conjunct
at a time) and pure noise tuples drawn from the same pools (creating
partial joins). A mutant may be drawn from any fact but a finality window,
and one in four replaces its original: a conjunct that reads no column of
its rule's head (the event order, the transaction value, the wrapped-native
table) is told apart only by a derivation that its mutant removes. One
transaction is duplicated onto the other chain under the same hash to
exercise the hash-only joins of the rule bodies.
"""

from __future__ import annotations

from bridgewatch import facts as f
from bridgewatch.facts import FactStore
from bridgewatch.scenario import AnomalySpec, ScenarioParams, SplitMix64, generate
from conftest import replace

_STANDARDS = ("ERC20", "NATIVE", "X721")


def _pools(rng: SplitMix64, base_facts: list) -> dict:
    pools = {
        "hash": sorted({x.tx_hash for x in base_facts if hasattr(x, "tx_hash")}),
        "addr": set(),
        "amount": sorted({x.amount for x in base_facts if hasattr(x, "amount")}),
        "id": set(),
        "chain": sorted({x.chain_id for x in base_facts if hasattr(x, "chain_id")}),
        "ts": sorted({x.timestamp for x in base_facts if hasattr(x, "timestamp")}),
    }
    for fact in base_facts:
        for name, _ in fact.COLUMNS:
            value = getattr(fact, name)
            if isinstance(value, str) and value.startswith("0x") and len(value) == 42:
                pools["addr"].add(value)
        for name in ("deposit_id", "withdrawal_id"):
            if hasattr(fact, name):
                pools["id"].add(getattr(fact, name))
    for _ in range(4):  # fresh values that join with nothing
        pools["addr"].add(rng.address())
        pools["hash"].append("0x" + format(rng.next_u64(), "016x") * 4)
        pools["id"].add(str(rng.randint(1, 500)))
        pools["amount"].append(rng.amount())
    pools["addr"] = sorted(pools["addr"])
    pools["id"] = sorted(pools["id"])
    pools["ts"] = pools["ts"] or [1000]
    return pools


def _mutate(rng: SplitMix64, fact, pools: dict):
    name, _ = rng.choice(fact.COLUMNS)
    if name == "tx_hash":
        new = rng.choice(pools["hash"])
    elif name in ("amount", "value"):
        new = rng.choice(pools["amount"])
    elif name == "timestamp":
        new = rng.choice(pools["ts"]) + rng.randint(0, 5000) - 2500
        new = max(new, 0)
    elif name in ("event_index", "block_number"):
        new = rng.randint(0, 3)
    elif name == "gas_used":
        new = rng.randint(21_000, 100_000)
    elif name in ("chain_id", "dst_chain_id", "orig_chain_id"):
        new = rng.choice(pools["chain"])
    elif name == "status":
        new = rng.randint(0, 1)
    elif name in ("deposit_id", "withdrawal_id"):
        new = rng.choice(pools["id"])
    elif name == "standard":
        new = rng.choice(_STANDARDS)
    elif name == "finality_seconds":
        new = rng.randint(1, 5000)
    else:
        new = rng.choice(pools["addr"])
    return replace(fact, **{name: new})


def _noise_fact(rng: SplitMix64, pools: dict):
    h = lambda: rng.choice(pools["hash"])
    a = lambda: rng.choice(pools["addr"])
    amt = lambda: rng.choice(pools["amount"])
    ident = lambda: rng.choice(pools["id"])
    chain = lambda: rng.choice(pools["chain"])
    idx = lambda: rng.randint(0, 3)
    builders = (
        lambda: f.TransactionFact(
            rng.choice(pools["ts"]), chain(), h(), rng.randint(1, 99),
            a(), a(), rng.choice([amt(), "0"]), rng.randint(0, 1), 21_000,
        ),
        lambda: f.Erc20TransferFact(h(), chain(), idx(), a(), a(), a(), amt()),
        lambda: f.ScDepositFact(h(), idx(), a(), a(), amt()),
        lambda: f.ScTokenDepositedFact(
            h(), idx(), ident(), a(), a(), a(), chain(), rng.choice(_STANDARDS), amt()
        ),
        lambda: f.TcTokenDepositedFact(h(), idx(), ident(), a(), a(), amt()),
        lambda: f.TcWithdrawalFact(h(), idx(), a(), a(), amt()),
        lambda: f.TcTokenWithdrewFact(
            h(), idx(), ident(), a(), a(), a(), chain(), rng.choice(_STANDARDS), amt()
        ),
        lambda: f.ScWithdrawalFact(h(), idx(), a(), a(), amt()),
        lambda: f.ScTokenWithdrewFact(h(), idx(), ident(), a(), a(), amt()),
        lambda: f.BridgeControlledAddressFact(chain(), a()),
        lambda: f.TokenMappingFact(chain(), chain(), a(), a(), rng.choice(_STANDARDS)),
        lambda: f.WrappedNativeTokenFact(chain(), a()),
    )
    return rng.choice(builders)()


def random_facts(seed: int, mutants: int = 120, noise: int = 150) -> list:
    """Deterministic fact list: scenario base + mutants + noise."""
    rng = SplitMix64(seed)
    n_dep = rng.randint(3, 10)
    n_wdr = rng.randint(3, 10)
    scenario = generate(
        ScenarioParams(
            seed=rng.next_u64(),
            n_deposits=n_dep,
            n_withdrawals=n_wdr,
            anomalies=AnomalySpec(
                forged_release=rng.randint(0, 2),
                replayed_id=rng.randint(0, min(2, n_wdr)),
                finality_break=rng.randint(0, min(2, n_dep)),
                direct_transfer=rng.randint(0, 1),
                orphan_bridge_event=rng.randint(0, 1),
            ),
        )
    )
    # in an order of their own, so that the fixtures stay as they are
    # whatever order the generator builds its facts in
    base = sorted(scenario.store, key=lambda x: (x.RELATION, x.columns()))
    pools = _pools(rng, base)
    out = list(base)

    originals = [i for i, x in enumerate(base) if not isinstance(x, f.CctxFinalityFact)]
    for _ in range(mutants):
        i = rng.choice(originals)
        mutant = _mutate(rng, base[i], pools)
        if rng.randint(0, 3) == 0:
            out[i] = mutant
        else:
            out.append(mutant)
    for _ in range(noise):
        out.append(_noise_fact(rng, pools))

    # same hash on the other chain: rule bodies join transactions on
    # tx_hash alone, so this must be handled identically by both engines
    txs = [x for x in base if isinstance(x, f.TransactionFact)]
    for _ in range(2):
        tx = rng.choice(txs)
        other = rng.choice([c for c in pools["chain"] if c != tx.chain_id])
        out.append(replace(tx, chain_id=other))
    return out


def random_store(seed: int, **kwargs) -> FactStore:
    # one finality window per chain that the other facts name, drawn below
    facts = [x for x in random_facts(seed, **kwargs) if not isinstance(x, f.CctxFinalityFact)]
    rng = SplitMix64(seed ^ 0xF00D)
    windows = [f.CctxFinalityFact(chain, rng.choice([45, 78, 1800]))
               for chain in sorted(FactStore(facts).chain_ids())]
    return FactStore(facts + windows).seal()
