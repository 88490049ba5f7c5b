"""The two federations the benchmark serves.

Policy *structure* is fixed in both and never derived from the seed:
``close_policy`` on a seed-drawn synthetic policy varies from 0.3 s to
127 s at 8-12 servers, which would leave the run length unbounded.
Only request order, tenants, literals and (in the chain world) the key
relabelling come from the seed.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.core.authorization import Authorization, Policy
from repro.sharding import HashPartitionScheme, PartitionGroup
from repro.testing import grant, quick_catalog
from repro.workloads.coalition import (
    COALITION_AUTHORIZATION_TABLE,
    coalition_authorization,
    coalition_catalog,
    generate_coalition_instances,
)

# ----------------------------------------------------------------------
# Coalition federation (workloads/coalition.py): 4 servers, 15 explicit
# rules closing to 55, default 40-vessel instances.
# ----------------------------------------------------------------------

#: The six coalition query shapes as SQL text (five feasible;
#: ``berth_client`` has no safe assignment and is never cached).
COALITION_SHAPES: Dict[str, str] = {
    "inspection": (
        "SELECT Vessel, Berth, Cargo_class "
        "FROM Arrivals JOIN Declarations ON Vessel = Decl_vessel"
    ),
    "exposure": (
        "SELECT Covered_client, Risk_band, Container_count "
        "FROM Cover JOIN Manifests ON Covered_client = Client"
    ),
    "premium": (
        "SELECT Client, Container_count, Premium "
        "FROM Manifests JOIN Cover ON Client = Covered_client"
    ),
    "duty": (
        "SELECT Ship, Container_count, Duty "
        "FROM Manifests JOIN Declarations ON Ship = Decl_vessel"
    ),
    "berth_client": (
        "SELECT Berth, Client FROM Arrivals JOIN Manifests ON Vessel = Ship"
    ),
    "cargo_risk": (
        "SELECT Covered_client, Risk_band, Cargo_class "
        "FROM Cover JOIN Manifests ON Covered_client = Client "
        "JOIN Declarations ON Ship = Decl_vessel"
    ),
}

#: Explicit coalition rules the churn cycle revokes and re-grants, one
#: at a time.  Rule 4 is used by the cached inspection plan (revoking it
#: fails revalidation and the query replans onto the semi-join route),
#: rule 5 is the duty query's only route (it turns infeasible while
#: revoked), rules 13 and 2 are used by no cached plan (every entry
#: revalidates and is reused).  ``Oracle`` asserts this at set-up.
COALITION_CHURN_RULES = (4, 13, 5, 2)


def coalition_world():
    """``(catalog, explicit policy, instances, shard schemes)``."""
    policy = Policy(
        coalition_authorization(number)
        for number in sorted(COALITION_AUTHORIZATION_TABLE)
    )
    return coalition_catalog(), policy, generate_coalition_instances(), None


def coalition_churn_rules() -> List[Authorization]:
    return [coalition_authorization(number) for number in COALITION_CHURN_RULES]


# ----------------------------------------------------------------------
# Chain federation (the ABL18 world): R⋈T⋈U⋈V over 8 servers, 72
# explicit rules closing to 80, 4 000 rows per table.
# ----------------------------------------------------------------------

CHAIN_SERVERS = ("S1", "S2", "S3", "S4", "G1", "G2", "G3", "G4")
CHAIN_RELATIONS = {"R": ("a", "b"), "T": ("c", "d"), "U": ("e", "f"), "V": ("g", "h")}
CHAIN_ROWS = 4000
CHAIN_SHARDS = 4

#: Four variants over the chain: the full 3-join, two 2-join
#: sub-chains, and the 3-join under a narrower projection.
CHAIN_SHAPES: Dict[str, str] = {
    "chain3": (
        "SELECT a, b, d, f, h FROM R JOIN T ON a = c "
        "JOIN U ON c = e JOIN V ON e = g"
    ),
    "chain2_rtu": "SELECT a, b, d, f FROM R JOIN T ON a = c JOIN U ON c = e",
    "chain2_tuv": "SELECT c, d, f, h FROM T JOIN U ON c = e JOIN V ON e = g",
    "chain3_narrow": (
        "SELECT a, h FROM R JOIN T ON a = c JOIN U ON c = e JOIN V ON e = g"
    ),
}


def _chain_policy() -> Policy:
    policy = Policy()
    for server in CHAIN_SERVERS:
        for attrs in CHAIN_RELATIONS.values():
            policy.add(grant(server, " ".join(attrs)))
        policy.add(grant(server, "a b c d", "a = c"))
        policy.add(grant(server, "c d e f", "c = e"))
        policy.add(grant(server, "e f g h", "e = g"))
        policy.add(grant(server, "a b c d e f", "a = c, c = e"))
        policy.add(grant(server, "a b c d e f g h", "a = c, c = e, e = g"))
    return policy


def _chain_instances(seed: int) -> Dict[str, List[Dict[str, object]]]:
    """ABL18's instances under a seed-drawn relabelling of the key domain.

    The key *multiset structure* is ABL18's (``Random(18)``, near-unique
    keys with a sprinkle of misses), so every join cardinality — and so
    the work per query — is the same for every seed; the seed draws the
    permutation that maps that structure onto concrete key values, which
    changes hashing, shard routing and row order.
    """
    structure = random.Random(18)
    domain = CHAIN_ROWS * 2
    relabel = list(range(domain))
    random.Random(seed).shuffle(relabel)
    instances = {}
    for name, (key_attr, payload_attr) in CHAIN_RELATIONS.items():
        instances[name] = [
            {
                key_attr: relabel[structure.randrange(domain)],
                payload_attr: f"{name}{i}",
            }
            for i in range(CHAIN_ROWS)
        ]
    return instances


def _chain_schemes():
    group = PartitionGroup("bench", CHAIN_SERVERS[4:])
    return {
        name: HashPartitionScheme(name, [attrs[0]], CHAIN_SHARDS, group)
        for name, attrs in CHAIN_RELATIONS.items()
    }


def chain_world(seed: int, sharded: bool):
    """``(catalog, explicit policy, instances, shard schemes)``."""
    catalog = quick_catalog(
        "R(a, b) @ S1",
        "T(c, d) @ S2",
        "U(e, f) @ S3",
        "V(g, h) @ S4",
        edges=["a = c", "c = e", "e = g"],
    )
    schemes = _chain_schemes() if sharded else None
    return catalog, _chain_policy(), _chain_instances(seed), schemes


def chain_churn_rules() -> List[Authorization]:
    """Third-party grants the chain closure is re-measured around (the
    per-layer ``closure.*`` timings; no chain workload churns live)."""
    return [
        grant("G1", "a b c d", "a = c"),
        grant("G2", "c d e f", "c = e"),
        grant("G3", "e f g h", "e = g"),
        grant("G4", "a b c d e f", "a = c, c = e"),
    ]
