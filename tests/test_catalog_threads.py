"""Two threads optimizing different configurations over one shared catalog.

An optimizer call takes its index configuration as an argument and writes
nothing to the catalog, so concurrent what-if probes over one catalog cannot
see each other's indexes: every threaded answer equals the answer the same
probe gets alone.  The switch interval is lowered so the threads interleave
inside optimizer calls, not just between them.
"""

import sys
import threading

from repro.catalog.index import Index
from repro.optimizer import Optimizer
from repro.optimizer.whatif import WhatIfOptimizer
from repro.workloads import StarSchemaWorkload

ROUNDS = 200


def test_threads_sharing_a_catalog_get_their_solo_answers():
    workload = StarSchemaWorkload(seed=7)
    catalog = workload.catalog()
    query = workload.queries(3)[2]
    configurations = (
        [],
        [Index("fact", ["fact_dim02_id"]), Index("dim02", ["dim02_id"])],
    )

    def answer(whatif, configuration):
        result = whatif.optimize_with_configuration(query, configuration)
        return result.cost, result.plan.explain()

    solo = [answer(WhatIfOptimizer(Optimizer(catalog)), c) for c in configurations]
    assert solo[0] != solo[1], "the two configurations must plan differently"

    answers = ([], [])
    errors = []
    barrier = threading.Barrier(len(configurations))

    def probe(slot):
        whatif = WhatIfOptimizer(Optimizer(catalog))
        barrier.wait(timeout=60)
        try:
            for _ in range(ROUNDS):
                answers[slot].append(answer(whatif, configurations[slot]))
        except Exception as error:  # surfaced by the assert below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=probe, args=(slot,)) for slot in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)

    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    mismatches = [
        (slot, round_) for slot in (0, 1)
        for round_, got in enumerate(answers[slot]) if got != solo[slot]
    ]
    assert [len(a) for a in answers] == [ROUNDS, ROUNDS]
    assert mismatches == [], f"{len(mismatches)} of {2 * ROUNDS} answers differ from solo"
    assert catalog.all_indexes() == []
