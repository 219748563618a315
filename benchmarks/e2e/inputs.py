"""Seed-driven inputs.  The program under test only ever sees what is built here.

The *shape* of the star workload -- which tables each query joins, which
columns it filters and sorts on -- is that of ``StarSchemaWorkload(7)``, the
paper's ten-query workload and the default of every CLI command and figure
script.  It is held fixed on purpose: planning a 6-table join takes between
115 and 390 ms depending on which dimensions the generator happened to pick
(measured over eight generator seeds), two such queries are two thirds of a
cold recommend, and the driver compares runs made with *different* seeds
against a 10-25 % bound.  A generator-seeded shape would make every cold
metric a lottery over join shapes rather than a measurement of the program.

``--seed`` drives everything that leaves the amount of work unchanged:

* the literals of every predicate, SET clause and VALUES row (shifted by a
  seed-derived offset, so every statement -- and therefore every
  query fingerprint, cache key and store file -- differs between seeds);
* the order of the budget sweep and the weight bumps in ``warm_retune``;
* which index sets ``what_if`` is asked about, and in which rotation;
* every draw of the online trace (template choice and literal variants).

Statistics are uniform, so a shifted range predicate keeps its selectivity:
picks and costs agree across seeds and the committed ``expected/seed7.json``
is checked on seed 7 only.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence

from repro.query.ast import Statement
from repro.query.templates import templatize
from repro.util.units import gigabytes
from repro.workloads import StarSchemaWorkload, TpchLikeWorkload

#: The generator seed that fixes the workload's join shapes (see above).
SHAPE_SEED = 7
#: Offsets stay below 1000 so no shifted range leaves its column's domain.
MAX_SHIFT = 997


def shifted(statement: Statement, offset: int, name: str = None) -> Statement:
    """``statement`` with every literal moved by ``offset`` (same template)."""
    template, params = templatize(statement)
    return template.instantiate(
        [value + float(offset) for value in params], name=name or statement.name
    )


class Inputs:
    """Everything a workload module feeds the program, for one ``--seed``."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.offset = 1 + (seed * 7919) % MAX_SHIFT
        self.star = StarSchemaWorkload(SHAPE_SEED)
        self.catalog = self.star.catalog()
        self.tpch = TpchLikeWorkload(seed)

    def rng(self, label: str) -> random.Random:
        """An independent, reproducible stream per purpose."""
        return random.Random(f"{self.seed}:{label}")

    # -- statements --------------------------------------------------------

    def reads(self) -> List[Statement]:
        """The ten analytical star queries, literals moved by the seed."""
        return [shifted(query, self.offset) for query in self.star.queries(10)]

    def mixed(self) -> "tuple[List[Statement], Dict[str, float]]":
        """10 reads + 8 DML at a 0.7 weighted read share, literals moved."""
        mixed = self.star.mixed(read_fraction=0.7)
        statements = [shifted(statement, self.offset) for statement in mixed.statements]
        return statements, dict(mixed.weights)

    def writes(self) -> List[Statement]:
        return [shifted(statement, self.offset) for statement in self.star.dml_statements()]

    def never_seen(self, number: int, name: str) -> Statement:
        """A query no cache was ever built for: shape of star query 14 (five
        tables), literals unique to ``number``.

        One shape, so every delta operation costs one build of the same
        size and their median means something; unique literals, so its
        fingerprint is new and exactly one cache is built.
        """
        shape = self.star.queries(14)[13]
        return shifted(shape, self.offset + 1 + number, name=name)

    def budgets(self) -> List[int]:
        """1..8 GB in a seed-driven order (the set is the same for every seed)."""
        order = list(range(1, 9))
        self.rng("budgets").shuffle(order)
        return [gigabytes(size) for size in order]

    def index_sets(self, picks: Sequence[object], count: int, label: str) -> List[list]:
        """Up to ``count`` distinct non-empty subsets of ``picks`` (``what_if`` inputs)."""
        rng = self.rng(label)
        picks = list(picks)
        sets: List[list] = []
        seen = set()
        for _ in range(20 * count):  # few picks have few subsets: never spin
            size = rng.randint(1, min(4, len(picks)))
            chosen = tuple(sorted(rng.sample(range(len(picks)), size)))
            if chosen not in seen:
                seen.add(chosen)
                sets.append([picks[position] for position in chosen])
                if len(sets) == count:
                    break
        return sets
