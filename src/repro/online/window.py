"""The sliding statement window: raw stream in, weighted templates out.

A tuning session wants a *workload* -- a list of distinct statements plus
execution-frequency weights -- but a stream delivers one execution at a
time.  The window bridges the two: executions arrive as
:class:`~repro.online.stream.Arrival` values and fold into templates by
their *template* fingerprint
(:func:`~repro.util.fingerprint.template_fingerprint`, so executions of the
same SQL shape are one template regardless of their literals or names),
each template keeps its occurrence count, and the window evicts by count
bound (and optionally by age) so the fold always reflects *recent* traffic.

Keying by template rather than raw SQL is what keeps the distinct-key
count bounded by the application's template count: parameter churn (the
same query re-executed with different constants, the dominant variation in
production logs) neither inflates the window's template set nor dilutes
its drift distribution.  The first instance seen since a template
(re)entered the window stands for it; that is the only arrival whose
statement the window reads, so a repeat costs a dictionary lookup and
no parse.

Template names are fingerprint-stable (``t_<fingerprint>``): the same SQL
shape always folds to the same name, which is what lets the session's
cache pool recognise a returning template across arbitrarily many window
turnovers -- the "delta builds only" property the daemon's re-tunes rely on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

from collections import deque

from repro.online.stream import Arrival
from repro.query.ast import Statement
from repro.util.errors import AdvisorError


@dataclass
class _Template:
    """One distinct statement shape currently in the window."""

    statement: Statement  # renamed to the fingerprint-stable template name
    count: int = 0


class SlidingWindow:
    """A count-bounded (optionally age-bounded) window of statements.

    ``max_statements`` bounds how many executions the window holds;
    ``max_age_seconds`` additionally drops entries older than that at every
    mutation (``None`` = count bound only).  ``clock`` is injectable so
    tests control time.
    """

    def __init__(
        self,
        max_statements: int,
        max_age_seconds: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_statements < 1:
            raise AdvisorError(
                f"sliding window needs max_statements >= 1, got {max_statements}"
            )
        if max_age_seconds is not None and not max_age_seconds > 0:
            raise AdvisorError(
                f"sliding window needs max_age_seconds > 0 or None, got {max_age_seconds}"
            )
        self.max_statements = max_statements
        self.max_age_seconds = max_age_seconds
        self._clock = clock
        #: (fingerprint, arrival time) per execution, oldest first.
        self._entries: Deque[Tuple[str, float]] = deque()
        self._templates: Dict[str, _Template] = {}
        self._total_appended = 0

    # -- mutation ----------------------------------------------------------

    def append(self, arrival: Arrival) -> str:
        """Fold one execution in; returns the template's stable name."""
        fingerprint = arrival.fingerprint
        template = self._templates.get(fingerprint)
        if template is None:
            template = _Template(arrival.statement.renamed(f"t_{fingerprint}"))
            self._templates[fingerprint] = template
        template.count += 1
        self._entries.append((fingerprint, self._clock()))
        self._total_appended += 1
        self._evict()
        return template.statement.name

    def extend(self, arrivals: List[Arrival]) -> List[str]:
        """:meth:`append` each arrival; returns the template names."""
        return [self.append(arrival) for arrival in arrivals]

    def _evict(self) -> None:
        while len(self._entries) > self.max_statements:
            self._pop_oldest()
        if self.max_age_seconds is not None:
            horizon = self._clock() - self.max_age_seconds
            while self._entries and self._entries[0][1] < horizon:
                self._pop_oldest()

    def _pop_oldest(self) -> None:
        fingerprint, _ = self._entries.popleft()
        template = self._templates[fingerprint]
        template.count -= 1
        if template.count <= 0:
            del self._templates[fingerprint]

    # -- inspection --------------------------------------------------------

    @property
    def statement_count(self) -> int:
        """Executions currently in the window."""
        return len(self._entries)

    @property
    def template_count(self) -> int:
        """Distinct statement shapes currently in the window."""
        return len(self._templates)

    @property
    def total_appended(self) -> int:
        """Executions ever appended (monotone; drives re-baseline timing)."""
        return self._total_appended

    def template_counts(self) -> Dict[str, int]:
        """Occurrence count per template fingerprint."""
        return {fp: template.count for fp, template in self._templates.items()}

    def distribution(self) -> Dict[str, float]:
        """Template frequencies normalized to sum 1 (empty window = empty)."""
        total = len(self._entries)
        if total == 0:
            return {}
        return {
            fp: template.count / total for fp, template in self._templates.items()
        }

    def workload(self) -> Tuple[List[Statement], Dict[str, float]]:
        """The window as a session workload: templates plus count weights.

        Statements come back renamed to their fingerprint-stable template
        names (first-seen order); weights are raw occurrence counts, so a
        workload cost weighted by them is the cost of executing exactly the
        window's statements -- the unit the daemon's transition costing
        divides by.
        """
        statements = [template.statement for template in self._templates.values()]
        weights = {
            template.statement.name: float(template.count)
            for template in self._templates.values()
        }
        return statements, weights
