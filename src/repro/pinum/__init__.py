"""PINUM: filling the INUM plan cache with just one (or two) optimizer calls.

The paper's contribution: a bottom-up dynamic-programming optimizer already
computes, while answering a single what-if question, the optimal sub-plan for
every interesting-order combination -- it just discards them before
returning.  With the hooks of :mod:`repro.optimizer.hooks` enabled, one call
with all candidate indexes visible returns

* one finalized plan per interesting-order combination (the plan cache), and
* the access cost of every candidate index (the access-cost table),

so the cache INUM needs hundreds of calls to build is filled 5-10x (and for
wide joins >100x) faster.  A second call with nested loops enabled harvests
the NLJ plan variants (Section V-D).  The resulting cache is *identical in
structure* to INUM's, so the same cost model answers configuration questions.
"""

from repro.pinum.access_costs import PinumAccessCostCollector
from repro.pinum.cache_builder import PinumBuilderOptions, PinumCacheBuilder
from repro.pinum.pruning import prune_subsumed_plans

__all__ = [
    "PinumAccessCostCollector",
    "PinumBuilderOptions",
    "PinumCacheBuilder",
    "prune_subsumed_plans",
]
