"""Presentations of sofic shifts: algorithms, exact deciders, generators.

The package splits along what is feasible where:

* :mod:`sofic.graphs` -- the labeled-multigraph carrier, the transition
  action on vertex sets, the compiled integer view, the SCC routine and
  a BFS (the exact subset searches use ``exact._word_search`` instead);
* :mod:`sofic.products` -- sink-completion and the hat graph (named
  graphs for display and tests);
* :mod:`sofic.syncwords` -- polynomial algorithms for irreducible and
  synchronizing presentations (sync words, separating words, the
  synchronizing-presentation test);
* :mod:`sofic.classify` -- follower separation, isomorphism, equality,
  SFT and universality tests for synchronizing presentations;
* :mod:`sofic.exact` -- exponential desk-scale deciders for the general
  problems (subshift, equality, SFT, SDP existence, irreducibility,
  shortest sync words, minimality) via subset and subset-set search;
* :mod:`sofic.constructions` -- hardness-reduction instance generators
  and extremal families;
* :mod:`sofic.oracle` -- naive brute-force cross-checks;
* :mod:`sofic.fileformat` / :mod:`sofic.cli` -- text format and
  command-line front end.
"""

from .constructions import Dfa, MultiEntryDfa
from .graphs import LabeledGraph

__all__ = ["Dfa", "LabeledGraph", "MultiEntryDfa"]
__version__ = "0.1.0"
