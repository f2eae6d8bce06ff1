"""Exception types shared across the package.

Domain errors (bad inputs, violated preconditions, exceeded budgets) all derive
from :class:`IndturanError` so callers and the CLI can catch one base class.
``DisprovesLemma`` is special: it signals that an exhaustive check falsified a
statement the implementation relies on, which is never expected to happen.
``CertificateInvalid``, a derived certificate failing its own re-check, is one.
"""


class IndturanError(Exception):
    """Base class for all domain errors raised by this package."""


class EmptyQuery(IndturanError):
    """An operation was asked about an empty vertex set."""


class InvalidPartition(IndturanError):
    """A claimed partition does not partition the vertex set as required."""


class EmptyGraph(IndturanError):
    """An operation needs at least one vertex."""


class DegenerateRoot(IndturanError):
    """A rooted construction would leave no usable root/non-root structure."""


class RootEdgeCollision(IndturanError):
    """Gluing copies along roots would duplicate an edge inside the root set."""


class Multigraph(IndturanError):
    """A construction would produce parallel edges."""


class NotBipartite(IndturanError):
    """A bipartition was required but the edges do not respect one."""


class TooLarge(IndturanError):
    """An exhaustive search budget would be exceeded."""


class NotQualified(IndturanError):
    """The rational target does not satisfy the qualification condition."""


class NoPartition(IndturanError):
    """The host carries no bipartition but one is required."""


class NotKssFree(IndturanError):
    """A host that must avoid K_{s,s} contains one."""


class HypothesisUnmet(IndturanError):
    """A lemma's stated hypotheses do not hold for the given instance."""


class BadBlowup(IndturanError):
    """Declared blowup parts are malformed or not covered by the rich-set family."""


class NotSemiInduced(IndturanError):
    """Copies violate the semi-induced layout (induced, root-agreeing, disjoint)."""


class DisprovesLemma(IndturanError):
    """An exhaustive check contradicted a proven statement; indicates a bug."""


class CertificateInvalid(DisprovesLemma):
    """A derived certificate failed its own re-check; like every
    DisprovesLemma, a bug rather than bad input."""
