"""Exception types shared across the package."""


class DrgcError(Exception):
    """Base class for all package errors."""


class GraphError(DrgcError):
    pass


class Unreachable(GraphError):
    """BFS source cannot reach every vertex (graph disconnected)."""


class NotDistanceRegular(GraphError):
    """The graph is not distance-regular; carries a witness when available."""

    def __init__(self, msg, witness=None):
        super().__init__(msg)
        self.witness = witness


class NotRegular(NotDistanceRegular):
    pass


class Acyclic(GraphError):
    pass


class NotBipartite(GraphError):
    pass


class EmptySet(GraphError):
    pass


class FullSet(GraphError):
    pass


class MalformedGraph6(DrgcError):
    pass


class RangeError(DrgcError):
    pass


class TooLarge(DrgcError):
    pass


class BadField(DrgcError):
    pass


class ParamDomain(DrgcError):
    pass


class NoDescendant(DrgcError):
    pass


class UnknownName(DrgcError):
    pass


class DataCorrupt(DrgcError):
    pass


class InfeasibleParams(DrgcError):
    pass


class WrongGraph(DrgcError):
    pass


class SelfCheckFailed(DrgcError):
    """Two exact computations of the same quantity disagree."""


class SearchFailed(DrgcError):
    """A construction search the source material guarantees to succeed did not."""
