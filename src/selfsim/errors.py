"""Exception hierarchy shared across the package."""


class SelfSimError(Exception):
    """Base class for all errors raised by this package."""


class GraphStructureError(SelfSimError):
    """Malformed graph data."""


class DuplicateIdError(GraphStructureError):
    pass


class DanglingEndpointError(GraphStructureError):
    pass


class NonComposableError(SelfSimError):
    """Paths or groupoid elements whose endpoints do not chain."""


class DomainMismatchError(SelfSimError):
    """An element was applied to a path outside its domain."""


class AutomatonError(SelfSimError):
    """Invalid automaton rule table."""


class NotBijectiveOnEdgesError(AutomatonError):
    def __init__(self, generator: str, detail: str = ""):
        self.generator = generator
        super().__init__(f"generator {generator!r} is not a bijection on edges"
                         + (f": {detail}" if detail else ""))


class RestrictionVertexMismatchError(AutomatonError):
    def __init__(self, generator: str, edge: str, detail: str = ""):
        self.generator = generator
        self.edge = edge
        super().__init__(f"restriction of {generator!r} at edge {edge!r} has wrong endpoints"
                         + (f": {detail}" if detail else ""))


class UnknownSymbolError(SelfSimError):
    pass


class ClosureLimitError(SelfSimError):
    """A search exceeded one of its budgets: ``bound`` states of a
    restriction closure or an act_infinite cycle search, ``bound`` pairs of a
    bisimulation, or ``bound`` expanded symbols of a restriction word, with
    ``what`` naming the search."""

    def __init__(self, bound: int, what: str = "closure"):
        self.bound = bound
        self.what = what
        super().__init__(f"{what} exceeded the state budget of {bound}")


class DivergedError(SelfSimError):
    """A computation that a verified certificate says must terminate did not."""


class NotContractingError(SelfSimError):
    """A finite certificate, a nucleus.NotContracting held in ``certificate``,
    proves that the action is not contracting."""

    def __init__(self, certificate):
        self.certificate = certificate
        super().__init__(f"not contracting: {certificate.state.name()} fixes the cycle "
                         f"{'.'.join(certificate.cycle)} and has infinite order")


class NotStronglyConnectedError(SelfSimError):
    """Operation requires a strongly connected graph."""


class JunctionMismatchError(SelfSimError):
    """Eventually-periodic path data whose cycle/tail endpoints do not chain."""


class VertexNotInLevelError(SelfSimError):
    """A path is not a vertex of the requested Schreier graph level."""


class ShapeMismatchError(SelfSimError):
    """Matrix arguments with incompatible shapes or non-integer entries."""


class ZeroBlockDivisionError(SelfSimError):
    """Katsura data with a_ij = 0 but b_ij != 0: the rule table is undefined."""


class SpecSyntaxError(SelfSimError):
    """Syntax error in a spec file or path literal, with position information."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        if line:
            message = f"line {line}, col {col}: {message}"
        super().__init__(message)
