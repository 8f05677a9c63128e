"""Exception types shared across the package."""


class KnowAllError(Exception):
    """Base class for every error this package raises on purpose."""


class GraphFormatError(KnowAllError, ValueError):
    """A graph description (dict or JSON file) is malformed."""


class CapExceeded(KnowAllError):
    """An exact search was asked to run beyond its configured cap."""


class NeverDominated(KnowAllError):
    """The closures stop growing while they still need more than k dominators."""


class AlgorithmRangeError(KnowAllError):
    """A candidate algorithm returned a value outside {0, ..., k}."""


class BudgetNotBelowBound(KnowAllError):
    """A budget is not below the tight bound: k nodes dominate H_budget."""


class LemmaFalsified(KnowAllError):
    """Re-simulation contradicted a witness or a sweep; signals an internal bug."""


class NoPanchromaticCell(KnowAllError):
    """The panchromatic scan found no cell in a coloring that answered inconsistently."""
