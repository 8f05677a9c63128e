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


class AssignmentImpossible(KnowAllError):
    """No node qualifies for a triangulation vertex; the budget already suffices."""


class BudgetNotBelowBound(KnowAllError):
    """Refutation was requested at a budget that is not below the tight bound."""


class LemmaFalsified(KnowAllError):
    """Re-simulation contradicted the panchromatic cell; signals an internal bug."""


class NoPanchromaticCell(KnowAllError):
    """The panchromatic scan exhausted the triangulation; coloring was not Sperner."""
