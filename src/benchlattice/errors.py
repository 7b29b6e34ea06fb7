"""Exception types raised across the package.

Grouped here so every module shares one hierarchy; the domain modules
re-export the classes they raise.
"""

from __future__ import annotations


class BenchlatticeError(Exception):
    """Base class for all domain errors raised by this package."""


class BenchValidationWarning(UserWarning):
    """Non-fatal findings during bench validation (e.g. an unusual but
    permitted substantiation)."""


# --- taxonomy -------------------------------------------------------------

class TaxonomyError(BenchlatticeError):
    """A test bench description violates the dimension/element model."""


class UnknownDimension(TaxonomyError):
    """An element or override references a dimension that does not exist
    or is not a leaf."""


class ElementOnNonLeaf(TaxonomyError):
    """An element is attached to a dimension that has sub-dimensions."""


class EmptyLeaf(TaxonomyError):
    """A leaf dimension holds no element; a bench must implement every
    functionality."""


class DuplicateId(TaxonomyError):
    """Two dimensions or two elements share one id."""


class AlreadySubstantiated(TaxonomyError):
    """The dimension already has sub-dimensions."""


class ParentHoldsElements(TaxonomyError):
    """The dimension to substantiate already carries elements."""


class EmptySubNames(TaxonomyError):
    """Substantiation needs at least one sub-dimension name, all unique."""


# --- configuration --------------------------------------------------------

class ConfigurationError(BenchlatticeError):
    """A configuration request cannot be satisfied."""


class CombinatorialLimitExceeded(ConfigurationError):
    """The bench admits more configurations than the cap; callers should
    count or stream instead of materialising the list."""

    def __init__(self, count: int, cap: int) -> None:
        super().__init__(
            f"bench admits {count} configurations, more than the cap of {cap}; "
            "use count_configurations or iter_configurations instead"
        )
        self.count = count
        self.cap = cap


class ForeignConfiguration(ConfigurationError):
    """The configuration was not derived from the given bench."""


# --- test cases -----------------------------------------------------------

class TestCaseError(BenchlatticeError):
    """A test case description is invalid."""


class MissingLayer(TestCaseError):
    """A scenario layer is absent (or the road level is blank)."""


class NoEvaluationCriteria(TestCaseError):
    """A test case carries no evaluation criteria."""


class NonPositiveDuration(TestCaseError):
    """The scenario's nominal duration must be > 0 seconds."""


class ContradictoryOverride(TestCaseError):
    """A stage override empties the admissible set of a required dimension."""


# --- assignment -----------------------------------------------------------

class InstanceTooLarge(BenchlatticeError):
    """The instance exceeds the exact solver's guard."""


# --- registry files -------------------------------------------------------

class RegistryError(BenchlatticeError):
    """A document could not be loaded."""


class DocumentSyntaxError(RegistryError):
    """The file is not well-formed JSON."""

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}")
        self.path = path


class SchemaError(RegistryError):
    """The document does not match its schema; carries every finding."""

    def __init__(self, issues: list[tuple[str, str]]) -> None:
        lines = "; ".join(f"{loc}: {msg}" for loc, msg in issues)
        super().__init__(lines)
        self.issues = tuple(issues)


class ValidationError(RegistryError):
    """Documents parsed but the described values violate domain invariants;
    carries (object id, underlying error) pairs."""

    def __init__(self, issues: list[tuple[str, BenchlatticeError]]) -> None:
        lines = "; ".join(f"{obj}: {err}" for obj, err in issues)
        super().__init__(lines)
        self.issues = tuple(issues)
