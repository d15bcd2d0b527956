"""Exception types shared across the package."""


class TreeShapHDError(Exception):
    """Base class for every error raised by this package."""


class ParseError(TreeShapHDError):
    """A model document or dump file could not be parsed."""


class ValidationError(TreeShapHDError):
    """A structural invariant of a model or dataset is violated."""


class FeatureIndexError(ValidationError):
    """A split references a feature index outside the model's feature list."""


class UnsupportedFeatureError(TreeShapHDError):
    """The source model uses a construct this engine does not support (e.g. categorical splits)."""


class NaNInputError(TreeShapHDError):
    """Input rows contain NaN; missing values are not routed by this engine."""


class DepthCapError(TreeShapHDError):
    """A path's unique-feature count exceeds the configured hard cap."""


class EmptyBackgroundError(TreeShapHDError):
    """Background mode requires at least one background row."""


class MissingCoverError(TreeShapHDError):
    """Path-dependent estimation needs a cover on every node of a used path."""


class ZeroCoverError(TreeShapHDError):
    """A cover ratio would divide by (or produce) zero; training statistics are corrupt."""


class InvalidPairError(TreeShapHDError):
    """Interaction values need two distinct feature positions."""


class LengthError(TreeShapHDError, ValueError):
    """Vector length is not a power of two, or operand lengths disagree."""


class LayoutError(TreeShapHDError, ValueError):
    """An array is not laid out in memory as an in-place kernel needs (C order)."""


class SizeError(TreeShapHDError):
    """Requested dense object exceeds the dense-size budget."""


class StructureError(TreeShapHDError):
    """A matrix violates the zero/sum quadrant identities it must satisfy."""


class TooManyFeaturesError(TreeShapHDError):
    """Brute-force enumeration is capped to a small number of active features."""


class BudgetExceededError(TreeShapHDError):
    """An explain run's projected peak memory exceeds the configured byte budget."""
