"""Exception hierarchy shared by all stores and pipeline stages."""


class EegragError(Exception):
    """Base class for all errors raised by this package."""


class PreconditionError(EegragError, ValueError):
    """An operation was called with arguments that violate its contract."""


class DimensionMismatchError(EegragError, ValueError):
    """A vector's dimension does not match the store-wide embedding dimension."""


class NotFoundError(EegragError, LookupError):
    """A referenced entity, hyperedge, case, or recording does not exist."""


class ReferentialError(EegragError, ValueError):
    """An operation referenced ids that cannot be resolved in their store."""


class StoreSealedError(EegragError, RuntimeError):
    """A mutating operation was attempted on a sealed (immutable) store."""


class ComparabilityError(EegragError, ValueError):
    """Two EEG representations cannot be compared (channel-count mismatch)."""


class TransportError(EegragError, RuntimeError):
    """The generation client failed after retry exhaustion."""
