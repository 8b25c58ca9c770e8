"""Exception types shared across the modem library."""


class GfdmError(Exception):
    """Base class for all library errors."""


class ConfigError(GfdmError):
    """Invalid parameter, shape, or configuration value."""


class SingularWindow(GfdmError):
    """Zero-forcing window requested but the transmit window has (near-)zero entries.

    For critically sampled block geometries this signals a genuine Gabor-frame
    singularity rather than a numerical accident.
    """


class SingularMatrix(GfdmError):
    """The dense modulation matrix is not numerically invertible."""


class SingularChannel(GfdmError):
    """The channel frequency response has a (near-)zero bin, one-tap inversion fails."""


class ChainLimitExceeded(GfdmError):
    """A direct-convolution table needs more parallel multiplier chains than available.

    Raised when a table is built, after the block-length check: a full chain set (every
    time-domain table, M chains, and the link's frequency-domain ones, K chains) says
    "L chains needed"; a sparse frequency-domain set needs a chain per occupied subcarrier
    band and says how many bands its pulse occupies.
    """


class MissingCostEntry(GfdmError):
    """The cycle-cost table has no entry for a requested transform size."""
