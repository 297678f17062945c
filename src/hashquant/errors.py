"""Exception types shared across the package.

Every operational failure raises a named subclass of HashQuantError so
callers (and the CLI) can map failures to stable, machine-readable names.
Type-invariant violations at construction time raise plain ValueError;
IndexOutOfRange, raised by the one check every index argument passes, is both.
"""


class HashQuantError(Exception):
    """Base class for all operational errors raised by this package."""


class BadMagic(HashQuantError):
    """File does not start with the expected magic bytes."""


class TruncatedFile(HashQuantError):
    """File ended before the payload implied by its header."""


class TrailingBytes(HashQuantError):
    """File continues past the payload implied by its header."""


class VersionMismatch(HashQuantError):
    """File format version is not supported."""


class NonFiniteValue(HashQuantError):
    """A NaN or infinity appeared where only finite values are allowed."""


class IoFailure(HashQuantError):
    """Underlying read or write failed."""


class CountMismatch(HashQuantError):
    """Two inputs that must have the same item count do not."""


class DimMismatch(HashQuantError):
    """Two inputs that must share a feature dimension do not."""


class IndexOutOfRange(HashQuantError, ValueError):
    """An index was not an integer, was negative, or reached its upper bound."""


class TooManyClusters(HashQuantError):
    """More clusters requested than fit in a 64-bit label mask."""


class TooManyCandidates(HashQuantError):
    """Requested more candidates (or results) than are available."""


class NotEnoughItems(HashQuantError):
    """Fewer items than needed to initialize the requested codebooks."""


class SingularSystem(HashQuantError):
    """The codebook update's Gram matrix is singular and ridge is zero."""


class ZeroNormVector(HashQuantError):
    """Cosine similarity is undefined for a zero-norm vector."""


class KNotPowerOfTwo(HashQuantError):
    """Bit accounting with log2(k) requires k to be a power of two."""


class InfeasibleBudget(HashQuantError):
    """No quantizer shape fits the requested memory budget."""


class ConfigError(HashQuantError):
    """A configuration file or override could not be parsed."""
