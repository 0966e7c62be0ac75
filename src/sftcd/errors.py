"""Exception types shared across the package.

Everything raised on purpose derives from SftcdError so callers (and the
command line front end) can tell domain errors from plain bugs.
"""


class SftcdError(Exception):
    pass


class UnknownSymbol(SftcdError):
    """A symbol does not belong to the alphabet it was used with."""


class InvalidBlock(SftcdError):
    """A word violates the adjacency constraints of its shift."""


class AlphabetMismatch(SftcdError):
    """Two objects were combined whose alphabets do not line up."""


class EmptyFiber(SftcdError):
    """A block has no preimage under the code in question."""


class NotFiniteToOne(SftcdError):
    """An operation that requires a finite-to-one code got an infinite-to-one one."""


class NotRoutable(SftcdError):
    """No witness block routes the requested window through the requested symbol."""


class ImageMismatch(SftcdError):
    """Two points that must share an image do not."""


class NoFixedPoint(SftcdError):
    """The requested fixed symbol carries no periodic preimage."""


class ResourceLimit(SftcdError):
    """An enumeration or closure passed core.DEFAULT_CAP."""


class GenerationFailed(SftcdError):
    """The random generator could not produce a valid instance."""


class ParseError(SftcdError):
    """A document or command line argument could not be parsed."""


class InvariantViolation(SftcdError):
    """A structural invariant failed; the message names the invariant."""


class PreconditionUnmet(SftcdError):
    """An operation was called outside its stated precondition."""
