"""Exception types shared across the toolkit.

The CLI maps these onto process exit codes: data and shape problems exit
with 2, numeric failures with 3.  Anything else is a bug and crashes.
"""


class FusionToolkitError(Exception):
    """Base class for every error this package raises deliberately."""


class ShapeError(FusionToolkitError):
    """Operand shapes or dimensions are incompatible."""


class DomainError(FusionToolkitError):
    """A value lies outside the range an operation accepts."""


class NumericError(FusionToolkitError):
    """A computation produced or received a non-finite value."""


class DataError(FusionToolkitError):
    """Base class for dataset and file level problems."""


class FileFormatError(DataError):
    """Base class for problems with the binary file formats."""


class BadMagicError(FileFormatError):
    """The file does not start with the expected magic bytes."""


class VersionMismatchError(FileFormatError):
    """The file declares a format version this reader does not speak."""


class TruncatedFileError(FileFormatError):
    """The file is shorter (or longer) than its header promises."""


class ChecksumError(FileFormatError):
    """Stored and recomputed checksums disagree."""


class UnknownKindError(FileFormatError):
    """A model file declares an architecture kind this build does not know."""


class KindMismatchError(FileFormatError):
    """A model file holds a different architecture kind than the caller expected."""


class NonFiniteError(DataError):
    """An input file holds NaN or infinite values."""


class LabelDomainError(DataError):
    """A label set uses class ids outside the supported alphabet."""


class DuplicateIdError(DataError):
    """The same sample id appears more than once."""


class DatasetError(DataError):
    """Dataset pieces are missing, misaligned, or overlap across splits."""


class EmptyPredictionError(DataError):
    """A prediction with no labels was fed where the contract forbids it."""
