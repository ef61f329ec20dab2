"""Exception hierarchy shared by the whole codec."""


class MaecodecError(Exception):
    """Base class for every error raised by this package."""


class ContractViolation(MaecodecError, ValueError):
    """An operation was called with arguments outside its contract
    (shape mismatches, out-of-range tradeoffs, malformed config values,
    ...)."""


class NumericDomainError(MaecodecError, ValueError):
    """An elementwise operation received a value outside its numeric
    domain (sqrt/log of a non-positive value, division by zero)."""


class CodingError(MaecodecError, RuntimeError):
    """Range-coding failure: symbol outside its table, truncated payload,
    or a decode that cannot make progress."""


class BitstreamError(MaecodecError, ValueError):
    """Malformed bitstream container (bad magic, version, or lengths)."""


class ModelHashMismatch(BitstreamError):
    """The bitstream was produced with a different checkpoint than the
    one supplied for decoding."""


class SupportRangeError(MaecodecError, ValueError):
    """The integer support [-L, L] is too small to capture the density's
    probability mass; retry with a larger L."""


class CheckpointError(MaecodecError, ValueError):
    """Malformed or incompatible checkpoint file."""


class DatasetError(MaecodecError, ValueError):
    """Unusable training data (empty directory, images smaller than the
    crop size, ...)."""
