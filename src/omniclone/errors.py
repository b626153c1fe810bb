"""Exception types shared across the package."""


class OmniCloneError(Exception):
    """Base class for all package errors."""


class InputError(OmniCloneError, ValueError):
    """Caller passed data violating an operation precondition."""


class ConfigError(OmniCloneError, ValueError):
    """A configuration object or file is invalid."""


class ClipParseError(OmniCloneError, ValueError):
    """An input document failed to decode or parse; the message names the source or field."""


class CalibrationError(OmniCloneError, ValueError):
    """Subject calibration could not be computed."""


class ProtocolError(OmniCloneError, ValueError):
    """Datagram has a bad magic or unsupported version."""


class CorruptionError(ProtocolError):
    """Datagram checksum mismatch."""


class TruncationError(ProtocolError):
    """Datagram shorter than its declared length."""


class NeverFedError(OmniCloneError, RuntimeError):
    """Pop attempted on a queue that has never received a frame."""


class InsufficientDataError(OmniCloneError, RuntimeError):
    """Too few samples to report a statistic."""


class PlannerContractError(OmniCloneError, ValueError):
    """Planner returned a chunk violating the executor contract."""


class PlannerTimeout(OmniCloneError, RuntimeError):
    """Raised by planner callbacks that miss their budget; executor holds last action."""
