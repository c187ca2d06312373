"""Exception types shared across the device, state tables and engine."""


class ConfigurationError(ValueError):
    """Invalid geometry, latency model or engine configuration."""


class AddressError(ValueError):
    """Out-of-range bank/block/page/lpn or offset."""


class SequencingViolation(RuntimeError):
    """Pages inside a block must be programmed strictly in order."""


class OverwriteViolation(RuntimeError):
    """A written page cannot be programmed again before a block erase."""


class BadBlockError(RuntimeError):
    """Operation targeted a block flagged bad."""


class ExhaustionError(RuntimeError):
    """No free block is available where one was required."""


class CheckpointError(RuntimeError):
    """Checkpoint image could not be written or parsed."""


class AuditError(AssertionError):
    """A stop-the-world consistency audit found mismatching counters."""


class EngineStateError(RuntimeError):
    """Operation on a handle outside the start..shutdown window."""
