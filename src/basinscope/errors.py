"""Exception types shared across the toolkit."""


class BasinscopeError(Exception):
    """Base class for all toolkit errors."""


class SizeError(BasinscopeError, ValueError):
    """Shape or size precondition violated."""


class DomainError(BasinscopeError, ValueError):
    """Argument outside the operation's domain."""


class DivergedRunError(BasinscopeError, RuntimeError):
    """Training produced a non-finite loss or gradient."""

    def __init__(self, epoch: int, message: str = ""):
        self.epoch = epoch
        super().__init__(message or f"training diverged at epoch {epoch}")


class FileFormatError(BasinscopeError, RuntimeError):
    """A serialized file failed to load; ``section`` names the failing part."""

    def __init__(self, section: str, message: str):
        self.section = section
        super().__init__(f"{section}: {message}")
