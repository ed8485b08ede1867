"""Exception types shared across the toolkit."""


class HybridSimError(Exception):
    """Base class for all toolkit errors."""


class OutOfRange(HybridSimError):
    """A literal or encoded value falls outside its hardware number format."""


class DivideByZero(HybridSimError):
    """Reciprocal of zero."""


class IRSyntaxError(HybridSimError):
    """Malformed program text.  Carries 1-based line and column."""

    def __init__(self, message: str, line: int, col: int = 1):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class SemanticError(HybridSimError):
    """Structurally well-formed text with invalid meaning (undeclared
    variable, duplicate label, missing branch target, kind mismatch)."""

    def __init__(self, message: str, line: int | None = None):
        where = f"line {line}: " if line is not None else ""
        super().__init__(where + message)
        self.line = line


class UnloweredGate(HybridSimError):
    """A gate survived lowering with no decomposition into the profile."""


class StepLimitExceeded(HybridSimError):
    """A shot ran past its instruction budget."""


class DegeneratePosterior(HybridSimError):
    """Every posterior weight vanished; the prior has no usable support."""


class ShotError(HybridSimError):
    """Wraps an error raised inside one shot with its shot index, and the
    label of the block and the source line it was raised at (the line is
    None for a program built without source text)."""

    def __init__(self, shot_index: int, cause: Exception,
                 block: str | None = None, line: int | None = None):
        super().__init__(f"shot {shot_index}, block {block}, line {line}: {cause}")
        self.shot_index = shot_index
        self.cause = cause
        self.block = block
        self.line = line
