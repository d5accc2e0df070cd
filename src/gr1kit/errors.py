"""Exception types shared across the toolkit."""


class Gr1kitError(Exception):
    """Base class for all toolkit errors."""


class Diagnostic:
    """A single parse/validation problem with source position.

    ``kind`` is one of the string constants below; ``line`` and ``column``
    are 1-based, ``token`` is the offending lexeme (may be empty).
    """

    SYNTAX = "SyntaxError"
    UNKNOWN_VARIABLE = "UnknownVariable"
    TYPE_MISMATCH = "TypeMismatch"
    OWNERSHIP = "OwnershipViolation"
    DUPLICATE = "DuplicateDeclaration"
    PRIMED_NOT_ALLOWED = "PrimedNotAllowed"

    def __init__(self, kind, message, line=0, column=0, token=""):
        self.kind = kind
        self.message = message
        self.line = line
        self.column = column
        self.token = token

    def __repr__(self):
        where = f"{self.line}:{self.column}" if self.line else "?"
        tok = f" near {self.token!r}" if self.token else ""
        return f"{self.kind} at {where}{tok}: {self.message}"


class SpecError(Gr1kitError):
    """Raised when spec text fails to parse or validate.

    Carries the full list of diagnostics collected before giving up.
    """

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(repr(d) for d in self.diagnostics))


class MissingBinding(Gr1kitError):
    """A referenced variable is absent from the valuation passed to eval."""


class CapacityExceeded(Gr1kitError):
    """An arena, or the brute-force oracle's game, exceeds a state cap."""


class NotRealizable(Gr1kitError):
    """Strategy extraction was requested for an unrealizable game."""


class InvalidParams(Gr1kitError):
    """Scenario parameters violate their invariants."""


class AdversaryIllegalMove(Gr1kitError):
    """An adversary policy returned an assignment outside the legal set."""


class StrategyHole(Gr1kitError):
    """A strategy node has no response for a legal environment move."""


class AdversaryNotFinite(Gr1kitError):
    """Lasso checking needs a finite-state deterministic adversary."""
