"""Exception hierarchy shared across the package."""


class DivselError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(DivselError):
    """A configuration value is outside its allowed range."""


class IngestError(DivselError):
    """A record stream could not be turned into a memory."""


class MemoryFormatError(DivselError):
    """A persisted file is corrupt, truncated, or not ours."""


class VersionMismatchError(MemoryFormatError):
    """A persisted file carries an unsupported format version."""


class UnknownIdError(DivselError):
    """Lookup of an exemplar id that is not in the memory."""


class DimensionError(DivselError):
    """Vector dimensions do not agree."""


class EncodingError(DivselError):
    """Dialogue encoding failed (bad embeddings, NaNs, ...)."""


class SelectionError(DivselError):
    """Subset selection was called with unusable inputs."""


class CompositionError(DivselError):
    """A prompt cannot be fit into its token budget."""


class CandidateSetError(DivselError):
    """No candidate labels could be exposed to the verifier."""


class VerifierTransportError(DivselError):
    """The verifier endpoint could not be reached; safe to retry."""


class VerifierProtocolError(DivselError):
    """The verifier replied with a malformed payload."""


class InvariantViolation(DivselError):
    """A runtime self-check failed; results must not be trusted."""
