"""Exception hierarchy for rds_kit."""


class RdsKitError(Exception):
    """Base class for all rds_kit errors."""


class ValidationError(RdsKitError):
    """Structurally invalid instance description."""


class OverlappingMatching(ValidationError):
    """A matching endpoint is used by more than one matching pair."""


class DegreeSumMismatch(ValidationError):
    """Total degree of the two vertex classes disagrees."""


class DegreeExceedsChords(ValidationError):
    """A vertex demands more edges than it has chords."""


class StarCenterOutOfRange(ValidationError):
    """Star center or leaf index outside the vertex range."""


class ForbiddenSetNotBipartite(ValidationError):
    """Star plus matching contains an odd cycle (general instances only)."""


class LengthMismatch(ValidationError):
    """Out- and in-degree sequences differ in length."""


class SumMismatch(ValidationError):
    """Out- and in-degree sequences differ in total."""


class IndexOutOfRange(RdsKitError):
    """Vertex index outside the instance."""


class NotDirectedKind(RdsKitError):
    """Operation requires an instance built from a directed degree bisequence."""


class InvalidCircuit(RdsKitError):
    """Vertex sequence does not form a chord-circuit."""


class NotAChord(RdsKitError):
    """A required vertex pair is not a chord."""


class NotAlternating(RdsKitError):
    """Circuit chords do not alternate between edges and non-edges."""


class NotNormal(RdsKitError):
    """A chord neighbourhood has a vertex with several forbidden partners."""


class PreconditionViolated(RdsKitError):
    """Operation invoked outside its stated precondition."""


class NotAdjacent(RdsKitError):
    """Realizations are not one chain move apart."""


class InstanceTooSmall(RdsKitError):
    """Chain needs at least two vertices in each class."""


class NotAMilestonePair(RdsKitError):
    """Realizations do not differ by exactly the given cycle."""


class AuditFailed(RdsKitError):
    """A runtime audit found a state outside the guaranteed bounds (implementation bug)."""


class TooLarge(RdsKitError):
    """Input exceeds the configured exhaustive-search guard."""


class TooManyStates(TooLarge):
    """State space exceeds a state-count guard; enumeration stops when it fires."""


class Exhausted(RdsKitError):
    """No branching chord is left anywhere in the instance."""


class NotGraphical(RdsKitError):
    """Instance admits no realization."""
