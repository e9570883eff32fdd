"""Library-wide exception types."""


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """Raised when a component is constructed with inconsistent parameters."""


class UnknownBackendError(ConfigurationError, ValueError):
    """An embedding backend name that names no backend; the message lists
    the known ones.  A ``ValueError`` so callers that caught the factory's
    historical ``ValueError`` keep working."""


class MemoryBudgetError(ConfigurationError):
    """Raised when an embedding method cannot satisfy a memory budget.

    The paper notes that some baselines have hard floors on how far they can
    compress (AdaEmbed stores a score per feature, the Q-R trick needs at
    least the square root of the cardinality, MDE needs one dimension per
    feature).  Those limits surface as this exception.
    """


class DataError(ReproError):
    """Raised for malformed or inconsistent dataset inputs."""


class DeltaProtocolError(ReproError):
    """Base class for violations of the delta-snapshot publish protocol.

    Replicas raise these instead of silently serving stale or corrupt
    parameters: every payload names the version it produces and (for
    deltas) the exact base version it applies to, and a replica refuses
    anything that does not extend its current version by that chain.
    """


class VersionRegressionError(DeltaProtocolError):
    """A replica received a payload at or below its current version.

    Duplicate delivery and replays are refused loudly — re-applying a delta
    would double-scatter rows, and re-applying an old full snapshot would
    roll served parameters back without anyone noticing.
    """


class DeltaChainGapError(DeltaProtocolError):
    """A delta's base version is ahead of the replica (dropped publish).

    The chain has a hole: one or more intermediate deltas never arrived,
    so applying this one would serve silently wrong rows.  The remedy is a
    full-snapshot rebase, which the error message spells out.
    """


class BadBatchError(ReproError, ValueError):
    """Base class for a batch an embedding store refuses at its boundary.

    Raised once, by the outermost store, before any shard or table is
    touched; a ``ValueError`` subclass so callers that caught the historical
    bare ``ValueError`` keep working.
    """


class NonIntegerIdError(BadBatchError):
    """Feature ids arrived with a non-integer dtype (``1.5`` is not an id)."""


class IdOutOfRangeError(BadBatchError):
    """A feature id lies outside ``[0, num_features)``."""


class MalformedRequestError(BadBatchError):
    """A serving request was refused at ``submit``, alone and before queueing.

    Its ids do not have the model's field count, or its ``numerical`` block
    has the wrong shape or contains NaN/inf; requests already queued beside
    it are unaffected.
    """


class BatchShapeError(BadBatchError):
    """A batch's ids or ``numerical`` block does not have the model's shape.

    Raised by the model (``forward`` / ``predict_proba``, so also by
    ``Trainer.train_step``) before any lookup: a batch with 25 of 26 fields
    or 12 of 13 numerical columns is refused with nothing touched, and so is
    a training batch whose labels are not one value per row.
    """


class NonFiniteFeatureError(BadBatchError):
    """A training batch's ``numerical`` features contain NaN or inf.

    Refused before the forward pass: the NaN would otherwise surface one
    backward pass later as a :class:`NonFiniteGradientError`, which names
    the wrong input.
    """


class InvalidLabelError(BadBatchError):
    """A training batch's labels are NaN/inf or lie outside ``[0, 1]``.

    Refused by ``Trainer.train_step`` before the lookup: a NaN label would
    otherwise surface after the forward pass as a
    :class:`NonFiniteGradientError`, and a label of 2 would train silently.
    """


class NonFiniteGradientError(BadBatchError):
    """A gradient batch contains NaN or inf.

    Applying it would poison table rows and HotSketch scores (or, on the
    dense side, every parameter and optimizer moment) for good, so the whole
    batch is refused and no shard, parameter or state array is mutated.
    """


class SketchStateMismatchError(ReproError, ValueError):
    """A saved HotSketch's keys, scores or payloads shape does not fit the
    sketch loading it (another geometry: every feature would be misplaced)."""


class OptimizerStateMismatchError(ReproError, ValueError):
    """Saved dense-optimizer state does not fit the optimizer loading it.

    The kind (sgd / adagrad / adam), the set of state arrays or their size
    differs, so the arrays cannot belong to this optimizer's parameters.
    """
