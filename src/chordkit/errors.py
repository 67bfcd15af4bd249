"""Exception hierarchy shared across the toolkit."""


class ChordkitError(Exception):
    """Base class for all toolkit errors."""


# --- chord notation ---

class MalformedChord(ChordkitError):
    pass


class UnknownDegree(ChordkitError):
    pass


# --- vocabulary ---

class IdOutOfRange(ChordkitError):
    pass


class BadManifest(ChordkitError):
    pass


# --- annotations ---

class MalformedLine(ChordkitError):
    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class NonMonotoneTimes(ChordkitError):
    pass


class DegenerateSignal(ChordkitError):
    pass


# --- feature files ---

class BadMagic(ChordkitError):
    pass


class VersionMismatch(ChordkitError):
    pass


class TruncatedPayload(ChordkitError):
    pass


class BadBinConfig(ChordkitError):
    pass


class BadHeader(ChordkitError):
    pass


class NonFiniteFeatures(ChordkitError):
    pass


class EmptyBeatList(ChordkitError):
    pass


# --- models ---

class AllZeroCounts(ChordkitError):
    pass


class DimensionMismatch(ChordkitError):
    pass


class TargetOutOfRange(ChordkitError):
    pass


class EmptyDataset(ChordkitError):
    pass


class BadCheckpoint(ChordkitError):
    pass


class VocabularyMismatch(ChordkitError):
    pass


class BadPosteriors(ChordkitError):
    pass


class NonFiniteLoss(ChordkitError):
    def __init__(self, epoch):
        super().__init__(f"loss became non-finite at epoch {epoch}")
        self.epoch = epoch


# --- decoding / metrics ---

class EmptySequence(ChordkitError):
    pass


class LengthMismatch(ChordkitError):
    pass


class ZeroDefinedTime(ChordkitError):
    pass


class MissingQuality(ChordkitError):
    pass
