"""Exception types shared across the package, and the one guard on work."""

WORK_LIMIT = 10**7  # items of work (subgroups, words, exponents, bits) one job may do


class SelfCheckError(RuntimeError):
    """An always-on internal cross-check failed; indicates a bug, not bad input."""


class NotASubgroupError(ValueError):
    """A word set claimed to be a code is not an additive subgroup."""


class AmbientTooLargeError(ValueError):
    """A job was refused before it started: its predicted work passes WORK_LIMIT (see check_work)."""


def check_work(predicted: int, what: str) -> None:
    """Refuse a job, before it builds anything, whose work is predicted above WORK_LIMIT items."""
    if predicted > WORK_LIMIT:
        shown = predicted if predicted < 1 << 64 else f"2^{predicted.bit_length() - 1} or more"
        raise AmbientTooLargeError(f"{what}: predicted {shown}, above the work limit of {WORK_LIMIT}")
