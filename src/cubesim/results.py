"""Result records for single interferometer experiment runs."""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .tensor import _check_paths

#: Slack allowed when validating probability normalization and bounds on a
#: result record.  Looser than the entrywise tolerance because randomized
#: pipelines accumulate a few ulps across matrix products.
RESULT_TOL = 1e-9

_MODELS = ("quantum", "cube")


@dataclass(frozen=True)
class IFMResult:
    """Outcome probabilities of one interaction-free measurement run.

    ``p_trigger`` is the probability that the probe particle sets off the
    detector in the bomb path, ``p_inconclusive`` the probability of an
    outcome that also occurs with no bomb present, and ``p_success`` the
    probability of a conclusive bomb-present outcome.  The three exhaust
    all possibilities and sum to one.  ``bound_value`` is the
    model-specific lower bound on ``p_inconclusive`` evaluated for this
    run.
    """

    model: str
    n_paths: int
    p_trigger: float
    p_inconclusive: float
    p_success: float
    bound_value: float
    label: str = ""
    support_sensitive: bool = False

    def __post_init__(self) -> None:
        if self.model not in _MODELS:
            raise ValueError(f"model must be one of {_MODELS}, got {self.model!r}")
        _check_paths(self.n_paths, 2)
        probs = (self.p_trigger, self.p_inconclusive, self.p_success)
        for name, p in zip(("p_trigger", "p_inconclusive", "p_success"), probs):
            if not -RESULT_TOL <= p <= 1.0 + RESULT_TOL:
                raise ValueError(f"{name}={p} is outside [0, 1]")
        total = sum(probs)
        if abs(total - 1.0) > RESULT_TOL:
            raise ValueError(f"probabilities sum to {total}, expected 1")
        # written as ``not (p >= bound - RESULT_TOL)`` so that a NaN bound fails
        if not (self.p_inconclusive >= self.bound_value - RESULT_TOL):
            raise ValueError(
                f"p_inconclusive={self.p_inconclusive} violates the lower bound "
                f"{self.bound_value}"
            )

    def is_perfect(self) -> bool:
        """Perfect interaction-free measurement: never triggers, yet the
        inconclusive outcome is not certain (both within ``RESULT_TOL``)."""
        return self.p_trigger < RESULT_TOL and self.p_inconclusive < 1.0 - RESULT_TOL

    def to_json_dict(self) -> dict:
        """The fields in order, with ``bound_value`` under the key ``bound``."""
        return {("bound" if k == "bound_value" else k): v for k, v in asdict(self).items()}


RESULT_CSV_HEADER = "model,n_paths,p_trigger,p_inconclusive,p_success,bound"


def _csv(header: str, rows: list[tuple]) -> str:
    """The header line, then each row's values joined by ','.  A value
    prints as ``str`` gives it, which for a Python float is ``repr``: the
    shortest text that reads back to the same float."""
    return "\n".join([header, *(",".join(map(str, row)) for row in rows)]) + "\n"


def results_to_csv(results: list[IFMResult]) -> str:
    """CSV table with one row per run ('.' decimal separator, ',' delimiter)."""
    keys = RESULT_CSV_HEADER.split(",")
    records = map(IFMResult.to_json_dict, results)
    return _csv(RESULT_CSV_HEADER, [[record[key] for key in keys] for record in records])
