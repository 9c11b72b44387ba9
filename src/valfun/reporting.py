"""Hypothesis bookkeeping shared by the estimate modules.

Every estimate carries a log of the assumptions behind it: which were
verified computationally, which were taken from asserted problem flags,
and which failed (the estimate is still produced, tagged accordingly).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import model

VERIFIED = "verified"
ASSERTED = "asserted"
ASSUMED = "assumed"
FAILED = "failed"
NOT_CHECKED = "not-checked"

#: Record status of each verdict of the quadratic shape checks
#: (``model.verify_concave_convex`` and ``model.verify_convex_in_y``).
SHAPE_STATUS = {"verified": VERIFIED, "asserted": ASSERTED, "failed": FAILED,
                "unknown": NOT_CHECKED}


@dataclass
class HypothesisRecord:
    name: str
    status: str  # one of the constants above
    detail: str = ""

    def to_json(self) -> dict:
        return {"name": self.name, "status": self.status, "detail": self.detail}


def worst_status(records) -> str:
    order = [VERIFIED, ASSERTED, ASSUMED, NOT_CHECKED, FAILED]
    worst = VERIFIED
    for r in records:
        if order.index(r.status) > order.index(worst):
            worst = r.status
    return worst


def convex_in_y_record(problem, assumed: str) -> HypothesisRecord:
    """The ``convex-in-y`` record of ``model.verify_convex_in_y(problem)``,
    naming the problem flag or the quadratic shape check as its source.
    With neither the hypothesis is assumed, and ``assumed`` says on what
    terms."""
    verdict = model.verify_convex_in_y(problem)
    if verdict == "unknown":
        return HypothesisRecord("convex-in-y", ASSUMED, assumed)
    detail = "problem flag" if model._quadratic_shape(problem) is None else "quadratic shape check"
    return HypothesisRecord("convex-in-y", SHAPE_STATUS[verdict], detail)
