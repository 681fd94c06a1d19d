"""The training objective: the paper trains every framework with
``MarginRankingLoss``, and it is the only loss a :class:`TrainingConfig`
(``margin``) can select.
"""

from repro.losses.margin import MarginRankingLoss, margin_ranking_loss

__all__ = [
    "MarginRankingLoss",
    "margin_ranking_loss",
]
