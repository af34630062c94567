"""Evaluation statistics: spill-code accounting and table rendering."""

from repro.stats.spill import FIGURE3_CATEGORIES
from repro.stats.report import format_table

__all__ = ["FIGURE3_CATEGORIES", "format_table"]
