"""Exact integer arithmetic for pentagonal-structured q-series.

Truncated series with exact coefficients, closed-form coefficient access for
(q^2;q)_inf and (q^3;q)_inf at indices far beyond any expansion, the Eden
family F_k with its recurrences, tail splits and correction polynomials,
max-coefficient classification tables, and a brute-force partition oracle.
"""

from .closed_form import CoeffAnswer, a_coeff, b_coeff, first_appearance
from .classify import (Budget, ClassRecord, ConjectureReport, HTable,
                       WindowRecord, build_s_table, build_shat_table,
                       conjecture_scan, eden_class, poch_class, s_cutoff,
                       shat_bound, window_check, window_detail,
                       window_sweep)
from .errors import BudgetError, UsageError
from .fseries import (CorrectionPoly, NoCorrectionError, TailSplit, F_backsolve,
                      F_direct, correction, eden_series, f1_base_identity_check,
                      one_mod_k_identity_check, pentagonal_tail,
                      recurrence_check, tail_split)
from .pentagonal import (PentaBlock, locate_block_a, locate_block_b, p1, p2,
                         pentagonal_index, pnt_series)
from .series import TruncSeries, pochhammer, qq_poly

__version__ = "1.0.0"

__all__ = [
    "Budget", "BudgetError", "ClassRecord", "CoeffAnswer", "ConjectureReport",
    "CorrectionPoly", "F_backsolve", "F_direct", "HTable", "NoCorrectionError",
    "PentaBlock", "TailSplit", "TruncSeries", "UsageError", "WindowRecord",
    "a_coeff", "b_coeff", "build_s_table", "build_shat_table",
    "conjecture_scan", "correction", "eden_class", "eden_series",
    "f1_base_identity_check", "first_appearance", "locate_block_a",
    "locate_block_b", "one_mod_k_identity_check", "p1", "p2",
    "pentagonal_index", "pentagonal_tail", "pnt_series", "poch_class",
    "pochhammer", "qq_poly", "recurrence_check", "s_cutoff", "shat_bound",
    "tail_split", "window_check", "window_detail", "window_sweep",
]
