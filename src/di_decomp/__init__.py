"""Decomposition of daily 5-year DI futures changes into bps contributions.

Three blocks drive the decomposition: a supervised macro/central-bank
factor extracted from expectation changes, and the domestic and global
components of sovereign CDS moves.  A final regression converts the blocks
into daily basis-point contributions whose cumulative paths add up exactly.
"""

__version__ = "0.1.0"

from .series import (  # noqa: F401
    DailySeries,
    Frame,
    StandardizationParams,
    diff,
    inner_join,
    log_return,
    standardize,
    to_bps_change,
)
from .regression import OlsFit, ols_fit, student_t_two_sided_p  # noqa: F401
from .pls import PlsModel, anchor_sign, macro_factor, pls1_fit  # noqa: F401
from .cds import CdsComponents, CdsSplitModel, split_cds  # noqa: F401
from .decomposition import (  # noqa: F401
    DecompositionModel,
    VarianceShares,
    accumulate,
    contributions,
    fit_decomposition,
    significance_label,
    validate_cumulative,
    variance_shares,
)
from .ingestion import (  # noqa: F401
    FocusPanel,
    LoadReport,
    MarketDataset,
    fetch_focus,
    load_market_csv,
    reshape_horizons,
)
from .fixture import generate_fixture  # noqa: F401
from .svg_chart import emit_svg  # noqa: F401
