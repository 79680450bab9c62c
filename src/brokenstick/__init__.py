"""Order statistics of a randomly divided unit interval, with Monte Carlo
oracles and a betting-market analysis pipeline built on top of them."""

from .analysis import (
    AnalysisReport,
    BucketReport,
    Cell,
    build_report,
    eccdf_per_rank,
)
from .montecarlo import (
    CONSTRUCTIONS,
    McEstimate,
    SimConfig,
    WinnerStats,
    estimate_ccdf,
    estimate_mean,
    estimate_second_moment,
    estimate_winner_stats,
    sample_divisions,
    sample_races,
)
from .orderstats import (
    FieldSizeHistogram,
    SegmentLaw,
    ccdf_inverse,
    ccdf_kth_largest,
    conditional_mean_given_win,
    mean_kth_largest,
    mixture,
    mixture_ccdf,
    partial_harmonic,
    pooled_conditional_mean_given_win,
    second_moment_kth_largest,
    winner_segment_mean,
)
from .racedata import (
    RaceEntry,
    RaceRecord,
    Races,
    RaceTable,
    Rejection,
    parse_races,
    rank_races,
    write_races_csv,
)
from .stats import EccdfCurve, eccdf
from .synth import SyntheticDatasetConfig, generate_synthetic_dataset

__version__ = "0.1.0"
