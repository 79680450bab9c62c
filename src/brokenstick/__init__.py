"""Order statistics of a randomly divided unit interval, with Monte Carlo
oracles and a betting-market analysis pipeline built on top of them."""

__version__ = "0.1.0"
