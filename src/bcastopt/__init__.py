"""bcastopt: joint broadcast bandwidth, pricing, and file-scheduling
optimization for a mixed unicast/broadcast cell, with Monte Carlo
validation of the analytic revenue bound."""

__version__ = "0.1.0"
