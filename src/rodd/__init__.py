"""On-off-division duplex signaling over half-duplex radios.

Each node transmits through a pseudo-random binary duplex mask and
listens in its own off-slots, giving a whole neighborhood simultaneous
broadcast over one frame.  The package covers the erasure multiaccess
channel models, the closed-form throughput/capacity expressions with
their ALOHA baselines, compressed neighbor discovery by group-testing
elimination, the sparse-recovery short message code and the Monte Carlo
machinery that cross-checks the formulas against slot-level simulation.

Names are imported from their modules (`from rodd import discovery`);
the package itself holds only `__version__` and imports nothing.
"""

__version__ = "0.1.0"
