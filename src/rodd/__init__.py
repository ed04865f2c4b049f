"""On-off-division duplex signaling over half-duplex radios.

Each node transmits through a pseudo-random binary duplex mask and
listens in its own off-slots, giving a whole neighborhood simultaneous
broadcast over one frame.  The package covers the erasure multiaccess
channel models, the closed-form throughput/capacity expressions with
their ALOHA baselines, compressed neighbor discovery by group-testing
elimination, the sparse-recovery short message code and the Monte Carlo
machinery that cross-checks the formulas against slot-level simulation.
"""

from .analysis import (
    RateResult,
    SweepTable,
    asymmetric_rate_bound,
    g,
    gauss_aloha_throughput,
    gauss_symmetric_capacity,
    gauss_symmetric_rate,
    h2,
    or_aloha_throughput,
    or_rate_at_p,
    or_symmetric_capacity,
    or_symmetric_rate,
    solve_water_level,
    sweep_gauss,
    sweep_or,
)
from .channels import (
    OrFrameObservation,
    RealFrameObservation,
    TransmitFrame,
    gaussian_mac,
    or_channel,
)
from .discovery import (
    DiscoveryResult,
    discovery_metrics,
    eliminate,
    observe_discovery,
    random_access_baseline,
    run_discovery_experiment,
    run_threshold_sweep,
)
from .model import (
    LinkGains,
    Topology,
    generate_poisson_network,
    link_gains,
    neighbors,
)
from .signatures import (
    DuplexMask,
    SignatureBook,
    derive_bit,
    derive_mask,
    reconstruct_book,
)
from .sparsecode import MessageBook, build_message_book, decode, encode
from .validate import (
    McEstimate,
    mc_gauss_rate,
    mc_or_rate,
    mc_weight_distribution,
    validate_suite,
)

__version__ = "0.1.0"
