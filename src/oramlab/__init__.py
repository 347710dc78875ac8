"""oramlab: a simulation and analysis lab for online oblivious RAMs.

Run memory engines against an instrumented array-maintenance server, capture
the address trace an adversary would see, and analyze it: access graphs,
dense-partition certificates with certified probe lower bounds, the
polynomial-time dense-partition distinguisher, and a two-party transfer codec
that demonstrates why write-then-read blocks force probe volume.
"""

from ._util import ModelViolationError, derive_seed
from .adversary import (
    AdvantageEstimate,
    DistinguisherVerdict,
    EmpiricalDistance,
    WorkloadShapeError,
    dense_partition_frequency,
    distinguish,
    estimate_advantage,
    parse_block_shape,
    statistical_distance_empirical,
    statistical_distance_exact,
)
from .codec import DecodeError, TransferMessage, alice_encode, block_data, bob_decode
from .core import (
    READ,
    WRITE,
    BlockLayout,
    InputOp,
    InputSequence,
    OramConfig,
    WorkloadSpec,
    gen_alternating_sequence,
    gen_write_read_blocks,
    instantiate_workload,
    parse_workload_spec,
)
from .graph import AccessGraph
from .orams import (
    ENGINE_NAMES,
    DummyLengthEncoder,
    DummyLengthLeaker,
    Engine,
    LinearScan,
    Passthrough,
    StashOverflowError,
    TreeOram,
    make_engine,
    run_sequence,
)
from .partition import (
    CertificateError,
    Partition,
    PartitionCertificate,
    certify,
    edge_lower_bound_from_certificate,
    greedy_dense_partition,
    is_dense,
)
from .server import AccessSequence, ServerState, adversary_view
from .traceio import (
    ExperimentReport,
    TraceFile,
    analyze_trace,
    default_analysis_params,
    read_trace,
    write_trace,
)

__version__ = "0.1.0"
