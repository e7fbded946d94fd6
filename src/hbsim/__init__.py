"""hbsim: deterministic heartbeat-propagation simulator for large data centres.

Simulates how liveness ("heartbeat") information spreads through a
data centre under continuous failure, comparing central, hierarchical,
simple peer-to-peer, and transitive peer-to-peer retrieval protocols,
and measures inconsistency counts and network load across sizes and
failure rates with fully reproducible seeded runs.
"""

from .datacenter import DataCenter, NotSubscribedError, build_datacenter
from .des import (
    DispatchError,
    EmptyTallyError,
    Event,
    EventQueue,
    RngStream,
    SchedulingError,
    Tally,
    derive_stream_seed,
)
from .experiment import (
    ConfigError,
    ExperimentConfig,
    RunOutput,
    RunSummary,
    SweepSummary,
    aggregate,
    ci95_halfwidth,
    grid_configs,
    init_run,
    parse_config,
    run_config,
    run_one,
    run_sweep,
)
from .failure import (
    FailureConfig,
    NO_REPAIR,
    ScriptedFailureStream,
    TOGGLE_REPAIR,
    fire_failure,
    schedule_next_failure,
)
from .outputs import emit_plot_data, write_outputs, write_summary_csv, write_sweep_outputs
from .protocols import (
    CENTRAL,
    HIERARCHICAL,
    PROTOCOL_KINDS,
    SIMPLE_P2P,
    TRANSITIVE_P2P,
    GlobalView,
    ProtocolConfig,
    build_global_view,
    make_poller,
)

__version__ = "0.1.0"
