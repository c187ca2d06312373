"""bankftl: a bank-parallel flash translation layer over a simulated
multi-bank NAND card, with pluggable garbage-collection scheduling policies
(inline NPGC, parallel co-running PLLGC, adaptive throttling), chained
checkpointing with windowed discovery, page-level crash recovery, and a
desk-scale benchmark harness."""

from .bench import (AgingSpec, RunReport, WorkloadSpec, drive, emit_report,
                    inject_aging, preset, run, run_init_scan, run_preset,
                    run_queue_scaling)
from .engine import Engine, EngineConfig
from .errors import (AuditError, BadBlockError, CheckpointError,
                     ConfigurationError, EngineStateError, ExhaustionError,
                     OverwriteViolation, SequencingViolation)
from .ftl_state import UNMAPPED, FtlState
from .gc_engine import GcController, GcLevel, GcPolicy, GcStats, default_levels
from .io_engine import EngineParams, IoEngine, IoRequest
from .sched import Scheduler
from .sim_flash import (PROFILES, FlashGeometry, LatencyModel, PageAddress,
                        SimFlashDevice, load_profile, make_device, save_profile)

__version__ = "0.1.0"
