"""Beam-squint boundaries and channel slicing for very large OFDM arrays.

Submodules: ``wavefield`` (geometry, phase kernel, channel synthesis),
``boundaries`` (squint/near-field boundaries and classification), ``slicing``
(antenna and sub-band partition planning), ``precoding`` (precoders and SE
metrics), ``scenario`` (config and seeded sampling), ``experiments`` (Monte
Carlo sweeps), ``cli`` (command-line entry point).
"""

from .boundaries import (
    BoundaryBound,
    BoundaryReport,
    BoundaryTable,
    SquintThresholds,
    boundary_bounds,
    boundary_report,
    boundary_table,
    classify_path,
)
from .experiments import CSV_HEADER, EXPERIMENTS, SweepResult, SweepRow, run_experiment
from .precoding import (
    PrecoderSet,
    Scheme,
    narrowband_beams,
    narrowband_mrt,
    normalized_array_gain,
    owner_gain_amplitudes,
    per_subcarrier_rates,
    se_optimal,
    se_slicing_closed_form,
    se_subband_closed_form,
    slice_analog_rows,
    slice_precoder_set,
    spectral_efficiency,
    static_precoder_set,
    subband_analog_rows,
    subband_precoder_set,
)
from .scenario import (
    RngStream,
    ScenarioConfig,
    sample_paths,
    sample_scenario,
    sample_user_paths,
)
from .slicing import (
    InfeasiblePlanError,
    SliceBlocks,
    SubbandPlan,
    UserSubband,
    allocate_subbands,
    plan_antenna_rows,
    plan_antenna_slices,
    subcarrier_caps,
)
from .wavefield import (
    SPEED_OF_LIGHT,
    ArrayGeometry,
    CarrierGrid,
    ChannelTensor,
    FieldModel,
    PathBatch,
    PathParams,
    beam_squint_matrix,
    channel_columns,
    path_phases,
    path_slots,
    read_channel_dump,
    synth_channel,
    write_channel_dump,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "1.0.0"
