"""Beam-squint boundaries and channel slicing for very large OFDM arrays.

Submodules: ``wavefield`` (geometry, steering, channel synthesis),
``boundaries`` (squint/near-field boundaries and classification), ``slicing``
(antenna and sub-band partition planning), ``precoding`` (precoders and SE
metrics), ``scenario`` (config and seeded sampling), ``experiments`` (Monte
Carlo sweeps), ``cli`` (command-line entry point).
"""

from .boundaries import (
    UNBOUNDED,
    BoundaryBound,
    BoundaryReport,
    SquintThresholds,
    Unbounded,
    antenna_boundary,
    boundary_bounds,
    boundary_coefficients,
    boundary_report,
    classify_path,
    freq_boundary,
    is_unbounded,
    max_distance_variation,
    max_squint_phase,
    near_field_threshold,
    near_field_threshold_approx,
    subband_phase_limit,
)
from .experiments import CSV_HEADER, EXPERIMENTS, SweepResult, SweepRow, run_experiment
from .precoding import (
    DegenerateSubcarrierError,
    PrecoderSet,
    Scheme,
    digital_mrt,
    hybrid_gain_amplitudes,
    mrt_full_array,
    multiuser_gain,
    narrowband_beams,
    narrowband_mrt,
    normalized_array_gain,
    optimal_precoder_set,
    optimal_receiver,
    per_subcarrier_rates,
    power_for_snr_db,
    se_closed_forms,
    se_equal_slicing_closed_form,
    se_optimal,
    se_single_path_bound,
    se_slicing_closed_form,
    se_subband_closed_form,
    slice_analog_matrix,
    slice_analog_rows,
    slice_precoder_set,
    snr_db,
    spectral_efficiency,
    static_precoder_set,
    subband_analog_matrix,
    subband_analog_rows,
    subband_precoder_set,
)
from .scenario import (
    RngStream,
    ScenarioConfig,
    mean_path_power,
    sample_paths,
    sample_scenario,
    sample_user_paths,
)
from .slicing import (
    InfeasiblePlanError,
    SlicingPlan,
    SubbandPlan,
    UserSubband,
    allocate_subbands,
    plan_antenna_slices,
    user_subcarrier_cap,
)
from .wavefield import (
    SPEED_OF_LIGHT,
    ArrayGeometry,
    CarrierGrid,
    ChannelTensor,
    FieldModel,
    PathParams,
    beam_squint_matrix,
    channel_columns,
    delay_steering,
    far_field_steering,
    near_field_steering,
    path_phases,
    read_channel_dump,
    scatterer_antenna_distance,
    subarray_center_distance,
    subarray_channel,
    subcarrier_frequencies,
    synth_channel,
    write_channel_dump,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "1.0.0"
