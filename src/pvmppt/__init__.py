"""PV array simulation, partial-shading detection, and ramp-scan global MPPT."""

from .control import (
    ControllerConfig,
    ControllerState,
    DetectorConfig,
    Measurement,
    Mode,
    ReferenceModel,
    compute_psi,
    controller_tick,
    po_step,
    scan_step,
    update_references,
)
from .converter import (
    CommandSegment,
    CommandSignal,
    ConverterParams,
    TraceRecord,
    duty_for_voltage,
    step_ode,
)
from .harness import (
    RunReport,
    Scenario,
    ScenarioError,
    ShadingPattern,
    build_reference_model,
    detect_pattern,
    emit_report,
    emit_trace,
    load_scenario,
    run_closed_loop,
    run_corpus,
)
from .pvmodel import (
    ND195R1S,
    ArraySpec,
    CalibrationError,
    ModuleCondition,
    ModuleDatasheet,
    ModuleParams,
    PvCurve,
    STC,
    ValidationError,
    calibrate_module,
    module_current,
    module_voltage,
    oracle_gmpp,
    string_current,
    sweep_curve,
)

__version__ = "0.1.0"
