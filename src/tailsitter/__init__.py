"""Loop-shaping control design and deterministic flight simulation for a
quadrotor tail-sitter VTOL: quaternion attitude math, transfer-function
algebra with delay, chirp-sweep system identification, notch/PID design,
and scenario-driven closed-loop verification."""

from .quat import (
    EulerZXY,
    Quaternion,
    attitude_error,
    euler_zxy_to_quat,
    quat_to_euler_zxy,
)
from .lti import (
    ContinuousTF,
    PlantFitParams,
    ResonanceParams,
    StabilityMargins,
    butterworth2,
    fitted_plant,
    magnitude_slope,
    margins,
    notch,
    pid_tf,
    tf_eval,
    tf_series,
)
from .biquad import BiquadCascade, BiquadSection, discretize_tustin

__version__ = "0.1.0"
