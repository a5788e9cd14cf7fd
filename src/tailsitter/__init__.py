"""Loop-shaping control design and deterministic flight simulation for a
quadrotor tail-sitter VTOL: quaternion attitude math, transfer-function
algebra with delay, chirp-sweep system identification, notch/PID design,
and scenario-driven closed-loop verification."""

__version__ = "0.1.0"
