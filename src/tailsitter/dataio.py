"""File formats: CSV logs and exports, JSON configs, aero-table CSV.

JSON configs are the config dataclasses' own fields: ``to_config`` and
``from_config`` derive the mapping from ``dataclasses.fields`` and the type
hints, so no field or default is restated here.

All CSV is plain comma-separated text with a single header row.  Floats are
written with repr-level precision so identical runs produce bit-identical
files (the determinism contract).
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import types
import typing
from pathlib import Path

import numpy as np

from .lti import (ContinuousTF, PlantFitParams, _log_grid, fitted_plant, tf_eval,
                  unwrapped_phase_deg)
from .plant import AeroTable
from .sim import Event

__all__ = [
    "ConfigError",
    "write_csv",
    "read_csv",
    "write_bode_csv",
    "write_biquad_csv",
    "write_frf_csv",
    "save_aero_table",
    "load_aero_table",
    "load_json",
    "to_config",
    "from_config",
    "tf_from_config",
    "plant_params_from_config",
    "plant_params_to_config",
]


BODE_POINTS_PER_DECADE = 100


class ConfigError(ValueError):
    """Configuration file is malformed; message carries file/line context."""


def _fmt(x):
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def write_csv(path, header, rows):
    """Header plus one line per row, ``\r\n``-terminated as csv.writer does.

    A 2-D float array is formatted a row at a time with ``repr``, the form
    ``_fmt`` gives each float; other rows go through ``_fmt`` per value.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    floats = isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype.kind == "f"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for row in rows:
            cells = map(repr, row.tolist()) if floats else map(_fmt, row)
            fh.write(",".join(cells) + "\r\n")
    return path


def read_csv(path):
    """(header list, float ndarray of shape (rows, cols)); a row narrower or
    wider than the header, or a non-number, is a ConfigError at its line."""
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r, None)
        if header is None:
            raise ConfigError(f"{path}: empty file, no header row")
        width = len(header)
        data = []
        try:
            for row in filter(None, r):  # blank lines skipped
                if len(row) != width:
                    raise ValueError(f"{len(row)} fields, header has {width}")
                data.append([float(x) for x in row])
        except ValueError as e:
            raise ConfigError(f"{path}:{r.line_num}: {e}")
    if not data:
        raise ConfigError(f"{path}: no data rows")
    return header, np.array(data)


def write_bode_csv(path, tf: ContinuousTF, f_lo=0.1, f_hi=100.0):
    """`freq_hz,mag_db,phase_deg` at ``BODE_POINTS_PER_DECADE`` log-spaced
    points per decade over [f_lo, f_hi]."""
    if not 0.0 < f_lo < f_hi:
        raise ValueError("need 0 < f_lo < f_hi")
    f = _log_grid(f_lo, f_hi, BODE_POINTS_PER_DECADE)
    rows = np.column_stack([f, 20.0 * np.log10(np.abs(tf_eval(tf, f))),
                            unwrapped_phase_deg(tf, f)])
    return write_csv(path, ["freq_hz", "mag_db", "phase_deg"], rows)


def write_biquad_csv(path, cascade):
    """`section,b0,b1,b2,a1,a2` with a0 normalized to 1."""
    rows = [
        (i, *s.coefficients())
        for i, s in enumerate(cascade.sections)
    ]
    return write_csv(path, ["section", "b0", "b1", "b2", "a1", "a2"], rows)


def write_frf_csv(path, frf):
    rows = np.column_stack([frf.freqs, frf.response.real, frf.response.imag,
                            frf.coherence])
    return write_csv(path, ["freq_hz", "re", "im", "coherence"], rows)


def save_aero_table(path, table: AeroTable):
    """Rectangular grid flattened to `alpha_rad,V_ms,CL,CD` rows."""
    rows = []
    for i, a in enumerate(table.alpha_grid):
        for j, v in enumerate(table.v_grid):
            rows.append((a, v, table.cl[i, j], table.cd[i, j]))
    return write_csv(path, ["alpha_rad", "V_ms", "CL", "CD"], rows)


def load_aero_table(path) -> AeroTable:
    header, data = read_csv(path)
    if header != ["alpha_rad", "V_ms", "CL", "CD"]:
        raise ConfigError(f"{path}: expected header alpha_rad,V_ms,CL,CD")
    if not np.all(np.isfinite(data)):
        raise ConfigError(f"{path}: values must be finite")
    alphas = np.unique(data[:, 0])
    vs = np.unique(data[:, 1])
    if data.shape[0] != alphas.size * vs.size:
        raise ConfigError(f"{path}: grid is not rectangular")
    cl = np.full((alphas.size, vs.size), np.nan)
    cd = np.full((alphas.size, vs.size), np.nan)
    ia = np.searchsorted(alphas, data[:, 0])
    iv = np.searchsorted(vs, data[:, 1])
    cl[ia, iv] = data[:, 2]
    cd[ia, iv] = data[:, 3]
    if np.any(np.isnan(cl)) or np.any(np.isnan(cd)):
        raise ConfigError(f"{path}: grid has missing nodes")
    return AeroTable(alphas, vs, cl, cd)


def load_json(path):
    path = Path(path)
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"{path}: no such file")
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}:{e.lineno}:{e.colno}: {e.msg}")


# ---------------------------------------------------------------------------
# configs: JSON mappings derived from the dataclass fields


def _key(f):
    """JSON key of a dataclass field: its name unless metadata says otherwise."""
    return f.metadata.get("key", f.name)


def _reject_unknown(mapping, keys, path=""):
    unknown = sorted(set(mapping) - set(keys))
    if unknown:
        raise ConfigError(f"{path + '.' if path else ''}{unknown[0]}: unknown key")


def to_config(obj):
    """JSON-ready form of a config dataclass, keyed as the config files are."""
    if isinstance(obj, Event):
        return {"t": obj.t, "kind": obj.kind, **obj.args}
    if dataclasses.is_dataclass(obj):
        return {_key(f): to_config(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (tuple, list)):
        return [to_config(x) for x in obj]
    return obj


def from_config(cls, mapping):
    """Build the config dataclass ``cls`` from a JSON mapping.

    Every nested section is laid over the field's default, so a partial
    section keeps the defaults of the keys it leaves out.  An unknown key, a
    value of the wrong type, or a value the dataclass itself rejects raises
    ConfigError naming the dotted path (e.g. ``rate_loop.kp``).
    """
    return _load(cls, mapping, "", None)


def _load(tp, value, path, default):
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        (tp,) = [a for a in args if a is not type(None)]
        return _load(tp, value, path, default)
    if tp is Event:  # the one flat mapping: {"t": s, "kind": name, **args}
        if isinstance(value, dict):
            value = {**{k: value[k] for k in ("t", "kind") if k in value},
                     "args": {k: v for k, v in value.items()
                              if k not in ("t", "kind")}}
        return _load_dataclass(Event, value, path, None)
    if dataclasses.is_dataclass(tp):
        return _load_dataclass(tp, value, path, default)
    if origin is tuple:
        if args[-1] is Ellipsis:
            args = (args[0],) * len(value) if isinstance(value, list) else ()
        if not isinstance(value, list) or len(value) != len(args):
            raise ConfigError(f"{path}: expected a list of {len(args) or 'values'}")
        return tuple(_load(a, v, f"{path}[{i}]", None)
                     for i, (a, v) in enumerate(zip(args, value)))
    if tp is np.ndarray:
        try:
            arr = np.asarray(value)
        except ValueError:  # ragged nesting
            arr = np.asarray(None)
        if arr.dtype.kind not in "iuf":
            raise ConfigError(f"{path}: expected a numeric array")
        if not np.all(np.isfinite(arr)):
            raise ConfigError(f"{path}: values must be finite")
        return arr.astype(float)
    if tp is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        if not math.isfinite(value):
            raise ConfigError(f"{path}: must be finite, got {value}")
        return float(value)
    if type(value) is tp:
        return value
    raise ConfigError(f"{path}: expected {tp.__name__}, got {type(value).__name__}")


def _load_dataclass(cls, value, path, default):
    if not isinstance(value, dict):
        raise ConfigError(f"{path or cls.__name__}: expected a mapping, "
                          f"got {type(value).__name__}")
    fields = dataclasses.fields(cls)
    _reject_unknown(value, [_key(f) for f in fields], path)
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for f in fields:
        key = _key(f)
        sub = f"{path}.{key}" if path else key
        if key in value:
            if default is not None:
                base = getattr(default, f.name)
            else:
                base = (None if f.default_factory is dataclasses.MISSING
                        else f.default_factory())
            kwargs[f.name] = _load(hints[f.name], value[key], sub, base)
        elif default is None and f.default is f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"{sub}: required")
    try:
        if default is not None:
            return dataclasses.replace(default, **kwargs)
        return cls(**kwargs)
    except ValueError as e:
        raise ConfigError(f"{path}: {e}" if path else str(e))


def tf_from_config(cfg) -> ContinuousTF:
    """Build a ContinuousTF from a config mapping.

    Accepted forms, each with only its own keys:
      {"num": [...ascending...], "den": [...], "delay": s}
      {"plant": "reference"}                      - stock identified plant
      {"plant_params": {...}}                     - explicit structure params
    """
    if not isinstance(cfg, dict):
        raise ConfigError("transfer-function config must be a JSON object")
    if "num" in cfg or "den" in cfg:
        _reject_unknown(cfg, ("num", "den", "delay"))
        try:
            tf = ContinuousTF(cfg["num"], cfg["den"], float(cfg.get("delay", 0.0)))
        except (KeyError, TypeError, ValueError) as e:
            raise ConfigError(f"bad transfer-function config: {e}")
        for key, v in (("num", tf.num), ("den", tf.den), ("delay", tf.delay)):
            if not np.all(np.isfinite(v)):
                raise ConfigError(f"{key}: values must be finite")
        return tf
    if cfg.get("plant") == "reference":
        _reject_unknown(cfg, ("plant",))
        return fitted_plant()
    if "plant_params" in cfg:
        _reject_unknown(cfg, ("plant_params",))
        return fitted_plant(_load(PlantFitParams, cfg["plant_params"],
                                  "plant_params", None))
    raise ConfigError(
        "transfer-function config needs num/den, plant: reference, or plant_params"
    )


def plant_params_from_config(d) -> PlantFitParams:
    return from_config(PlantFitParams, d)


def plant_params_to_config(p: PlantFitParams) -> dict:
    return to_config(p)
