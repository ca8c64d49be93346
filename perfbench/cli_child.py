"""Run one sublevy CLI subcommand with spans around the public calls it makes.

    cli_child.py SPAN_FILE SUBCOMMAND [CLI ARGS ...]

Behaves like ``python -m sublevy.cli SUBCOMMAND ...`` (same exit code, same
artifacts) and writes the spans it recorded to SPAN_FILE as JSON.  The
wrapped functions are replaced wherever a sublevy module holds them, so
calls from inside the package (``restart`` calling ``solve``,
``mc_lower_bound`` calling ``estimate_value``) are recorded too.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys

import spans

# (module, attribute, span name)
WRAPPED = (
    ("sublevy.kou", "build_field", "kou.build_field"),
    ("sublevy.kou", "fourier_reference", "kou.fourier_reference"),
    ("sublevy.core", "audit_conditions", "core.audit_conditions"),
    ("sublevy.transform", "quantile_k", "transform.quantile_k"),
    ("sublevy.transform", "verify_transport", "transform.verify_transport"),
    ("sublevy.pide", "cfl_timestep", "pide.cfl_timestep"),
    ("sublevy.pide", "solve", "pide.solve"),
    ("sublevy.pide", "restart", "pide.restart"),
    ("sublevy.simulate", "policy_from_pide", "simulate.policy_from_pide"),
    ("sublevy.simulate", "estimate_value", "simulate.estimate_value"),
    # the u.csv formatter the CLI uses, when it has its own
    ("sublevy.cli", "_value_csv", "pide.write_csv"),
)


def _attach_counts(span, name, fn, args, kwargs, result):
    if name == "pide.solve":
        span.attrs["steps"] = int(result.metadata["n_steps"])
        span.attrs["stored_bytes"] = int(result.values.nbytes)
    elif name == "simulate.estimate_value":
        try:
            bound = inspect.signature(fn).bind(*args, **kwargs)
        except TypeError:
            return
        a = bound.arguments
        span.attrs["path_steps"] = path_steps(a["n_paths"], a["T"], a["dt"])


def path_steps(n_paths: int, T: float, dt: float) -> int:
    """Paths times Euler steps, with the simulator's step-count rule."""
    return int(n_paths) * max(1, int(round(T / dt)))


def _wrap(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as span:
            result = fn(*args, **kwargs)
            _attach_counts(span, name, fn, args, kwargs, result)
        return result

    return wrapper


def install(tracer) -> None:
    """Wrap every WRAPPED function in every loaded sublevy module holding it."""
    holders = [m for n, m in sys.modules.items() if n == "sublevy" or n.startswith("sublevy.")]
    for module_name, attr, name in WRAPPED:
        original = getattr(sys.modules[module_name], attr, None)
        if original is None:
            continue
        wrapper = _wrap(tracer, name, original)
        for module in holders:
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)
    value_field = sys.modules["sublevy.pide"].ValueField
    value_field.write_csv = _wrap(tracer, "pide.write_csv", value_field.write_csv)


def main() -> int:
    span_file, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer(run_id="child", prefix=f"{os.getpid()}:")
    try:
        with tracer.span("import.sublevy"):
            import sublevy.cli
        install(tracer)
        return sublevy.cli.main(argv)
    finally:
        with open(span_file, "w") as fh:
            json.dump(tracer.to_json(), fh)


if __name__ == "__main__":
    sys.exit(main())
