"""Generate docs/API.md from the package's public surface.

Walks every ``repro`` subpackage, collects the public API (the
``__all__`` of each module) with signatures and docstring summaries,
and renders a markdown reference.  Run as::

    python -m repro.tools.apidoc [output_path]

The test suite regenerates the document and checks it is in sync with
the shipped ``docs/API.md`` — documentation drift fails CI.
"""

from __future__ import annotations

import importlib
import inspect
import sys

__all__ = ["collect_api", "render_markdown", "generate", "PUBLIC_MODULES"]

#: The modules documented, in presentation order.
PUBLIC_MODULES = (
    "repro",
    "repro.core",
    "repro.core.svd",
    "repro.core.registry",
    "repro.core.rotation",
    "repro.core.ordering",
    "repro.core.convergence",
    "repro.core.hestenes",
    "repro.core.modified",
    "repro.core.blocked",
    "repro.core.vectorized",
    "repro.core.fused",
    "repro.core.block_jacobi",
    "repro.core.preconditioned",
    "repro.core.symeig",
    "repro.core.theory",
    "repro.core.batch",
    "repro.core.result",
    "repro.hw",
    "repro.hw.params",
    "repro.hw.architecture",
    "repro.hw.timing_model",
    "repro.hw.resources",
    "repro.hw.scheduler",
    "repro.hw.preprocessor",
    "repro.hw.jacobi_unit",
    "repro.hw.kernels",
    "repro.hw.rtl_kernel",
    "repro.hw.fifo",
    "repro.hw.bram",
    "repro.hw.offchip",
    "repro.hw.fp_ops",
    "repro.hw.fixed_point",
    "repro.hw.input_schedule",
    "repro.hw.sweep",
    "repro.hw.trace",
    "repro.hw.pipeline",
    "repro.hw.netlist",
    "repro.hw.datasheet",
    "repro.baselines",
    "repro.baselines.householder",
    "repro.baselines.golub_kahan_qr",
    "repro.baselines.gkr_svd",
    "repro.baselines.twosided_jacobi",
    "repro.baselines.lanczos",
    "repro.baselines.divide_conquer",
    "repro.baselines.cordic_jacobi",
    "repro.baselines.systolic_model",
    "repro.baselines.plain_hestenes",
    "repro.baselines.sw_model",
    "repro.baselines.gpu_model",
    "repro.apps",
    "repro.apps.base",
    "repro.apps.pca",
    "repro.apps.lsi",
    "repro.apps.robust_pca",
    "repro.apps.truncated",
    "repro.apps.incremental",
    "repro.apps.image",
    "repro.apps.pattern",
    "repro.stream",
    "repro.stream.sources",
    "repro.stream.merge",
    "repro.stream.drivers",
    "repro.stream.serving",
    "repro.serve",
    "repro.serve.request",
    "repro.serve.result",
    "repro.serve.queue",
    "repro.serve.scheduler",
    "repro.serve.cache",
    "repro.serve.retry",
    "repro.serve.handle",
    "repro.serve.server",
    "repro.serve.shard",
    "repro.serve.shard.transport",
    "repro.serve.shard.worker",
    "repro.serve.shard.state",
    "repro.serve.shard.router",
    "repro.serve.shard.responses",
    "repro.serve.shard.frontend",
    "repro.obs",
    "repro.obs.tracer",
    "repro.obs.instruments",
    "repro.obs.metrics",
    "repro.obs.health",
    "repro.obs.events",
    "repro.obs.slo",
    "repro.obs.recorder",
    "repro.obs.exporters",
    "repro.obs.prof",
    "repro.obs.profmem",
    "repro.workloads",
    "repro.workloads.driver",
    "repro.eval",
    "repro.eval.accuracy",
    "repro.eval.calibration",
    "repro.eval.benchgate",
    "repro.eval.profgate",
    "repro.util",
    "repro.util.io",
    "repro.util.hashing",
)


def _summary(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    first = doc.split("\n\n", 1)[0].replace("\n", " ").strip()
    return first


def _signature(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return ""


def collect_api(modules=PUBLIC_MODULES) -> list[dict]:
    """Collect public items: one dict per module.

    Each entry: ``{"module", "summary", "items": [(name, kind,
    signature, summary), ...]}``.  Items are the module's ``__all__``
    (skipping re-exports documented in their home module).
    """
    out = []
    for mod_name in modules:
        mod = importlib.import_module(mod_name)
        names = list(getattr(mod, "__all__", []))
        items = []
        for name in names:
            obj = getattr(mod, name, None)
            if obj is None:
                continue
            home = getattr(obj, "__module__", mod_name)
            is_package = mod_name.count(".") <= 1 or not hasattr(mod, "__file__")
            if home != mod_name and not mod_name.endswith("__init__"):
                # Re-export: document only at the defining module,
                # except in the package indexes, where we list names.
                if mod_name not in ("repro", "repro.core", "repro.hw",
                                    "repro.baselines", "repro.apps",
                                    "repro.serve", "repro.workloads",
                                    "repro.eval", "repro.util"):
                    continue
                items.append((name, "re-export", "", f"see ``{home}``"))
                continue
            if inspect.isclass(obj):
                kind = "class"
            elif callable(obj):
                kind = "function"
            else:
                kind = "data"
            items.append((name, kind, _signature(obj) if kind != "data" else "",
                          _summary(obj) if kind != "data" else ""))
        out.append({
            "module": mod_name,
            "summary": _summary(mod),
            "items": items,
        })
    return out


def render_markdown(api=None) -> str:
    """Render the collected API as markdown."""
    api = api if api is not None else collect_api()
    lines = [
        "# API reference",
        "",
        "Generated by `python -m repro.tools.apidoc`; do not edit by hand.",
        "",
    ]
    for entry in api:
        lines.append(f"## `{entry['module']}`")
        lines.append("")
        if entry["summary"]:
            lines.append(entry["summary"])
            lines.append("")
        for name, kind, sig, summary in entry["items"]:
            if kind == "re-export":
                lines.append(f"- `{name}` — {summary}")
            elif kind == "data":
                lines.append(f"- `{name}` *(constant)*")
            else:
                shown_sig = sig if len(sig) <= 80 else "(...)"
                lines.append(f"- **{kind}** `{name}{shown_sig}` — {summary}")
        lines.append("")
    return "\n".join(lines)


def generate(path: str = "docs/API.md") -> str:
    """Write the reference to *path*; returns the rendered text."""
    text = render_markdown()
    with open(path, "w") as fh:
        fh.write(text)
    return text


if __name__ == "__main__":
    target = sys.argv[1] if len(sys.argv) > 1 else "docs/API.md"
    generate(target)
    print(f"wrote {target}")
