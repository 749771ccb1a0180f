"""repro — a reproduction of *Tandem Processor: Grappling with Emerging
Operators in Neural Networks* (ASPLOS 2024).

Quickstart::

    from repro import NPUTandem, build_model

    npu = NPUTandem()                      # Table 3 configuration
    result = npu.evaluate("bert")          # end-to-end analytic run
    print(result.total_seconds, result.energy_joules)

Subpackages:

* :mod:`repro.graph` — ONNX-like graph IR;
* :mod:`repro.models` — the seven benchmark DNNs;
* :mod:`repro.isa` — the Figure 12 instruction set;
* :mod:`repro.simulator` — functional + cycle-level Tandem Processor;
* :mod:`repro.gemm` — systolic-array GEMM unit;
* :mod:`repro.compiler` — ONNX graph -> Tandem ISA (Figure 13);
* :mod:`repro.npu` — the integrated NPU-Tandem (Figures 10/11);
* :mod:`repro.baselines` — every Section 2.3 comparison design point;
* :mod:`repro.analysis` — characterization + breakdowns;
* :mod:`repro.harness` — per-figure experiment registry.

Every package exports its names lazily (:mod:`repro._lazy`): ``import
repro`` loads no subpackage, and a name's module loads on first use.
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__ = lazy_exports(__name__, {
    "compiler": ("CompiledModel", "ReferenceExecutor", "compile_model"),
    "graph": ("Graph", "GraphBuilder", "OpClass", "TensorSpec"),
    "models": ("MODEL_ORDER", "available_models", "build_model"),
    "npu": ("FunctionalRunner", "NPUConfig", "NPUTandem", "iso_a100_config",
            "table3_config"),
    "results": ("RunResult", "geomean"),
})

__all__ = [
    "CompiledModel",
    "FunctionalRunner",
    "Graph",
    "GraphBuilder",
    "MODEL_ORDER",
    "NPUConfig",
    "NPUTandem",
    "OpClass",
    "ReferenceExecutor",
    "RunResult",
    "TensorSpec",
    "available_models",
    "build_model",
    "compile_model",
    "geomean",
    "iso_a100_config",
    "table3_config",
    "__version__",
]
