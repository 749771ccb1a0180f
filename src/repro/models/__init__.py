"""The paper's seven benchmark DNNs, defined programmatically."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "bert": ("build_bert",),
    "efficientnet": ("build_efficientnet",),
    "gpt2": ("build_gpt2",),
    "mobilenetv2": ("build_mobilenetv2",),
    "resnet50": ("build_resnet50",),
    "tinynet": ("build_tinynet",),
    "vgg16": ("build_vgg16",),
    "yolov3": ("build_yolov3",),
    "zoo": (
        "DISPLAY_NAMES", "MODEL_ORDER", "MODEL_YEARS", "available_models",
        "build_model",
    ),
})

__all__ = [
    "DISPLAY_NAMES",
    "MODEL_ORDER",
    "MODEL_YEARS",
    "available_models",
    "build_bert",
    "build_efficientnet",
    "build_gpt2",
    "build_mobilenetv2",
    "build_model",
    "build_resnet50",
    "build_tinynet",
    "build_vgg16",
    "build_yolov3",
]
