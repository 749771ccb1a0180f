"""Model zoo registry: the paper's seven benchmark DNNs (+ TinyNet).

``MODEL_ORDER`` is the chronological benchmark order every figure in the
paper uses: VGG-16, ResNet-50, YOLOv3, MobileNetV2, EfficientNet, BERT,
GPT-2.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, List

from ..graph import Graph
from .bert import build_bert
from .efficientnet import build_efficientnet
from .gpt2 import build_gpt2, build_gpt2_rms
from .mobilenetv2 import build_mobilenetv2
from .resnet50 import build_resnet50
from .tinynet import build_tinynet
from .vgg16 import build_vgg16
from .yolov3 import build_yolov3

_BUILDERS: Dict[str, Callable[[], Graph]] = {
    "vgg16": build_vgg16,
    "resnet50": build_resnet50,
    "yolov3": build_yolov3,
    "mobilenetv2": build_mobilenetv2,
    "efficientnet": build_efficientnet,
    "bert": build_bert,
    "gpt2": build_gpt2,
    "gpt2_rms": build_gpt2_rms,
    "tinynet": build_tinynet,
}

#: Benchmark order used throughout the paper's figures (chronological).
MODEL_ORDER: List[str] = [
    "vgg16", "resnet50", "yolov3", "mobilenetv2", "efficientnet", "bert", "gpt2",
]

#: Publication year per model (x-axis of Figure 1).
MODEL_YEARS: Dict[str, int] = {
    "vgg16": 2014,
    "resnet50": 2016,
    "yolov3": 2018,
    "mobilenetv2": 2018,
    "efficientnet": 2019,
    "bert": 2018,
    "gpt2": 2019,
}

#: Display names matching the paper's figure labels.
DISPLAY_NAMES: Dict[str, str] = {
    "vgg16": "VGG-16",
    "resnet50": "ResNet-50",
    "yolov3": "YOLOv3",
    "mobilenetv2": "MobileNetV2",
    "efficientnet": "EfficientNet",
    "bert": "BERT",
    "gpt2": "GPT-2",
    "gpt2_rms": "GPT-2-RMS",
    "tinynet": "TinyNet",
}


def available_models() -> List[str]:
    return sorted(_BUILDERS)


@lru_cache(maxsize=None)
def build_model(name: str) -> Graph:
    """Build (and memoize) a benchmark graph by registry name."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown model {name!r}; available: {', '.join(available_models())}"
        ) from None
    graph = builder()
    graph.validate()
    return graph
