"""The bytes of each JSON document a row type writes, pinned on a small
fixed input. Each writer takes its rows' keys from the row type's fields,
so renaming, adding or reordering a field changes its file format; these
tests make that change visible. The markdown report is pinned beside them."""
import json
import pathlib
import sys

import numpy as np

from omniclone.bench import (
    BenchReport,
    EpisodeResult,
    ManifestEntry,
    StratumRow,
    report_to_json,
    report_to_markdown,
    results_to_json,
    save_manifest,
)
from omniclone.kinematics import HumanoidModel, LinkSpec, model_from_dict, model_to_dict
from omniclone.motion import RecipeManifest, StatsRow, recipe_to_json, stats_to_json

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))
import generate_reference_model  # noqa: E402

RESULTS = """\
{
 "method": "pd",
 "episodes": [
  {
   "clip_name": "walk_slow_00",
   "category": "walk",
   "level": "slow",
   "success": false,
   "failure_reason": "deviation",
   "mpjpe_mm": 12.5,
   "per_frame_error_mm": [
    10.0,
    15.0
   ],
   "frames_evaluated": 2
  }
 ]
}
"""

REPORT = """\
{
 "method": "pd",
 "partial": true,
 "rows": [
  {
   "category": "walk",
   "level": "slow",
   "sr_percent": 50.0,
   "mpjpe_mm": 12.5,
   "episodes": 2
  },
  {
   "category": "run",
   "level": "fast",
   "sr_percent": 0.0,
   "mpjpe_mm": null,
   "episodes": 1
  }
 ]
}
"""

# a stratum outside the six benchmark categories gets its own table
MARKDOWN = """\
**Method: pd**

_Partial run: some strata are missing._

### Agile motion (by intensity / jump height)

| Category | Level | SR (%) | MPJPE (mm) |
| --- | --- | --- | --- |
| Walk | Slow | 50 | 12.5 |

### Other strata

| Category | Level | SR (%) | MPJPE (mm) |
| --- | --- | --- | --- |
| Other | - | 100 | 7.5 |

"""

STATS = """\
[
 {
  "category": "walk",
  "level": "slow",
  "metric": "speed",
  "lo": 0.5,
  "hi": 1.25,
  "mean": 0.875
 },
 {
  "category": "walk",
  "level": "slow",
  "metric": "root_height",
  "lo": 0.75,
  "hi": 0.8125,
  "mean": 0.78125
 }
]
"""

MANIFEST = """\
{
 "clips": [
  {
   "path": "clips/a.json",
   "category": "walk",
   "level": "slow"
  },
  {
   "path": "clips/b.json",
   "category": null,
   "level": null
  }
 ]
}
"""

RECIPE = """\
{
 "pools": {
  "a": [
   "x",
   "y"
  ],
  "b": [
   "z"
  ]
 },
 "seed": 7,
 "selected": [
  {
   "clip": "y",
   "label": "a",
   "weight": 0.25
  },
  {
   "clip": "z",
   "label": "b",
   "weight": 0.375
  },
  {
   "clip": "z",
   "label": "b",
   "weight": 0.375
  }
 ],
 "target_fraction": {
  "a": 0.5,
  "b": 0.5
 },
 "total_count": 3,
 "wrapped": [
  "b"
 ]
}
"""

MODEL = """\
{
  "joints": [
    {
      "name": "base",
      "parent": null,
      "offset_pos": [
        0.0,
        0.0,
        0.0
      ],
      "offset_quat": [
        1.0,
        0.0,
        0.0,
        0.0
      ],
      "axis": [
        0.0,
        0.0,
        1.0
      ],
      "limits": [
        0.0,
        0.0
      ]
    },
    {
      "name": "arm",
      "parent": "base",
      "offset_pos": [
        0.0,
        0.0,
        0.5
      ],
      "offset_quat": [
        1.0,
        0.0,
        0.0,
        0.0
      ],
      "axis": [
        0.0,
        1.0,
        0.0
      ],
      "limits": [
        -1.5,
        1.5
      ]
    }
  ],
  "key_bodies": [
    "arm"
  ],
  "calibration_chain": [
    "base",
    "arm"
  ]
}
"""


def test_results_document():
    episode = EpisodeResult("walk_slow_00", "walk", "slow", False, "deviation", 12.5,
                            np.array([10.0, 15.0]), 2)
    assert results_to_json([episode], method="pd") == RESULTS


def test_report_document():
    rows = (StratumRow("walk", "slow", 50.0, 12.5, 2), StratumRow("run", "fast", 0.0, None, 1))
    assert report_to_json(BenchReport(rows=rows, method="pd", partial=True)) == REPORT


def test_markdown_report():
    rows = (StratumRow("walk", "slow", 50.0, 12.5, 2), StratumRow("other", "none", 100.0, 7.5, 1))
    assert report_to_markdown(BenchReport(rows=rows, method="pd", partial=True)) == MARKDOWN


def test_stats_document():
    rows = [StatsRow("walk", "slow", "speed", 0.5, 1.25, 0.875),
            StatsRow("walk", "slow", "root_height", 0.75, 0.8125, 0.78125)]
    assert stats_to_json(rows) == STATS


def test_manifest_document(tmp_path):
    save_manifest([ManifestEntry("clips/a.json", "walk", "slow"), ManifestEntry("clips/b.json")],
                  tmp_path / "manifest.json")
    assert (tmp_path / "manifest.json").read_text(encoding="utf-8") == MANIFEST


def test_recipe_document():
    manifest = RecipeManifest(
        pools={"b": ("z",), "a": ("x", "y")}, target_fraction={"a": 0.5, "b": 0.5}, total_count=3,
        seed=7, selected=(("a", "y", 0.25), ("b", "z", 0.375), ("b", "z", 0.375)), wrapped=("b",),
    )
    assert recipe_to_json(manifest) == RECIPE


def test_model_document():
    links = [LinkSpec("base", None),
             LinkSpec("arm", "base", (0.0, 0.0, 0.5), (1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0), (-1.5, 1.5))]
    model = HumanoidModel(links, key_bodies=("arm",), calibration_chain=("base", "arm"))
    assert json.dumps(model_to_dict(model), indent=2) + "\n" == MODEL


def test_bundled_model_file_is_the_generator_output_written_back():
    model = model_from_dict(generate_reference_model.build())
    bundled = (ROOT / "src" / "omniclone" / "data" / "reference_model.json").read_text(encoding="utf-8")
    assert json.dumps(model_to_dict(model), indent=2) + "\n" == bundled
