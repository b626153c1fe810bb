"""Generate a synthetic 6x3 benchmark suite (clips + manifest) on disk.

Defaults to the canonical suite shape: 60 episodes per category (20 per
stratum) of 90-frame clips at 30 Hz. The counts must be positive
integers; otherwise the script prints its usage line and exits with 2.

Usage: python scripts/make_benchmark_suite.py [out_dir] [clips_per_stratum] [n_frames]
"""
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from omniclone.bench import ManifestEntry, save_manifest
from omniclone.kinematics import load_reference_model
from omniclone.motion import save_clip
from omniclone.synthetic import benchmark_suite

USAGE = "usage: python scripts/make_benchmark_suite.py [out_dir] [clips_per_stratum] [n_frames]"


def _count(text: str) -> int | None:
    """text as a positive integer, or None."""
    try:
        value = int(text)
    except ValueError:
        return None
    return value if value > 0 else None


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    counts = [_count(a) for a in args[1:]]
    if len(args) > 3 or None in counts:
        print(USAGE, file=sys.stderr)
        return 2
    out_dir = pathlib.Path(args[0]) if args else pathlib.Path("suite")
    per_stratum, n_frames = counts + [20, 90][len(counts):]
    clips_dir = out_dir / "clips"
    clips_dir.mkdir(parents=True, exist_ok=True)
    model = load_reference_model()
    entries = []
    for clip in benchmark_suite(model, clips_per_stratum=per_stratum, n_frames=n_frames):
        path = clips_dir / f"{clip.name}.json"
        save_clip(clip, path)
        entries.append(
            ManifestEntry(path=str(path.relative_to(out_dir)), category=clip.category, level=clip.level)
        )
    manifest = out_dir / "manifest.json"
    save_manifest(entries, manifest)
    print(f"wrote {len(entries)} clips and {manifest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
