#!/usr/bin/env python3
"""Waveform-level detection demo: synthesize frames, detect, compare to truth.

Synthesizes one frame of a built-in three-object scene (the user 30 m
out, two decoys at 60 m and 90 m), writes the ADC cube to disk, runs the
detection chain, and prints detected candidates next to the ground truth.
A config file picks the radar and detect profiles. The cube directory it
leaves behind is valid input for `isac-ident detect`.

Usage:
    python scripts/detect_demo.py --out /tmp/cubes [--config configs/example.yaml]
"""

import argparse
import math
from pathlib import Path

from isac_ident.config import ConfigError, RunConfig, load_config
from isac_ident.radar_detect import detect_objects
from isac_ident.radar_frontend import save_cube, synthesize_frame
from isac_ident.scene import SceneObject


def default_scene():
    def obj(oid, d, theta_deg, v_closing, user=False):
        x = d * math.sin(math.radians(theta_deg))
        y = d * math.cos(math.radians(theta_deg))
        return SceneObject(id=oid, position=(x, y),
                           velocity=(-v_closing * x / d, -v_closing * y / d),
                           is_comm_user=user)
    return [obj(0, 30.0, -20.0, 5.0, user=True),
            obj(1, 60.0, 10.0, -8.0),
            obj(2, 90.0, 35.0, 12.0)]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", help="YAML run config whose radar and detect profiles to use")
    ap.add_argument("--out", required=True, help="directory for .rcub frames")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    try:
        cfg = load_config(args.config) if args.config else RunConfig()
    except ConfigError as exc:
        ap.error(str(exc))
    scene = default_scene()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    cube = synthesize_frame(scene, cfg.radar, seed=args.seed)
    save_cube(cube, out / "frame000.rcub")
    candidates = detect_objects(cube, cfg.detect)

    print(f"scene of {len(scene)} objects -> {len(candidates)} candidates "
          f"(cube saved to {out / 'frame000.rcub'})")
    print("ground truth:")
    for o in scene:
        print(f"  id={o.id} range={o.range_m:7.2f} m  azimuth={o.azimuth_deg:7.2f} deg"
              f"  radial vel={o.radial_velocity:6.2f} m/s")
    print("detected candidates (descending power):")
    for k, c in enumerate(candidates):
        print(f"  k={k} range={c.range_m:7.2f} m  azimuth={c.angle_deg:7.2f} deg"
              f"  radial vel={c.vel_mps:6.2f} m/s  cells={c.n_points}")


if __name__ == "__main__":
    main()
