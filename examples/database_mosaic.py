"""Classic database-driven photomosaic (the paper's Fig. 1 baseline).

The paper's introduction describes the conventional pipeline: divide the
target image into subimages and replace each with the most similar image
from a database.  This example builds a database from the tiles of every
standard stand-in image, then renders a target both ways — with tile reuse
(the classic look) and without (each database tile used at most once,
which is an assignment problem).

Run:  python examples/database_mosaic.py [--size 512]
"""

from __future__ import annotations

import argparse
import os

import numpy as np

from repro import DatabaseMosaic, TileDatabase, save_image, standard_image
from repro.imaging import STANDARD_IMAGES, psnr

OUT_DIR = os.path.join(os.path.dirname(__file__), "output", "database")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=512, help="image side N")
    size = parser.parse_args().size
    os.makedirs(OUT_DIR, exist_ok=True)
    tile_size = 16
    target = standard_image("portrait", size)

    # Database: all tiles of every stand-in image except the target itself.
    sources = [
        standard_image(name, size) for name in STANDARD_IMAGES if name != "portrait"
    ]
    databases = [TileDatabase.from_image_tiles(img, tile_size) for img in sources]
    tiles = np.concatenate([db.tiles for db in databases])
    database = TileDatabase(tiles=tiles)
    print(f"database: {database.size} tiles of {tile_size}x{tile_size}px")

    mosaic = DatabaseMosaic(database)
    save_image(os.path.join(OUT_DIR, "target.png"), target)

    with_reuse, choice = mosaic.generate(target, allow_reuse=True)
    save_image(os.path.join(OUT_DIR, "mosaic_with_reuse.png"), with_reuse)
    unique_used = len(np.unique(choice))
    print(
        f"with reuse   : PSNR {psnr(with_reuse, target):6.2f} dB, "
        f"{unique_used}/{choice.size} distinct tiles used"
    )

    without_reuse, choice = mosaic.generate(target, allow_reuse=False)
    save_image(os.path.join(OUT_DIR, "mosaic_without_reuse.png"), without_reuse)
    assert len(np.unique(choice)) == choice.size
    print(
        f"without reuse: PSNR {psnr(without_reuse, target):6.2f} dB, "
        f"every tile distinct"
    )
    print(f"\nimages written to {OUT_DIR}")


if __name__ == "__main__":
    main()
