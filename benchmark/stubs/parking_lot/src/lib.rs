//! Empty offline stand-in: `ca-gpusim` declares `parking_lot` but calls nothing in it.
