//! Empty offline stand-in: `ca-gpusim` declares `crossbeam` but calls nothing in it.
