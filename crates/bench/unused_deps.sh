#!/usr/bin/env bash
# Declared dependencies that no source file names.
#
#   crates/bench/unused_deps.sh    one `<manifest>\t<dependency>` row per
#                                  unused entry; exit 1 when there is any
#
# For every workspace package (the root package and crates/*), each entry
# of its `[dependencies]` table is unused when its crate name, with `-`
# spelled `_`, occurs as a word in no file under the package's `src/`.
# Dev-dependencies are not checked: tests and benches may name them from
# outside `src/`.
set -euo pipefail
cd "$(dirname "$0")/../.."

for manifest in Cargo.toml crates/*/Cargo.toml; do
  src="$(dirname "$manifest")/src"
  awk '
    /^\[/ { deps = ($0 == "[dependencies]"); next }
    deps && match($0, /^[A-Za-z0-9_-]+/) { print substr($0, RSTART, RLENGTH) }
  ' "$manifest" | while read -r dep; do
    name=${dep//-/_}
    grep -rqw -- "$name" "$src" || printf '%s\t%s\n' "$manifest" "$dep"
  done
done | {
  out=$(cat)
  [ -z "$out" ] || { printf '%s\n' "$out"; exit 1; }
}
