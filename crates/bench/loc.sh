#!/usr/bin/env bash
# Non-test line counts, the measure ROADMAP.md states its line targets in.
#
#   crates/bench/loc.sh            one row per crate (crates/*/src and the
#                                  root package's src), then the total
#   crates/bench/loc.sh <dir>...   one row per given source tree
#   crates/bench/loc.sh --files [<dir>...]
#                                  `<lines>\t<file>` for every counted file
#
# A file counts up to the last `#[cfg(test)]` line that gates a `mod name {`
# block (the test module at its end; other attributes may sit between the
# two lines), or whole when it has none, less every other item or statement
# a `#[cfg(test)]` gates before that line: from the gate to the brace that
# closes the item, or to its `;` when it opens none. A `#[cfg(test)]` on a
# `mod name;` declaration makes all of `name.rs` test code: that file is
# skipped.
set -euo pipefail
cd "$(dirname "$0")/../.."

# `<file>\t<module>` for every module declared behind `#[cfg(test)]`
gated_mods() {
  find "$1" -name '*.rs' -exec awk '
    gate && /^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod [a-z_0-9]+;/ {
      m = $0; sub(/^.*mod[[:space:]]+/, "", m); sub(/;.*/, "", m)
      print FILENAME "\t" m
    }
    { gate = ($0 ~ /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/) }' {} +
}

# non-test lines of one file
file_lines() {
  awk '
    /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ && !start { gate = NR; next }
    gate && /^[[:space:]]*#\[/ { next }
    gate {
      if ($0 ~ /^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod [a-z_0-9]+[[:space:]]*\{/) cut = gate
      start = gate; depth = 0; opened = 0; gate = 0
    }
    start {
      t = $0; o = gsub(/\{/, "", t); depth += o - gsub(/\}/, "", t); opened = opened || o
      if (depth <= 0 && (opened || /;[[:space:]]*$/)) { n++; from[n] = start; to[n] = NR; start = 0 }
    }
    END {
      if (start) { n++; from[n] = start; to[n] = NR }
      last = cut ? cut - 1 : NR
      keep = last + (cut > 0)
      for (i = 1; i <= n; i++) if (from[i] <= last) keep -= (to[i] < last ? to[i] : last) - from[i] + 1
      print keep
    }' "$1"
}

# `<non-test lines>\t<file>` for every counted file of one source tree
tree_files() {
  local skip
  skip=$(gated_mods "$1" | while IFS=$'\t' read -r file m; do
    dir=${file%.rs}
    case $file in */lib.rs | */main.rs | */mod.rs) dir=$(dirname "$file") ;; esac
    printf '%s\n%s\n' "$dir/$m.rs" "$dir/$m/mod.rs"
  done)
  find "$1" -name '*.rs' | sort | while read -r f; do
    grep -qxF -- "$f" <<<"$skip" || printf '%s\t%s\n' "$(file_lines "$f")" "$f"
  done
}

files=false
if [ "${1-}" = --files ]; then
  files=true
  shift
fi
if [ $# -eq 0 ]; then
  set -- crates/*/src src
fi
if $files; then
  for dir in "$@"; do tree_files "$dir"; done
  exit 0
fi
total=0
printf '%-22s %6s\n' tree lines
for dir in "$@"; do
  n=$(tree_files "$dir" | awk '{ s += $1 } END { print s + 0 }')
  total=$((total + n))
  printf '%-22s %6d\n' "$dir" "$n"
done
printf '%-22s %6d\n' total "$total"
