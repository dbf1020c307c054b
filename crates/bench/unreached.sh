#!/usr/bin/env bash
# Public surface that nothing reaches.
#
#   crates/bench/unreached.sh      one `<name>\t<file>:<line>` row per
#                                  unreached item; exit 1 when there is any
#
# An item is a `pub fn` or `pub const` in the non-test part of a file that
# `loc.sh` counts (the same cut: the bit-oracle modules are skipped). Its
# references are the occurrences of its name as a word in the non-comment
# lines of every `.rs` file under crates/, src/, tests/, examples/ and
# benchmark/, less its definitions; lines of the defining file's own test
# module do not count, and neither do the module files `loc.sh` skips (the
# bit oracles behind `#[cfg(test)] mod name;`): an oracle checks a kernel,
# it does not use it. An item with no references is printed.
set -euo pipefail
cd "$(dirname "$0")/../.."

cuts=$(crates/bench/loc.sh --files)

find crates src tests examples benchmark -name '*.rs' -not -path '*/target/*' | sort |
  awk -v cuts="$cuts" '
    function define(name, file, nr) {
      defs[name]++
      where[name] = where[name] " " file ":" nr
      if (!((name, file) in home)) homes[name] = homes[name] " " file
      home[name, file] = 1
    }
    BEGIN {
      n = split(cuts, rows, "\n")
      for (i = 1; i <= n; i++) {
        split(rows[i], f, "\t")
        cut[f[2]] = f[1]
      }
    }
    # each input line names a file: collect its definitions and its words
    {
      file = $0
      nr = 0
      if (file ~ /^(crates\/[^\/]+\/)?src\// && !(file in cut)) next
      while ((getline line < file) > 0) {
        nr++
        if (line ~ /^[ \t]*\/\//) continue
        if ((file in cut) && nr < cut[file] && match(line, /^[ \t]*pub[ \t]+((const|unsafe|async)[ \t]+)*fn[ \t]+[A-Za-z_][A-Za-z0-9_]*/)) {
          name = substr(line, RSTART, RLENGTH); sub(/.*[ \t]/, "", name)
          define(name, file, nr)
        } else if ((file in cut) && nr < cut[file] && match(line, /^[ \t]*pub[ \t]+const[ \t]+[A-Za-z_][A-Za-z0-9_]*[ \t]*:/)) {
          name = substr(line, RSTART, RLENGTH); sub(/[ \t]*:$/, "", name); sub(/.*[ \t]/, "", name)
          define(name, file, nr)
        }
        gsub(/[^A-Za-z0-9_]+/, " ", line)
        k = split(line, words, " ")
        for (j = 1; j <= k; j++) {
          w = words[j]
          seen[w]++
          if ((file in cut) && nr >= cut[file]) tested[w, file]++
        }
      }
      close(file)
    }
    END {
      for (name in defs) {
        refs = seen[name] - defs[name]
        n = split(homes[name], fs, " ")
        for (i = 1; i <= n; i++) refs -= tested[name, fs[i]]
        if (refs <= 0) printf "%s\t%s\n", name, substr(where[name], 2)
      }
    }' | sort | {
  out=$(cat)
  [ -z "$out" ] || { printf '%s\n' "$out"; exit 1; }
}
