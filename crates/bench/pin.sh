#!/usr/bin/env bash
# Pin study binaries to their committed artifacts under bench_results/.
#
#   crates/bench/pin.sh <study>...          default-scale runs
#   crates/bench/pin.sh --smoke <study>...  CI-sized runs
#   crates/bench/pin.sh --capture <name> <study> <arg>...
#                                           one run with arguments
#
# Every study runs from the release build with CA_BENCH_DIR pointed at a
# scratch directory ($PIN_DIR, or a fresh temporary one). Its standard
# output must equal bench_results/<study>.txt (bench_results/smoke/<study>.txt
# for a smoke run; ext_service and ext_feedback write their own .txt, so
# their default output is not pinned), and every file the run writes must
# equal its committed namesake, JSON envelopes compared without their "git"
# line. Of a smoke run only the *_smoke.json envelope is compared: its side
# artifacts are not the committed full-run ones. Every study runs; the exit
# status is 1 when any of them differs.
#
# A run with arguments (`--large`, `--matrix cant`) is pinned by its standard
# output alone, to the named capture bench_results/<name>.txt: it writes its
# envelope under the default-scale JSON name, which holds another run.
set -euo pipefail
cd "$(dirname "$0")/../.."
smoke=
pattern='*'
capture=
case "${1:-}" in
  --smoke) smoke=--smoke pattern='*_smoke.json'; shift ;;
  --capture) capture=$2; shift 2 ;;
esac
out=${PIN_DIR:-$(mktemp -d)}
cargo build -q --release --offline -p ca-bench
status=0
same() { diff <(grep -v '^  "git": ' "$1") <(grep -v '^  "git": ' "$2") | head -20 || true; }
if [ -n "$capture" ]; then
  study=$1; shift
  dir=$out/$capture
  rm -rf "$dir" && mkdir -p "$dir"
  if ! CA_BENCH_DIR=$dir target/release/"$study" "$@" < /dev/null > "$dir.stdout"; then
    echo "$capture: exited with an error"; exit 1
  fi
  if d=$(same "bench_results/$capture.txt" "$dir.stdout") && [ -n "$d" ]; then
    echo "$capture: standard output differs from bench_results/$capture.txt"; echo "$d"; exit 1
  fi
  echo "$capture: standard output of $study $* checked"
  exit 0
fi
for study in "$@"; do
  dir=$out/$study
  rm -rf "$dir" && mkdir -p "$dir"
  if ! CA_BENCH_DIR=$dir target/release/"$study" $smoke < /dev/null > "$dir.stdout"; then
    echo "$study: exited with an error"; status=1; continue
  fi
  pinned=bench_results/${smoke:+smoke/}$study.txt
  case $study$smoke in ext_service | ext_feedback) pinned= ;; esac
  if [ -n "$pinned" ] && d=$(same "$pinned" "$dir.stdout") && [ -n "$d" ]; then
    echo "$study: standard output differs from $pinned"; echo "$d"; status=1
  fi
  if [ -z "$smoke" ] && [ ! -f "$dir/$study.json" ]; then
    echo "$study: wrote no $study.json"; status=1
  fi
  files=$(cd "$dir" && find . -type f -name "$pattern" | sed 's|^\./||' | sort)
  for f in $files; do
    if [ ! -f "bench_results/$f" ]; then
      echo "$study: wrote $f, which bench_results/ does not have"; status=1
    elif d=$(same "bench_results/$f" "$dir/$f") && [ -n "$d" ]; then
      echo "$study: $f differs from bench_results/$f"; echo "$d"; status=1
    fi
  done
  echo "$study: $(echo $files | wc -w) artifact(s)${pinned:+ and standard output} checked"
done
exit $status
