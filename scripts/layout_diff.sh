#!/usr/bin/env bash
# layout_diff.sh PARENT_DIR CHANGE_DIR
#
# Builds ./cmd/ffserved in both source trees (plain `go build`, as the
# benchmark does) and compares where the linker put the code. It prints
# every text symbol of a fastframe package or of main whose address or
# size differs between the two binaries ("-" where a side lacks it), then
# the address mod 64 of the functions a scan spends its time in.
#
# A change that deletes only code the linker already drops prints no
# fastframe line at all: nothing a query runs has moved. A 32-byte shift
# of the scan path alone moves the benchmark's time metrics by several
# percent, so this is the check to run before reading any timing.
#
# Last it builds ./bench in both trees and prints the address mod 64 of
# its speed probe loop, main.probeLoop. The benchmark divides every time
# metric by how slowly that loop ran, and the loop's own speed depends
# on where it sits: on a 2-core Xeon it read ≈ 2.0× the reference time at
# 32 mod 64 and ≈ 1.7× at 0 mod 64, so every time metric of the tree
# whose loop moved read ≈ 15 % apart, with the server unchanged. The
# loop's address moves with the size of every fastframe package the
# benchmark links.
#
# Exit status 0 whether or not symbols differ; 2 on usage or build error.
set -euo pipefail

if [ $# -ne 2 ]; then
  echo "usage: $0 PARENT_DIR CHANGE_DIR" >&2
  exit 2
fi

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

hot='fastframe/internal/exec.(*engine).scanBlocks
fastframe/internal/exec.(*engine).kernel
fastframe/internal/exec.(*engine).gatherGidsInto
fastframe/internal/exec.(*roundAccum).partition
fastframe/internal/exec.(*engine).gatherInputsInto
fastframe/internal/exec.(*groupState).observeRun
fastframe/internal/exec.(*compiledPred).filter
fastframe/internal/ci.(*State).updateTrimmed
fastframe/internal/core.(*Looks).Close'

# probe DIR SIDE builds DIR's benchmark and prints its probe loop's address.
probe() {
  (cd "$1" && go build -o "$out/bench_$2" ./bench) || exit 2
  go tool nm "$out/bench_$2" | awk '$3 == "main.probeLoop" {print $1}'
}

# symbols DIR SIDE builds DIR's ffserved and writes "name<TAB>addr<TAB>size"
# for its fastframe and main text symbols, sorted by name.
symbols() {
  (cd "$1" && go build -o "$out/$2" ./cmd/ffserved) || exit 2
  go tool nm -n -size "$out/$2" | awk '
    $3 == "T" || $3 == "t" {
      name = $4
      for (i = 5; i <= NF; i++) name = name " " $i
      if (name ~ /^fastframe[.\/]/ || name ~ /^main\./) printf "%s\t%s\t%s\n", name, $1, $2
    }' | LC_ALL=C sort -t "$(printf '\t')" -k1,1 > "$out/$2.syms"
}

symbols "$1" parent
symbols "$2" change

tab=$(printf '\t')
echo "# symbol	parent addr	parent size	change addr	change size"
LC_ALL=C join -t "$tab" -a 1 -a 2 -e - -o 0,1.2,1.3,2.2,2.3 "$out/parent.syms" "$out/change.syms" |
  awk -F "$tab" '$2 != $4 || $3 != $5'

echo "# address mod 64	parent	change"
while IFS= read -r fn; do
  p=$(awk -F "$tab" -v f="$fn" '$1 == f {print $2}' "$out/parent.syms")
  c=$(awk -F "$tab" -v f="$fn" '$1 == f {print $2}' "$out/change.syms")
  printf '%s\t%s\t%s\n' "$fn" "${p:+$((16#$p % 64))}" "${c:+$((16#$c % 64))}"
done <<< "$hot"

p=$(probe "$1" parent)
c=$(probe "$2" change)
echo "# benchmark speed probe, address mod 64	parent	change"
printf 'main.probeLoop\t%s\t%s\n' "$((16#$p % 64))" "$((16#$c % 64))"
