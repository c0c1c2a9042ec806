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
fastframe/internal/ci.UpdateTrimmed
fastframe/internal/core.(*Looks).Close'

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
