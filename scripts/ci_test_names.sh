#!/usr/bin/env bash
# ci_test_names.sh [WORKFLOW]
#
# Checks that every test a CI step selects by name still exists. For each
# `go test … -run PATTERN PKG…` line of the workflow (default
# .github/workflows/ci.yml), every alternative of PATTERN, cut at its
# first "/" (the subtest part), must match at least one test, fuzz target,
# benchmark or example that `go test -list` reports for those packages.
# `go test -run` silently runs nothing for a name that matches nothing, so
# a renamed or deleted test would otherwise drop out of its step unseen.
# The pattern '^$' (run no tests, as benchmark steps use) is skipped.
#
# Run from the repository root. Exit status 0 when every name matches,
# 1 listing each one that does not, 2 on usage or listing error.
set -euo pipefail

wf=${1:-.github/workflows/ci.yml}
if [ ! -f "$wf" ]; then
  echo "usage: $0 [WORKFLOW]  (no file $wf)" >&2
  exit 2
fi

declare -A listed # package list → `go test -list` output
missing=0 checked=0
while IFS= read -r line; do
  read -ra tok <<<"${line#*go test }"
  pattern='' pkgs=()
  for ((i = 0; i < ${#tok[@]}; i++)); do
    case ${tok[i]} in
      -run) pattern=${tok[i + 1]:-}; i=$((i + 1)) ;;
      -run=*) pattern=${tok[i]#-run=} ;;
      . | ./*) pkgs+=("${tok[i]}") ;;
    esac
  done
  pattern=${pattern//\'/}
  pattern=${pattern//\"/}
  if [ -z "$pattern" ] || [ "$pattern" = '^$' ]; then
    continue
  fi
  if [ ${#pkgs[@]} -eq 0 ]; then
    pkgs=(.)
  fi
  key="${pkgs[*]}"
  if [ -z "${listed[$key]+set}" ]; then
    if ! listed[$key]=$(go test -list '.*' "${pkgs[@]}" 2>&1); then
      echo "go test -list ${key} failed:" >&2
      echo "${listed[$key]}" >&2
      exit 2
    fi
  fi
  IFS='|' read -ra alts <<<"$pattern"
  for alt in "${alts[@]}"; do
    alt=${alt%%/*}
    checked=$((checked + 1))
    if ! grep -Eq -- "$alt" <<<"${listed[$key]}"; then
      echo "$wf: -run alternative '$alt' matches no test in ${key}" >&2
      echo "    $line" >&2
      missing=$((missing + 1))
    fi
  done
done < <(grep -E 'go test .*-run' "$wf" | sed -E 's/^[[:space:]]*(run:[[:space:]]*)?//')

if [ "$missing" -gt 0 ]; then
  echo "$missing of $checked test names in $wf match nothing" >&2
  exit 1
fi
echo "all $checked test names in $wf match a test"
