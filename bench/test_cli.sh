#!/bin/sh
# Checks the bench command line without measuring anything: the help
# lists exactly the four modes, an unknown mode is refused before any
# run starts, and the semantic errors that need no measurement exit 2
# with nothing on stdout (a run would have printed its banner).
# Usage: sh test_cli.sh path/to/main.exe
set -u
bench=$1
fail() {
  echo "test_cli: $*" >&2
  exit 1
}

modes=$("$bench" --help=plain |
  awk '/^COMMANDS/ { on = 1; next } /^[A-Z]/ { on = 0 }
       on && /^       [a-z]/ { printf "%s ", $1 }')
[ "$modes" = "drift estimator kernels serve-load " ] ||
  fail "--help lists modes '$modes'"

expect() {
  want=$1
  shift
  out=$("$bench" "$@" 2>/dev/null)
  code=$?
  [ "$code" -eq "$want" ] || fail "'$*' exited $code, want $want"
  [ -z "$out" ] || fail "'$*' started a run: $out"
}

expect 124 fig5
expect 2 kernels --check missing-baseline.json
expect 2 drift --days 1
