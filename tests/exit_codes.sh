#!/usr/bin/env bash
# Exit codes of the installed console script, errors included: the CLI
# contract of README (0 success, 1 a failed verification, 2 usage or
# domain error, 3 admissibility error, 141 stdout closed), checked on the
# `psicalc` found on PATH.  Run it as `bash tests/exit_codes.sh`; it
# exits 1 at the first wrong code.
set -eo pipefail

# each code is captured with `|| code=$?`, so an expected failure does not
# end the script under -e; a wrong code does
expect() {
  local want=$1 code=0
  shift
  "$@" > /dev/null 2>&1 || code=$?
  if [ "$code" -ne "$want" ]; then
    echo "::error::'$*' exited $code, expected $want"
    exit 1
  fi
}

expect 2 psicalc table --n 0
expect 3 psicalc verify --suite fundamental --psi q:-1
expect 2 psicalc expand --f "x+" --order 1
expect 2 psicalc expand --f x --order 100000
expect 2 psicalc verify --suite all --psi q:3/2 --max-degree 65
# factors up to 8 exist, not those up to 16 the whole star product
# would reach: the truncated one grows the same rows and fails alike
expect 2 psicalc verify --suite exp-addition --psi custom:1,2,3,4,5,6,7,8,9,10 --max-degree 8
expect 2 psicalc table --psi fib --n 257
expect 2 psicalc expand --f "x^99999999" --order 1
expect 2 psicalc expand --f "(1+x)^129" --order 1
expect 2 psicalc expand --f "2^9999999" --order 1
expect 2 psicalc expand --f "2^2000*x^128" --order 128 --alpha 1
expect 2 psicalc expand --kind newton --f "2^2000*x^128" --order 128
expect 2 psicalc expand --f x^32 --order 32 --alpha "1$(printf '0%.0s' {1..2000})"
expect 2 psicalc expand --kind psi --psi q:2 --f x^64 --order 64 --alpha 0 --x-eval "1$(printf '0%.0s' {1..2000})"
expect 2 psicalc expand --kind maclaurin --f x --order 1 --alpha 1000000
expect 2 psicalc expand --kind maclaurin --f x^64 --order 64 --alpha "1$(printf '0%.0s' {1..2000})"
# a numeric Jackson sum past the float range: all +inf, and +inf with -inf
expect 2 psicalc jackson --f "x^128" --q 1/2 --z 1000 --format json
expect 2 psicalc jackson --f "x^128 - 1000*x^127" --q 1/2 --z 2000
# a negative rational as the value of a rational flag, which argparse
# alone would take for an unknown option
expect 0 psicalc expand --f x --order 1 --alpha -1/2 --x-eval 2
expect 0 psicalc jackson --f x^2 --q 1/2 --z -3/2
expect 0 psicalc expand --f=-x^2 --order 1
expect 0 psicalc expand --f x --order 1 --alpha "1$(printf '0%.0s' {1..5000})"
expect 0 psicalc verify --suite hahn-reduction --max-degree 0
expect 0 psicalc verify --suite hahn-reduction --max-degree 1
# with the runs above, every module loads through the installed script:
# discrete by Newton at the size cap (1.5 MB printed), sequences alone by
# table, and every verify suite
expect 0 psicalc expand --kind newton --f "(1+x)^128" --order 128
expect 0 psicalc table --psi q:2 --n 4
expect 0 psicalc verify --suite all --psi fib
expect 2 psicalc verify --suite hahn-reduction --max-degree -1
expect 2 psicalc verify --suite hahn-reduction --max-degree 65

# a reader that closes stdout early: exit 141 with no text, no traceback
err=$(mktemp)
trap 'rm -f "$err"' EXIT
set +o pipefail
psicalc table --psi q:3/2 --n 256 2> "$err" | head -c 20 > /dev/null
status=${PIPESTATUS[0]}
set -o pipefail
if [ "$status" -ne 141 ] || [ -s "$err" ]; then
  echo "::error::'psicalc table --psi q:3/2 --n 256 | head -c 20' exited $status, expected 141"
  cat "$err"
  exit 1
fi
