#!/usr/bin/env bash
# End-to-end checks of the pathcycle command line, writing its files to DIR:
#
#     ci/smoke.sh DIR
#
# Runs the installed console script when `pathcycle` is on PATH, and
# `python -m pathcycle.cli` on this checkout's src/ otherwise, so the same
# lines run with or without an installed package.  Exits nonzero at the
# first check that fails.
set -e
if [ $# -ne 1 ]; then
  echo "usage: $0 DIR" >&2
  exit 2
fi
mkdir -p "$1"
DIR=$(cd "$1" && pwd)
if command -v pathcycle > /dev/null; then
  pathcycle=pathcycle
else
  root=$(cd "$(dirname "$0")/.." && pwd)
  export PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}"
  pathcycle="python -m pathcycle.cli"
fi

cd "$DIR"
$pathcycle generate --family prop2-r4 --n 6 --out "$DIR/p"
$pathcycle verify --graph "$DIR/p.graph" --regular 4
code=0
$pathcycle solve --graph "$DIR/p.graph" --terminals "$DIR/p.terminals" || code=$?
if [ "$code" -ne 1 ]; then
  echo "solve on prop2-r4 exited $code, expected 1 (infeasible)"
  exit 1
fi
# the installed numpy scan: C5 with W = {0, 2} has delta({}, {1, 3}) = -2
printf 'p 5 5\ne 0 1\ne 0 4\ne 1 2\ne 2 3\ne 3 4\n' > "$DIR/c5.graph"
echo '0 2' > "$DIR/c5.terminals"
code=0
$pathcycle certify --graph "$DIR/c5.graph" --terminals "$DIR/c5.terminals" --exhaustive > "$DIR/c5.witness" || code=$?
cat "$DIR/c5.witness"
if [ "$code" -ne 1 ] || ! grep -qx 'delta: -2' "$DIR/c5.witness"; then
  echo "certify --exhaustive on C5 exited $code, expected 1 with a 'delta: -2' line"
  exit 1
fi
# C5 with no terminals is its own cycle cover, found by the matching
# route and by the oracle, each read back through decompose_system
: > "$DIR/c5.empty"
for cmd in solve oracle; do
  code=0
  out=$($pathcycle $cmd --graph "$DIR/c5.graph" --terminals "$DIR/c5.empty") || code=$?
  echo "$out"
  if [ "$code" -ne 0 ] || [ "$out" != "cycle: 0 1 2 3 4" ]; then
    echo "$cmd on C5 with no terminals exited $code, expected 0 with 'cycle: 0 1 2 3 4'"
    exit 1
  fi
done
# the subdivided star under W = {1, 2, 3, 4}: only the centre has a
# role, so the scan's tables hold 2 sets and G minus the centre has
# four odd components, which delta({0}, {}) = -2 counts
printf 'p 5 4\ne 0 1\ne 0 2\ne 0 3\ne 0 4\n' > "$DIR/star.graph"
echo '1 2 3 4' > "$DIR/star.terminals"
code=0
$pathcycle certify --graph "$DIR/star.graph" --terminals "$DIR/star.terminals" --exhaustive > "$DIR/star.witness" || code=$?
cat "$DIR/star.witness"
if [ "$code" -ne 1 ] || ! grep -qx 'S: 0' "$DIR/star.witness" || ! grep -qx 'delta: -2' "$DIR/star.witness"; then
  echo "certify --exhaustive on the subdivided star exited $code, expected 1 with 'S: 0' and 'delta: -2' lines"
  exit 1
fi
# the largest scan, with every vertex free: the circulant C14(1, 2)
# is 4-regular, so f = 2 lets each vertex be in S or in T
{
  echo 'p 14 28'
  for i in $(seq 0 13); do
    for d in 1 2; do
      j=$(( (i + d) % 14 ))
      if [ "$i" -lt "$j" ]; then echo "e $i $j"; else echo "e $j $i"; fi
    done
  done
} > "$DIR/c14.graph"
: > "$DIR/c14.terminals"
code=0
out=$(timeout 60 $pathcycle certify --graph "$DIR/c14.graph" --terminals "$DIR/c14.terminals" --exhaustive) || code=$?
echo "$out"
if [ "$code" -ne 0 ] || [ "$out" != "NO-CERTIFICATE" ]; then
  echo "certify --exhaustive on C14(1, 2) exited $code, expected 0 with NO-CERTIFICATE"
  exit 1
fi
# a glued family at scale: the build decides its own lambda = 5
$pathcycle generate --family prop2-r5 --m 2000 --out "$DIR/g"
$pathcycle verify --graph "$DIR/g.graph" --regular 5 --edge-connectivity 5 --star-free 5
code=0
$pathcycle certify --graph "$DIR/g.graph" --terminals "$DIR/g.terminals" --witness "$DIR/g.witness" > "$DIR/g.checked" || code=$?
# the witness lists thousands of vertices: print only its delta line
if [ "$code" -ne 1 ] || ! grep -x 'delta: -2' "$DIR/g.checked"; then
  echo "certify --witness on prop2-r5 exited $code, expected 1 with a 'delta: -2' line"
  exit 1
fi
