#!/usr/bin/env bash
# Builds gapd and the benchmark driver from the checkout this is run in,
# then runs the driver with the given arguments. Run it from the
# repository root:
#
#   bash bench/run.sh --workload hot-mixed --seed 1 --seconds 20 --trace 0
#
# A traced run (--trace 1) also builds gapprobe, the in-process layer
# probes; an untraced run neither builds nor needs it.
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout, the Go build cache included; nothing is fetched.
set -euo pipefail

if [[ ! -f go.mod || ! -f cmd/gapd/main.go || ! -f bench/go.mod ]]; then
	echo "bench: run from the repository root (go.mod, cmd/gapd or bench/go.mod missing here)" >&2
	exit 2
fi

work=.bench_build
mkdir -p "$work/bin" "$work/tmp"
export GOCACHE="$PWD/$work/gocache" GOTMPDIR="$PWD/$work/tmp" GOPATH="$PWD/$work/gopath"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$work/bin/gapd" ./cmd/gapd
(cd bench && go build -o "../$work/bin/gapbench" .)
case " $* " in
*" --trace 1 "* | *" -trace 1 "* | *" --trace=1 "* | *" -trace=1 "*)
	(cd bench && go build -o "../$work/bin/gapprobe" ./probe)
	;;
esac
exec "$work/bin/gapbench" -gapd "$work/bin/gapd" -probe "$work/bin/gapprobe" -work "$work" "$@"
