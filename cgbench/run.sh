#!/usr/bin/env bash
# Builds the clustergate benchmark from the checkout's sources and runs it
# with the given arguments, from the root of the checkout:
#
#   bash cgbench/run.sh --workload deploy-sweep --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache) stays under
# .bench_build in the checkout.
set -euo pipefail
root="$(pwd)"
build="${root}/.bench_build"
mkdir -p "${build}"
export GOCACHE="${build}/gocache" GOPATH="${build}/gopath" GOTOOLCHAIN=local GOFLAGS= GOENV=off
export GOPROXY=off GOSUMDB=off # the module has no dependencies to fetch
(cd "${root}/cgbench" && go build -o "${build}/cgbench" .)
exec "${build}/cgbench" "$@"
