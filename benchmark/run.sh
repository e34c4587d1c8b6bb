#!/usr/bin/env bash
# Builds the benchmark inside the checkout (build cache included, so a
# run touches nothing outside it) and hands it the arguments.
set -euo pipefail
dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
mkdir -p "$dir/out/bin"
export GOCACHE="$dir/out/gocache" GOTOOLCHAIN=local GOWORK=off
go build -C "$dir" -o "$dir/out/bin/benchmark" .
exec "$dir/out/bin/benchmark" "$@"
