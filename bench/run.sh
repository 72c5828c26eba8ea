#!/usr/bin/env bash
# Build the benchmark (a module of its own, beside the code it measures)
# and run it with the caller's arguments from the caller's directory.
# The Go build cache stays inside bench/, so a run writes nothing
# outside its checkout.
set -euo pipefail
dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export GOCACHE="$dir/.gocache" GOTOOLCHAIN=local GOPROXY=off
go build -C "$dir" -o "$dir/.bin/stegbench" .
exec "$dir/.bin/stegbench" "$@"
